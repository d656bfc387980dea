#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "sim/link.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"

namespace scallop::sim {
namespace {

using net::Endpoint;
using net::Ipv4;

// Takes Post(when, target, token) deliveries and hands each token to
// `on_fire`.
struct TokenSink final : Scheduler::Target {
  std::function<void(uint64_t)> on_fire;

  void Fire(uint64_t token) override { on_fire(token); }
};

TEST(Scheduler, OrdersByTime) {
  Scheduler s;
  std::vector<int> order;
  s.At(300, [&] { order.push_back(3); });
  s.At(100, [&] { order.push_back(1); });
  s.At(200, [&] { order.push_back(2); });
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 300);
}

TEST(Scheduler, FifoAmongEqualTimes) {
  Scheduler s;
  std::vector<int> order;
  s.At(100, [&] { order.push_back(1); });
  s.At(100, [&] { order.push_back(2); });
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Scheduler, RunUntilStopsAndAdvancesClock) {
  Scheduler s;
  int fired = 0;
  s.At(100, [&] { ++fired; });
  s.At(500, [&] { ++fired; });
  EXPECT_EQ(s.RunUntil(250), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 250);
  s.RunAll();
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  int fired = 0;
  uint64_t id = s.At(100, [&] { ++fired; });
  s.Cancel(id);
  EXPECT_EQ(s.RunAll(), 0u);  // not counted
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(s.now(), 0);  // and the clock never reached it
}

TEST(Scheduler, CancelledCallableMayScheduleAsItIsDestroyed) {
  // The run loop destroys a cancelled callable when its record pops. Its
  // captures' destructors may schedule events, here enough to regrow the
  // scheduler's callable slab while the callable is being destroyed.
  Scheduler s;
  int fired = 0;
  struct ScheduleOnDestroy {
    Scheduler* sched = nullptr;
    int* fired = nullptr;
    ~ScheduleOnDestroy() {
      for (int i = 0; i < 64; ++i) sched->At(200, [f = fired] { ++*f; });
    }
  };
  auto payload = std::make_shared<ScheduleOnDestroy>();
  payload->sched = &s;
  payload->fired = &fired;
  s.Cancel(s.At(100, [payload] {}));
  payload.reset();  // the cancelled callable holds the last reference
  EXPECT_EQ(s.RunAll(), 64u);
  EXPECT_EQ(fired, 64);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, EventsScheduleEvents) {
  Scheduler s;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) s.After(10, chain);
  };
  s.After(10, chain);
  s.RunAll();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.now(), 50);
}

TEST(Scheduler, CancelOfFiredIdIsNoOpAndKeepsPendingExact) {
  // Regression: Cancel() on an already-fired id used to be recorded as a
  // live cancellation forever, so pending() under-reported and empty()
  // could report true while real events remained.
  Scheduler s;
  int fired = 0;
  uint64_t done = s.At(100, [&] { ++fired; });
  s.RunAll();
  s.Cancel(done);  // documented no-op
  s.Cancel(done);  // twice, for good measure
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.pending(), 0u);
  s.At(200, [&] { ++fired; });
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.pending(), 1u);
  s.RunAll();
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, DoubleCancelCountsOnce) {
  Scheduler s;
  int fired = 0;
  uint64_t id = s.At(100, [&] { ++fired; });
  s.At(100, [&] { ++fired; });
  s.Cancel(id);
  s.Cancel(id);
  EXPECT_EQ(s.pending(), 1u);
  s.RunAll();
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, StaleCancelCannotHitRescheduledEvent) {
  // A cancelled (or fired) id must never cancel a later event that
  // happens to reuse its internal storage.
  Scheduler s;
  int fired = 0;
  uint64_t a = s.At(100, [&] { ++fired; });
  s.Cancel(a);
  s.RunAll();  // drains the cancelled entry, recycling its slot
  uint64_t b = s.At(200, [&] { ++fired; });
  EXPECT_NE(a, b);
  s.Cancel(a);  // stale: must not touch b
  EXPECT_EQ(s.pending(), 1u);
  s.RunAll();
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, PendingStaysExactUnderCancelHeavyChurn) {
  Scheduler s;
  int fired = 0;
  std::vector<uint64_t> ids;
  for (int round = 0; round < 10; ++round) {
    ids.clear();
    for (int i = 0; i < 100; ++i) {
      ids.push_back(s.After(1 + (i % 4), [&] { ++fired; }));
    }
    EXPECT_EQ(s.pending(), 100u);
    for (int i = 0; i < 100; i += 2) s.Cancel(ids[i]);
    EXPECT_EQ(s.pending(), 50u);
    s.RunAll();
    EXPECT_EQ(s.pending(), 0u);
    EXPECT_TRUE(s.empty());
    for (uint64_t id : ids) s.Cancel(id);  // all fired or cancelled: no-ops
    EXPECT_EQ(s.pending(), 0u);
  }
  EXPECT_EQ(fired, 500);
}

TEST(Scheduler, NestedRunUntilMergesBothEntryPoints) {
  // Regression: a RunUntil called from inside a posted delivery used to
  // see only At's events, so deliveries due before its end ran later with
  // now() already past their timestamps.
  Scheduler s;
  using Ran = std::vector<std::pair<std::string, util::TimeUs>>;
  Ran ran;  // (what ran, now() as it ran)
  auto note = [&](std::string what) { ran.emplace_back(what, s.now()); };
  size_t inner = 0;
  TokenSink posted;  // each token is the time it was posted for
  posted.on_fire = [&](uint64_t at) {
    note("post@" + std::to_string(at));
    if (at != 100) return;
    inner = s.RunUntil(300);
    note("back@100");
  };
  s.Post(100, posted, 100);
  s.Post(200, posted, 200);
  s.Post(300, posted, 300);
  s.At(250, [&] {
    note("at@250");
    s.Post(250, posted, 250);
  });
  s.At(350, [&] { note("at@350"); });
  EXPECT_EQ(s.RunAll(), 2u);  // the inner RunUntil counts its own four
  EXPECT_EQ(inner, 4u);
  EXPECT_EQ(ran, (Ran{{"post@100", 100},
                      {"post@200", 200},
                      {"at@250", 250},
                      {"post@250", 250},
                      {"post@300", 300},
                      {"back@100", 300},
                      {"at@350", 350}}));
}

TEST(PeriodicTaskTest, RepeatsUntilFalse) {
  Scheduler s;
  int runs = 0;
  PeriodicTask task(s, 100, [&] { return ++runs < 3; });
  s.RunAll();
  EXPECT_EQ(runs, 3);
}

TEST(PeriodicTaskTest, DestroyFromOwnCallbackIsSafe) {
  // Regression: the armed event captured `this` and could outlive a task
  // destroyed inside its own callback.
  Scheduler s;
  int runs = 0;
  std::unique_ptr<PeriodicTask> task;
  task = std::make_unique<PeriodicTask>(s, 100, [&] {
    ++runs;
    task.reset();  // destroys the task while its callback is running
    return true;   // and still asks to re-arm
  });
  s.RunAll();
  EXPECT_EQ(runs, 1);
}

TEST(PeriodicTaskTest, CancelInsideCallbackStopsRearm) {
  // Regression: fn_ returning true used to re-arm even when Cancel() was
  // called inside the callback (after the entry check), leaving an armed
  // event the destructor no longer cancelled — a dangling `this` capture.
  Scheduler s;
  int runs = 0;
  {
    PeriodicTask task(s, 100, [&] {
      ++runs;
      task.Cancel();
      return true;
    });
    s.RunUntil(250);  // fires once at t=100
    EXPECT_EQ(runs, 1);
    EXPECT_TRUE(s.empty());  // no zombie re-armed event
  }
  s.RunAll();  // would fire (and use-after-free) a leaked re-arm
  EXPECT_EQ(runs, 1);
}

TEST(PeriodicTaskTest, CancelFromNestedEventStopsRearm) {
  // A Cancel issued by another event that runs inside the task's own
  // callback window must stick even though the task's entry check had
  // already passed.
  Scheduler s;
  int runs = 0;
  PeriodicTask task(s, 100, [&] {
    ++runs;
    // Simulates a nested RunUntil: work done inside the callback cancels
    // the task before it returns true.
    s.RunUntil(s.now());  // drains same-time events (none) — keeps shape
    task.Cancel();
    return true;
  });
  s.RunAll();
  EXPECT_EQ(runs, 1);
}

net::PacketPtr MakeTestPacket(size_t size = 1000) {
  return net::MakePacket(Endpoint{Ipv4(10, 0, 0, 1), 1000},
                         Endpoint{Ipv4(10, 0, 0, 2), 2000},
                         std::vector<uint8_t>(size, 0));
}

TEST(LinkTest, PropagationDelayOnly) {
  Scheduler s;
  util::TimeUs arrival = -1;
  Link link(s, LinkConfig{.rate_bps = 0, .prop_delay = util::Millis(10)}, 1,
            [&](net::PacketPtr p) { arrival = p->arrival; });
  link.Send(MakeTestPacket());
  s.RunAll();
  EXPECT_EQ(arrival, util::Millis(10));
}

TEST(LinkTest, SerializationDelay) {
  Scheduler s;
  // 1 Mbit/s: a 1028-byte packet (1000 + 28 header) takes 8224 us.
  util::TimeUs arrival = -1;
  Link link(s, LinkConfig{.rate_bps = 1e6}, 1,
            [&](net::PacketPtr p) { arrival = p->arrival; });
  link.Send(MakeTestPacket(1000));
  s.RunAll();
  EXPECT_EQ(arrival, 8224);
}

TEST(LinkTest, QueueingDelaysBackToBackPackets) {
  Scheduler s;
  std::vector<util::TimeUs> arrivals;
  Link link(s, LinkConfig{.rate_bps = 1e6}, 1,
            [&](net::PacketPtr p) { arrivals.push_back(p->arrival); });
  for (int i = 0; i < 3; ++i) link.Send(MakeTestPacket(1000));
  s.RunAll();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], 8224);
  EXPECT_EQ(arrivals[1], 2 * 8224);
  EXPECT_EQ(arrivals[2], 3 * 8224);
}

TEST(LinkTest, LossRateDropsApproximatelyP) {
  Scheduler s;
  int delivered = 0;
  Link link(s, LinkConfig{.rate_bps = 0, .loss_rate = 0.2}, 7,
            [&](net::PacketPtr) { ++delivered; });
  for (int i = 0; i < 10000; ++i) link.Send(MakeTestPacket(100));
  s.RunAll();
  EXPECT_NEAR(delivered / 10000.0, 0.8, 0.02);
  EXPECT_EQ(link.stats().lost_packets + link.stats().delivered_packets,
            link.stats().sent_packets);
}

TEST(LinkTest, RuntimeJitterKnob) {
  // Jitter is settable at runtime like the other link knobs (scenario
  // harness LinkEvents use this to degrade a link mid-run).
  Scheduler s;
  std::vector<util::TimeUs> arrivals;
  Link link(s, LinkConfig{.rate_bps = 0, .prop_delay = util::Millis(10)}, 1,
            [&](net::PacketPtr p) { arrivals.push_back(p->arrival); });
  // Without jitter every packet arrives exactly one propagation later.
  link.Send(MakeTestPacket());
  s.RunAll();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], util::Millis(10));

  link.set_jitter_stddev(util::Millis(2));
  EXPECT_EQ(link.config().jitter_stddev, util::Millis(2));
  int jittered = 0;
  util::TimeUs base = s.now();
  for (int i = 0; i < 32; ++i) link.Send(MakeTestPacket());
  s.RunAll();
  ASSERT_EQ(arrivals.size(), 33u);
  for (size_t i = 1; i < arrivals.size(); ++i) {
    if (arrivals[i] - base > util::Millis(10)) ++jittered;
  }
  // Half-normal extra delay: a good fraction of packets arrive late.
  EXPECT_GT(jittered, 8);
}

TEST(LinkTest, QueueOverflowDrops) {
  Scheduler s;
  int delivered = 0;
  Link link(s, LinkConfig{.rate_bps = 1e6, .queue_bytes = 3000}, 1,
            [&](net::PacketPtr) { ++delivered; });
  for (int i = 0; i < 10; ++i) link.Send(MakeTestPacket(1000));
  s.RunAll();
  EXPECT_LT(delivered, 10);
  EXPECT_GT(link.stats().dropped_packets, 0u);
}

TEST(LinkTest, RuntimeRateChangeTakesEffect) {
  Scheduler s;
  util::TimeUs arrival = -1;
  Link link(s, LinkConfig{.rate_bps = 1e6}, 1,
            [&](net::PacketPtr p) { arrival = p->arrival; });
  link.set_rate_bps(2e6);
  link.Send(MakeTestPacket(1000));
  s.RunAll();
  EXPECT_EQ(arrival, 4112);
}

class Sink : public Host {
 public:
  void OnPacket(net::PacketPtr pkt) override { received.push_back(std::move(pkt)); }
  std::vector<net::PacketPtr> received;
};

TEST(NetworkTest, RoutesBetweenHosts) {
  Scheduler s;
  Network net(s, 99);
  Sink a, b;
  LinkConfig fast{.rate_bps = 0, .prop_delay = util::Millis(5)};
  net.Attach(Ipv4(10, 0, 0, 1), &a, fast, fast);
  net.Attach(Ipv4(10, 0, 0, 2), &b, fast, fast);

  net.Send(MakeTestPacket());
  s.RunAll();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0]->arrival, util::Millis(10));  // up + down
  EXPECT_TRUE(a.received.empty());
}

TEST(NetworkTest, UnknownDestinationBlackholed) {
  Scheduler s;
  Network net(s, 99);
  Sink a;
  net.Attach(Ipv4(10, 0, 0, 1), &a, {}, {});
  net.Send(MakeTestPacket());  // dst 10.0.0.2 not attached
  s.RunAll();
  EXPECT_EQ(net.blackholed(), 1u);
}

TEST(NetworkTest, DownlinkCapacityShapesTraffic) {
  Scheduler s;
  Network net(s, 99);
  Sink a, b;
  net.Attach(Ipv4(10, 0, 0, 1), &a, {}, {});
  net.Attach(Ipv4(10, 0, 0, 2), &b, {},
             LinkConfig{.rate_bps = 1e6});
  for (int i = 0; i < 5; ++i) net.Send(MakeTestPacket(1000));
  s.RunAll();
  ASSERT_EQ(b.received.size(), 5u);
  // Spaced by the serialization time of the bottleneck downlink.
  EXPECT_EQ(b.received[4]->arrival - b.received[3]->arrival, 8224);
}

TEST(NetworkTest, RouteCrossesEveryPairLinkHop) {
  // A—B—C pair links; (A, C) traffic pinned onto {A, B, C}.
  Scheduler s;
  Network net(s, 99);
  Sink a, b, c;
  const Ipv4 ia(10, 0, 0, 1), ib(10, 0, 0, 3), ic(10, 0, 0, 2);
  net.Attach(ia, &a, {}, {});
  net.Attach(ib, &b, {}, {});
  net.Attach(ic, &c, {}, {});
  const LinkConfig ab{.rate_bps = 0, .prop_delay = util::Millis(3)};
  const LinkConfig bc{.rate_bps = 0, .prop_delay = util::Millis(7)};
  net.Connect(ia, ib, ab, ab);
  net.Connect(ib, ic, bc, bc);
  net.SetRoute(ia, ic, {ia, ib, ic});

  net.Send(MakeTestPacket());  // 10.0.0.1 -> 10.0.0.2, i.e. A -> C
  s.RunAll();
  ASSERT_EQ(c.received.size(), 1u);
  EXPECT_EQ(c.received[0]->arrival, util::Millis(3) + util::Millis(7));
  EXPECT_TRUE(a.received.empty());
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.pair_link(ia, ib)->stats().delivered_packets, 1u);
  EXPECT_EQ(net.pair_link(ib, ic)->stats().delivered_packets, 1u);
  EXPECT_EQ(net.pair_link(ic, ib)->stats().sent_packets, 0u);
  EXPECT_EQ(net.uplink(ia)->stats().sent_packets, 0u);
  EXPECT_EQ(net.blackholed(), 0u);

  // A route through a hop the backbone does not connect (A—C) blackholes.
  net.SetRoute(ia, ic, {ia, ic});
  net.Send(MakeTestPacket());
  s.RunAll();
  EXPECT_EQ(c.received.size(), 1u);
  EXPECT_EQ(net.blackholed(), 1u);
}

TEST(NetworkTest, PairLinkArrivalOffItsRouteIsBlackholed) {
  // Routes are installed before traffic flows. A packet still on the A—B
  // link when (A, C) is re-pinned to a route without that link is counted
  // and dropped where it arrives.
  Scheduler s;
  Network net(s, 99);
  Sink a, b, c;
  const Ipv4 ia(10, 0, 0, 1), ib(10, 0, 0, 3), ic(10, 0, 0, 2);
  net.Attach(ia, &a, {}, {});
  net.Attach(ib, &b, {}, {});
  net.Attach(ic, &c, {}, {});
  const LinkConfig hop{.rate_bps = 0, .prop_delay = util::Millis(5)};
  net.Connect(ia, ib, hop, hop);
  net.Connect(ib, ic, hop, hop);
  net.Connect(ia, ic, hop, hop);
  net.SetRoute(ia, ic, {ia, ib, ic});
  net.Send(MakeTestPacket());
  s.RunUntil(util::Millis(1));
  net.SetRoute(ia, ic, {ia, ic});
  s.RunAll();
  EXPECT_TRUE(c.received.empty());
  EXPECT_EQ(net.pair_link(ia, ib)->stats().delivered_packets, 1u);
  EXPECT_EQ(net.pair_link(ib, ic)->stats().sent_packets, 0u);
  EXPECT_EQ(net.blackholed(), 1u);
}

TEST(PacketTest, PacketPtrIsMoveOnlyAndRecyclesItsBuffer) {
  static_assert(!std::is_copy_constructible_v<net::PacketPtr>);
  static_assert(!std::is_copy_assignable_v<net::PacketPtr>);
  static_assert(std::is_nothrow_move_constructible_v<net::PacketPtr>);
  static_assert(sizeof(net::PacketPtr) == sizeof(net::Packet*));

  net::PacketPtr p = MakeTestPacket(1500);
  net::Packet* raw = p.get();
  p->payload.resize(10);
  p->arrival = 77;
  p.reset();  // back to the pool
  net::PacketPtr q = net::AcquirePacket();
  EXPECT_EQ(q.get(), raw);  // the freelist hands back the last release
  EXPECT_GE(q->payload.capacity(), 1500u);
  EXPECT_EQ(q->arrival, 0);
  net::PacketPtr r = net::ClonePacket(*q);
  EXPECT_NE(r.get(), q.get());
}

}  // namespace
}  // namespace scallop::sim
