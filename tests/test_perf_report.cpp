// Pins the machine-readable bench contract (BENCH_<area>.json schema,
// round-trip, env-var routing) and the scheduler guarantees the perf
// campaign leans on: pending() stays exact under cancel-heavy churn, and
// Post stays observationally identical to At — same FIFO order among
// equal times, interleaved with At events by the shared sequence counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "perf_report.hpp"
#include "sim/scheduler.hpp"

namespace scallop {
namespace {

// ---- BENCH_<area>.json contract -------------------------------------------

TEST(PerfReport, JsonCarriesPinnedSchema) {
  bench::PerfReport report("scheduler");
  report.AddMetric("events_per_sec", 1.5e6, "events/s");
  std::string json = report.ToJson();
  EXPECT_NE(json.find("\"schema\": \"scallop-bench-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"area\": \"scheduler\""), std::string::npos);
}

TEST(PerfReport, RoundTripPreservesMetricsAndParams) {
  bench::PerfReport report("fleet_scale");
  report.AddMetric("sim_s_per_wall_s", 1.6789, "sim-s/wall-s");
  report.AddMetric("wall_seconds", 2.5, "s", /*higher_is_better=*/false);
  report.AddParam("peers", 216);
  report.AddParam("sim_seconds", 3);

  auto parsed = bench::PerfReport::Parse(report.ToJson());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->area(), "fleet_scale");
  ASSERT_EQ(parsed->metrics().size(), 2u);
  const bench::PerfMetric* m = parsed->FindMetric("sim_s_per_wall_s");
  ASSERT_NE(m, nullptr);
  EXPECT_NEAR(m->value, 1.6789, 1e-9);
  EXPECT_EQ(m->unit, "sim-s/wall-s");
  EXPECT_TRUE(m->higher_is_better);
  const bench::PerfMetric* w = parsed->FindMetric("wall_seconds");
  ASSERT_NE(w, nullptr);
  EXPECT_FALSE(w->higher_is_better);
  ASSERT_EQ(parsed->params().size(), 2u);
  EXPECT_EQ(parsed->params()[0].name, "peers");
  EXPECT_NEAR(parsed->params()[0].value, 216.0, 1e-9);
}

TEST(PerfReport, ParseRejectsMalformedInput) {
  EXPECT_FALSE(bench::PerfReport::Parse("").has_value());
  EXPECT_FALSE(bench::PerfReport::Parse("not json at all").has_value());
  EXPECT_FALSE(
      bench::PerfReport::Parse("{\"schema\": \"other-v9\"}").has_value());
}

TEST(PerfReport, WriteJsonHonorsBenchDirEnv) {
  std::string dir = ::testing::TempDir();
  // TempDir may end with '/', WriteJson joins with '/': tolerate both.
  while (!dir.empty() && dir.back() == '/') dir.pop_back();
  ASSERT_EQ(setenv("SCALLOP_BENCH_DIR", dir.c_str(), 1), 0);
  bench::PerfReport report("unit_test_area");
  report.AddMetric("m", 42.0, "u");
  std::string path = report.WriteJson();
  unsetenv("SCALLOP_BENCH_DIR");
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path, dir + "/BENCH_unit_test_area.json");

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream contents;
  contents << in.rdbuf();
  auto parsed = bench::PerfReport::Parse(contents.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->area(), "unit_test_area");
  std::remove(path.c_str());
}

// ---- scheduler invariants the fast paths must uphold -----------------------

// Takes Post(when, target, token) deliveries: records each token as it
// fires, then hands it to `then` when one is set, for deliveries that must
// act (note their place in a shared order, submit more work).
struct Recorder final : sim::Scheduler::Target {
  std::vector<uint64_t> fired;
  std::function<void(uint64_t)> then;

  void Fire(uint64_t token) override {
    fired.push_back(token);
    if (then) then(token);
  }
};

// pending() is the heap's size less the records Cancel disarmed. Churn At,
// Post and Cancel against a simple reference count. Deterministic
// xorshift so the interleaving is reproducible.
TEST(SchedulerInvariants, PendingExactUnderCancelHeavyChurn) {
  sim::Scheduler s;
  uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };

  std::vector<uint64_t> live_ids;
  std::vector<uint64_t> dead_ids;  // cancelled or obviously stale
  size_t expected_pending = 0;
  size_t expected_fires = 0;
  size_t fired = 0;
  Recorder posted;
  posted.then = [&](uint64_t) { ++fired; };

  for (int op = 0; op < 5000; ++op) {
    switch (next() % 4) {
      case 0:  // cancellable event
        live_ids.push_back(
            s.At(static_cast<util::TimeUs>(next() % 1000), [&] { ++fired; }));
        ++expected_pending;
        ++expected_fires;
        break;
      case 1:  // posted (uncancellable) event
        s.Post(static_cast<util::TimeUs>(next() % 1000), posted,
               static_cast<uint64_t>(op));
        ++expected_pending;
        ++expected_fires;
        break;
      case 2:  // cancel a live id
        if (!live_ids.empty()) {
          size_t i = next() % live_ids.size();
          s.Cancel(live_ids[i]);
          dead_ids.push_back(live_ids[i]);
          live_ids[i] = live_ids.back();
          live_ids.pop_back();
          --expected_pending;
          --expected_fires;
        }
        break;
      case 3:  // double-cancel: must be a no-op on the counts
        if (!dead_ids.empty()) s.Cancel(dead_ids[next() % dead_ids.size()]);
        break;
    }
    ASSERT_EQ(s.pending(), expected_pending) << "after op " << op;
    ASSERT_EQ(s.empty(), expected_pending == 0);
  }

  s.RunAll();
  EXPECT_EQ(fired, expected_fires);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_TRUE(s.empty());

  // Cancelling long-fired ids after the run is still a no-op.
  for (uint64_t id : live_ids) s.Cancel(id);
  EXPECT_EQ(s.pending(), 0u);
}

// Post promises At's ordering: among events with equal timestamps,
// submission order wins — even when At and Post submissions interleave,
// because both draw from the one sequence counter.
TEST(SchedulerInvariants, PostedDeliveryKeepsFifoAmongEqualTimes) {
  sim::Scheduler s;
  std::vector<int> order;
  Recorder posted;
  posted.then = [&](uint64_t t) { order.push_back(static_cast<int>(t)); };
  s.At(100, [&] { order.push_back(0); });
  s.Post(100, posted, 1);
  s.At(100, [&] { order.push_back(2); });
  s.Post(100, posted, 3);
  s.Post(100, posted, 4);
  s.At(100, [&] { order.push_back(5); });
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(s.now(), 100);
}

// Same promise across distinct timestamps: the merged At/Post stream runs
// in global (when, submission) order regardless of which call queued each
// event, including same-time reentrant submissions from inside a running
// posted delivery.
TEST(SchedulerInvariants, PostedAndDirectEventsMergeInTimeOrder) {
  sim::Scheduler s;
  std::vector<int> order;
  Recorder posted;
  posted.then = [&](uint64_t t) {
    order.push_back(static_cast<int>(t));
    if (t != 3) return;
    // Reentrant: a posted delivery queueing more work at its own
    // timestamp still runs after everything already submitted for that
    // timestamp (its sequence number is newer).
    s.Post(200, posted, 4);
    s.Post(400, posted, 6);
  };
  s.Post(300, posted, 5);
  s.At(100, [&] { order.push_back(1); });
  s.Post(200, posted, 3);
  s.Post(100, posted, 2);
  s.At(50, [&] { order.push_back(0); });
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(s.now(), 400);
}

TEST(SchedulerInvariants, PostClampsPastTimesToNow) {
  sim::Scheduler s;
  std::vector<int> order;
  Recorder posted;
  posted.then = [&](uint64_t t) { order.push_back(static_cast<int>(t)); };
  s.At(100, [&] {
    // now() == 100; a posted event aimed at the past must not rewind.
    s.Post(10, posted, 1);
    order.push_back(0);
  });
  s.At(100, [&] { order.push_back(2); });
  s.RunAll();
  // The clamped event keeps its (newer) submission order at t=100.
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
  EXPECT_EQ(s.now(), 100);
}

TEST(SchedulerInvariants, RunUntilLeavesFuturePostedWorkQueued) {
  sim::Scheduler s;
  Recorder posted;
  s.Post(500, posted, 1);
  s.Post(600, posted, 2);
  EXPECT_EQ(s.RunUntil(250), 0u);
  EXPECT_TRUE(posted.fired.empty());
  EXPECT_EQ(s.pending(), 2u);
  EXPECT_EQ(s.now(), 250);
  EXPECT_EQ(s.RunAll(), 2u);
  EXPECT_EQ(posted.fired, (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(s.pending(), 0u);
}

// The whole contract at once: seeded random At, Post and Cancel calls,
// some from inside running callbacks (a few of which run a nested
// RunUntil), fire in exactly the order of a reference list sorted by
// (time, submission index), each at its own time. Past times are clamped
// to now() at submission, which the reference mirrors.
class SchedulerOrderProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SchedulerOrderProperty, FiresInTimeThenSubmissionOrder) {
  struct Submitted {
    util::TimeUs when = 0;  // after clamping
    int depth = 0;          // > 0: submitted from inside a callback
    uint64_t id = 0;        // At's cancel id; 0 for Post
    bool cancelled = false;
    bool fired = false;
  };
  sim::Scheduler s;
  uint64_t rng = GetParam() * 0x9e3779b97f4a7c15ull + 1;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  std::vector<Submitted> subs;
  std::vector<size_t> fired_order;
  size_t live = 0;
  int nesting = 0;

  // One random operation; `depth` > 0 means it runs inside a callback.
  std::function<void(int)> op;
  // Runs submission `idx`, whichever call queued it.
  auto fire = [&](size_t idx) {
    EXPECT_EQ(s.now(), subs[idx].when) << "event " << idx;
    EXPECT_FALSE(subs[idx].cancelled) << "event " << idx;
    subs[idx].fired = true;
    fired_order.push_back(idx);
    --live;
    // Callbacks submit, cancel and (rarely) run a nested loop.
    if (subs[idx].depth < 3 && next() % 3 == 0) op(subs[idx].depth + 1);
    if (nesting == 0 && next() % 16 == 0) {
      ++nesting;
      s.RunUntil(s.now() + static_cast<util::TimeUs>(next() % 30));
      --nesting;
    }
  };
  Recorder posted;
  posted.then = [&](uint64_t idx) { fire(idx); };
  op = [&](int depth) {
    uint64_t r = next();
    util::TimeUs when = s.now() + static_cast<util::TimeUs>(r % 40) - 5;
    switch ((r >> 8) % 6) {
      case 0:
      case 1:
      case 2:
      case 3: {  // At or Post, half each
        size_t idx = subs.size();
        subs.push_back({std::max(when, s.now()), depth});
        if ((r >> 16) % 2 == 0) {
          subs[idx].id = s.At(when, [&fire, idx] { fire(idx); });
        } else {
          s.Post(when, posted, idx);
        }
        ++live;
        break;
      }
      default: {  // cancel a recent At event, pending or not
        if (subs.empty()) break;
        size_t back = (r >> 16) % std::min<size_t>(subs.size(), 64);
        Submitted& target = subs[subs.size() - 1 - back];
        if (target.id == 0) break;
        s.Cancel(target.id);
        if (!target.fired && !target.cancelled) {
          target.cancelled = true;
          --live;
        }
        break;
      }
    }
    ASSERT_EQ(s.pending(), live);
  };

  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 100; ++i) op(0);
    s.RunUntil(s.now() + 15);
    ASSERT_EQ(s.pending(), live);
  }
  s.RunAll();
  EXPECT_EQ(s.pending(), 0u);

  std::vector<size_t> want;
  for (size_t i = 0; i < subs.size(); ++i) {
    if (!subs[i].cancelled) want.push_back(i);
  }
  std::stable_sort(want.begin(), want.end(), [&](size_t a, size_t b) {
    return subs[a].when < subs[b].when;
  });
  EXPECT_EQ(fired_order, want);
  EXPECT_GT(want.size(), 500u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerOrderProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace scallop
