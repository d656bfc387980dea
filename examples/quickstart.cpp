// Quickstart: assemble a Scallop SFU from its parts (switch, data plane,
// agent, controller), connect two WebRTC peers through it, and run a
// 10-second call. This wires the public API by hand; the other examples
// use the testbed helper. This is the one-switch deployment — meetings
// here live entirely on this switch. Fleets of switches under one
// FleetController carry a first-class MeetingPlacement per meeting (home
// switch + relay spans) chosen by a pluggable PlacementPolicy: see
// examples/cascade_demo.cpp for a meeting cascaded across three switches
// and examples/migration_demo.cpp for live placement migration.
#include <cstdio>

#include "client/peer.hpp"
#include "core/control_channel.hpp"
#include "core/dataplane.hpp"
#include "core/federation.hpp"
#include "core/switch_agent.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "switchsim/switch.hpp"

using namespace scallop;

int main() {
  // 1. Event-driven world: a scheduler and a star network.
  sim::Scheduler sched;
  sim::Network network(sched, /*seed=*/7);

  // 2. The switch: a Tofino-like device attached to the network like any
  //    other host, with datacenter-grade links.
  net::Ipv4 sfu_ip(100, 64, 0, 1);
  switchsim::SwitchConfig sw_cfg;
  sw_cfg.address = sfu_ip;
  switchsim::Switch sw(sched, network, sw_cfg);
  network.Attach(sfu_ip, &sw,
                 sim::LinkConfig{.rate_bps = 0, .prop_delay = util::Millis(1)},
                 sim::LinkConfig{.rate_bps = 0, .prop_delay = util::Millis(1)});

  // 3. Scallop's three tiers: data-plane program on the switch, the switch
  //    agent on its CPU, and the centralized controller — which programs
  //    the agent through the southbound control channel. The controller
  //    is a control plane of one region with this switch registered.
  core::DataPlaneProgram dataplane(sw, core::DataPlaneConfig{});
  core::AgentConfig agent_cfg;
  agent_cfg.sfu_ip = sfu_ip;
  core::SwitchAgent agent(sched, dataplane, agent_cfg);
  core::ControlChannel channel(sched, agent);
  core::FederatedControlPlane controller(sched,
                                         {.regions = 1, .switches = 1});
  controller.AddSwitch(channel, sfu_ip);

  // 4. Two WebRTC peers on 20 Mb/s access links.
  sim::LinkConfig access{.rate_bps = 20e6, .prop_delay = util::Millis(5)};
  client::PeerConfig pc;
  pc.encoder.start_bitrate_bps = 700'000;

  pc.address = net::Ipv4(10, 0, 0, 1);
  client::Peer alice(sched, network, pc);
  network.Attach(pc.address, &alice, access, access);

  pc.address = net::Ipv4(10, 0, 0, 2);
  pc.seed = 2;
  client::Peer bob(sched, network, pc);
  network.Attach(pc.address, &bob, access, access);

  // 5. Signaling: create a meeting and join (SDP offer/answer under the
  //    hood; the controller rewrites candidates so the switch becomes each
  //    peer's apparent peer).
  core::MeetingId meeting = controller.CreateMeeting();
  alice.Join(controller, meeting);
  bob.Join(controller, meeting);

  // 6. Run 10 seconds of simulated time.
  sched.RunUntil(util::Seconds(10));

  const auto* rx = bob.video_receiver(alice.id());
  std::printf("Bob decoded %lu video frames from Alice (%.1f fps, "
              "jitter %.2f ms)\n",
              static_cast<unsigned long>(rx->stats().frames_decoded),
              rx->RecentFps(sched.now(), util::Seconds(3)),
              rx->jitter().JitterMs());
  std::printf("Audio packets: %lu | STUN RTT: %.1f ms\n",
              static_cast<unsigned long>(
                  bob.audio_receiver(alice.id())->packets_received()),
              bob.stats().last_stun_rtt_ms);
  std::printf("Switch: %lu packets in, %lu out, %lu to CPU "
              "(two-party fast path, no replication trees: %zu)\n",
              static_cast<unsigned long>(sw.stats().packets_in),
              static_cast<unsigned long>(sw.stats().packets_out),
              static_cast<unsigned long>(sw.stats().packets_to_cpu),
              sw.pre().tree_count());
  return 0;
}
