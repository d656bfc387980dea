// The knobs every testbed is built from: seed, addressing, client and
// datacenter link shapes, and the per-layer configs of the stack the
// substrate assembles (data plane, agent, control channel, fleet control
// loops, or the software SFU). Backends read the fields that apply to them.
// This is the one home of every testbed knob: a ScenarioSpec carries one
// as `base`, and its fluent helpers (WithControlPlane, WithRebalance,
// WithPlacementPolicy, ...) write these fields directly.
#pragma once

#include <utility>
#include <vector>

#include "client/peer.hpp"
#include "core/control_channel.hpp"
#include "core/dataplane.hpp"
#include "core/fleet.hpp"
#include "core/switch_agent.hpp"
#include "sfu/software_sfu.hpp"
#include "sim/link.hpp"

namespace scallop::testbed {

struct TestbedConfig {
  uint64_t seed = 1;
  net::Ipv4 sfu_ip{100, 64, 0, 1};
  // Default client access links: 20/20 Mb/s, 5 ms one way, light jitter —
  // a realistic campus access path, which is what the adaptation and loss
  // experiments exercise. The paper's physical testbed wires clients to
  // the switch over direct 1 Gb/s links; latency-measurement benches
  // (e.g. bench_fig19) override these with that shape so the SFU stage
  // dominates, exactly as in the paper.
  sim::LinkConfig client_uplink{.rate_bps = 20e6,
                                .prop_delay = util::Millis(5),
                                .jitter_stddev = 200};
  sim::LinkConfig client_downlink{.rate_bps = 20e6,
                                  .prop_delay = util::Millis(5),
                                  .jitter_stddev = 200};
  // SFU datacenter links.
  sim::LinkConfig sfu_uplink{.rate_bps = 0, .prop_delay = util::Millis(1)};
  sim::LinkConfig sfu_downlink{.rate_bps = 0, .prop_delay = util::Millis(1)};
  core::DataPlaneConfig dataplane;
  core::AgentConfig agent;          // sfu_ip is overwritten
  sfu::SoftwareSfuConfig software;  // address is overwritten
  client::PeerConfig peer;          // address/seed overwritten per peer
  // Southbound control channel between the controller and each switch
  // agent; the seed is overwritten (derived from `seed` and the switch
  // index). Defaults are zero latency / zero loss: inline dispatch,
  // byte-identical to the old direct-call wiring.
  core::ControlChannelConfig control;
  // The load-driven background rebalancer: a positive interval turns it
  // on (default 0: off).
  core::RebalanceConfig rebalance;
  // The meeting-placement policy (default LeastLoaded keeps the classic
  // single-homed behaviour; Cascade splits large meetings across switches
  // with relay spans; TopologyAware plans relay trees over the modeled
  // backbone).
  core::PlacementPolicyConfig placement;
  // Multi-switch only: the modeled inter-switch backbone. Empty (the
  // default) keeps the implicit full mesh — zero latency, unlimited
  // capacity, byte-identical to the pre-topology fleets. Declared links
  // become both the control plane's link-state view and dedicated
  // sim::Network links that relay traffic physically crosses (multi-hop
  // when spans connect non-adjacent switches).
  std::vector<core::InterSwitchLinkSpec> inter_switch_links;
  // Multi-switch only: (switch, capacity class) overrides, applied in
  // order, so the last write for a switch wins; unlisted switches stay
  // class 1.0 (homogeneous). A class-2 switch carries twice the load of a
  // class-1 switch before the placement policies and the rebalancer
  // consider it equally busy.
  std::vector<std::pair<int, double>> switch_capacities;
  // Multi-switch only: redundant dual relay trees and/or make-before-break
  // (hitless) migration. Defaults keep everything off — byte-identical to
  // the classic break-before-make fleet.
  core::RedundancyConfig redundancy;
  // Structured event tracing (obs::TraceLog): when set, every southbound
  // channel, fleet controller, and east-west conduit the testbed builds
  // emits into it. Null (the default) keeps every traced path on its
  // byte-identical untraced branch. Not owned.
  obs::TraceLog* trace = nullptr;
};

}  // namespace scallop::testbed
