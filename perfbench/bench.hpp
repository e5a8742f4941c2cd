// Types shared by the serving-tier benchmark's main program (serving_bench.cpp)
// and its serial layer replay (replay.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "config/config_space.hpp"
#include "service/tuning_service.hpp"
#include "simcore/units.hpp"
#include "transfer/characterization.hpp"
#include "workload/workload.hpp"

namespace stune::perfbench {

/// One named metric of the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Nearest-rank percentile (q in [0, 1]) of `v`, which it sorts; 0 when empty.
double percentile(std::vector<double>& v, double q);

/// One traced serve() call: what the tenant asked for, what it got, and the
/// tenant's status() right after. Configurations and clusters are indices
/// into the trace's pools.
struct LogEntry {
  std::uint64_t op = 0;       // position in the workload's op stream
  std::uint32_t tenant = 0;
  std::uint32_t service = 0;  // which of the workload's services
  std::uint32_t cluster = 0;
  std::uint32_t config = 0;
  simcore::Bytes input_bytes = 0;
  double runtime = 0.0;
  double cost = 0.0;
  bool success = false;
  bool shed = false;
  bool in_window = false;     // false: warmup op (replayed for scale, not timed)
  service::ServeOutcome outcome = service::ServeOutcome::kServed;
  bool tuned_after = false;
  std::uint32_t tunings_after = 0;
  std::uint32_t production_runs_after = 0;
  double serve_us = 0.0;
  transfer::Signature signature;
};

/// Everything the replay needs: the ordered op log, its pools, and the
/// services' options and shapes.
struct Trace {
  std::vector<LogEntry> log;  // ascending op
  std::vector<config::Configuration> configs;
  std::vector<cluster::ClusterSpec> clusters;
  std::vector<service::ServiceOptions> services;
  std::vector<std::shared_ptr<const workload::Workload>> shapes;  // by tenant shape
  std::vector<std::uint32_t> tenant_shape;  // tenant -> index into shapes
};

/// The per-layer timings of the serial replay.
struct ReplayResult {
  Metrics metrics;
  /// Self-time medians of the parts of a steady serve(), in µs.
  double steady_parts_us = 0.0;
  std::size_t flat_checks = 0;
  std::size_t flat_mismatches = 0;
  std::size_t execute_checks = 0;
  std::size_t execute_mismatches = 0;
  std::size_t queries = 0;
  std::size_t query_hits = 0;
  std::size_t records = 0;  // the replayed knowledge bases' total records
};

/// Feed the trace, in op order, through benchmark-owned instances of each
/// layer and time every call (tuning, cloud and engine calls on a sample).
ReplayResult replay(const Trace& trace);

}  // namespace stune::perfbench
