// The three workloads and the per-layer metric table they share.

#ifndef XARBENCH_WORKLOADS_H_
#define XARBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "checks.h"
#include "graph/oracle.h"
#include "stats.h"
#include "trace.h"
#include "xar/concurrent_xar.h"

namespace xarbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::int64_t process_start_ns = 0;  ///< NowNs() at main() entry
};

RunResult RunServeLookbook(const RunConfig& config);
RunResult RunCityRush(const RunConfig& config);
RunResult RunBookingChurn(const RunConfig& config);

/// Summed search/cache counters of every oracle a run routed on.
struct OracleTotals {
  std::size_t computations = 0;
  std::size_t cache_hits = 0;
  std::size_t settled = 0;

  void AddFrom(const xar::DistanceOracle& oracle) {
    computations += oracle.computation_count();
    cache_hits += oracle.cache_hit_count();
    settled += oracle.settled_count();
  }
};

/// Everything the per-layer table is derived from besides the spans.
/// Counters are summed over a run's rounds; `rounds` turns them back into
/// per-round figures. A layer a workload never touches stays zero.
struct LayerInputs {
  std::size_t rounds = 1;
  std::uint64_t operations = 0;  ///< normalizes graph call counts
  std::size_t shards = 1;

  // end-to-end tails, reported here unbounded (see README)
  double search_p99_us = 0.0;
  double book_p99_us = 0.0;

  // serve
  double search_server_us = 0.0;
  double book_server_us = 0.0;
  double wire_us = 0.0;
  double queue_highwater = 0.0;
  double generator_late_us = 0.0;
  double knee_rps = 0.0;

  // xar / match / schedule counters, summed over rounds
  xar::RetryStats retry;
  xar::MatchCounters match;
  std::size_t match_bytes = 0;  ///< last round's index size
  xar::PoolingStats pooling;
  std::uint64_t plain_searches = 0;  ///< Search/SearchTopK calls issued
  std::uint64_t search_and_book_calls = 0;

  // graph
  OracleTotals oracle;

  // discretize
  double discretize_build_s = 0.0;
  std::vector<double> matrix_ms;      ///< one per refresh
  std::vector<double> rides_rehomed;  ///< one per refresh
  std::size_t region_bytes = 0;

  // sim
  std::uint64_t edge_traversals = 0;

  void AddSystem(const xar::ConcurrentXarSystem& system);
};

/// Appends every per-layer metric, in the order BENCHMARK.json lists them.
void AddLayerMetrics(const LayerInputs& in, const std::vector<Span>& spans,
                     RunResult* result);

/// Statuses a correct system returns for a request it cannot serve: no
/// match, a stale match, a rider already aboard, a booking already made or
/// completed. Any other failure counts as a failed operation.
inline bool ExpectedStatus(const xar::Status& status) {
  return status.ok() || status.code() == xar::StatusCode::kNotFound ||
         status.code() == xar::StatusCode::kFailedPrecondition;
}

/// Folds a check log into the result (correct flag and messages).
void MergeChecks(const CheckLog& log, RunResult* result);

/// Seconds since `start_ns`.
inline double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

}  // namespace xarbench

#endif  // XARBENCH_WORKLOADS_H_
