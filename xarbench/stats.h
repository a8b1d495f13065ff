// Small numeric helpers shared by the workloads: exact percentiles over
// recorded samples and the result object every run prints last.

#ifndef XARBENCH_STATS_H_
#define XARBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace xarbench {

/// Exact q-quantile (linear interpolation between closest ranks), 0 when
/// empty. Takes a copy so callers keep their sample order.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

/// Peak resident set size of this process, in MB (getrusage).
double PeakRssMb();

/// CPU time of every thread of this process, in seconds. Time the
/// hypervisor steals from the VM is not in it.
double ProcessCpuS();

/// What one run reports: operation counts, whether every output check
/// passed, and its metrics in print order.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;  ///< first few, for stderr
  std::size_t check_failure_count = 0;
  std::size_t checks_run = 0;  ///< output checks made, failed ones included
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  /// In a traced run: the end-to-end metrics as measured under tracing,
  /// printed to stderr so the tracing overhead can be read off.
  std::vector<Metric> traced_end_to_end;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

}  // namespace xarbench

#endif  // XARBENCH_STATS_H_
