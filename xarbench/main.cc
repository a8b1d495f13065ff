// xarbench: one repeatable benchmark for the XAR ride-sharing system.
//
//   xarbench --workload serve_lookbook|city_rush|booking_churn
//            --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Prints each metric by name with its unit, then, as the last line of
// standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// same workload runs with spans at every layer boundary and the metrics
// are the per-layer ones derived from them (spans go to --trace-out).
// A run with a failed operation or a failed check reports "correct": false
// and exits with code 1.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: xarbench --workload serve_lookbook|city_rush|"
               "booking_churn --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xarbench;
  RunConfig config;
  config.process_start_ns = NowNs();
  std::string workload, trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::atof(value);
    } else if (key == "--trace") {
      config.trace = std::atoi(value) != 0;
    } else if (key == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !(config.seconds > 0)) return Usage();
  Tracer::Enable(config.trace);

  RunResult result;
  if (workload == "serve_lookbook") {
    result = RunServeLookbook(config);
  } else if (workload == "city_rush") {
    result = RunCityRush(config);
  } else if (workload == "booking_churn") {
    result = RunBookingChurn(config);
  } else {
    return Usage();
  }
  Tracer::Enable(false);
  // A failed operation is a wrong output too, whatever the checks found.
  if (result.failed > 0) result.correct = false;
  if (config.trace && !trace_out.empty() && !Tracer::WriteTrace(trace_out)) {
    std::fprintf(stderr, "cannot write trace to %s\n", trace_out.c_str());
    return 1;
  }

  std::fprintf(stderr, "output checks: %zu run, %zu failed\n",
               result.checks_run, result.check_failure_count);
  for (const std::string& m : result.check_failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", m.c_str());
  }
  if (result.check_failure_count > result.check_failures.size()) {
    std::fprintf(stderr, "... %zu check failures in all\n",
                 result.check_failure_count);
  }
  for (const RunResult::Metric& m : result.traced_end_to_end) {
    std::fprintf(stderr, "under tracing: %s %.4f %s\n", m.name.c_str(),
                 m.value, m.unit.c_str());
  }
  std::printf("%s seed=%llu seconds=%g trace=%d: attempted=%llu failed=%llu "
              "correct=%s\n",
              workload.c_str(), static_cast<unsigned long long>(config.seed),
              config.seconds, config.trace ? 1 : 0,
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.correct ? "true" : "false");
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const RunResult::Metric& m = result.metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("  %-34s %16.4f %s\n", m.name.c_str(), value, m.unit.c_str());
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return result.correct ? 0 : 1;
}
