#include <algorithm>

#include "workloads.h"

namespace xarbench {

namespace {

constexpr double kMb = 1024.0 * 1024.0;

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Median duration over all spans whose name is one of `names`.
double MedianOf(const std::vector<Span>& spans,
                std::initializer_list<const char*> names, bool self,
                std::size_t* count = nullptr) {
  std::vector<double> values;
  for (const Span& s : spans) {
    for (const char* n : names) {
      if (std::string_view(s.name) == n) {
        values.push_back(self ? s.SelfUs() : s.DurationUs());
        break;
      }
    }
  }
  if (count != nullptr) *count = values.size();
  return Median(values);
}

}  // namespace

void LayerInputs::AddSystem(const xar::ConcurrentXarSystem& system) {
  const xar::RetryStats r = system.retry_stats();
  retry.booked_first_try += r.booked_first_try;
  retry.booked_after_research += r.booked_after_research;
  retry.stale_rejections += r.stale_rejections;
  retry.unmatched += r.unmatched;
  retry.priced_waves += r.priced_waves;
  retry.priced_candidates += r.priced_candidates;
  retry.priced_dropped += r.priced_dropped;
  const xar::MatchIndexStats m = system.match_stats();
  match += m.counters;
  match_bytes = m.bytes;
  pooling += system.pooling_stats();
  shards = system.num_shards();
}

void AddLayerMetrics(const LayerInputs& in, const std::vector<Span>& spans,
                     RunResult* result) {
  const double rounds = static_cast<double>(std::max<std::size_t>(1, in.rounds));
  const double ops = static_cast<double>(in.operations);

  result->Add("tail.search_p99_us", in.search_p99_us, "us");
  result->Add("tail.book_p99_us", in.book_p99_us, "us");
  result->Add("serve.search_server_us", in.search_server_us, "us");
  result->Add("serve.book_server_us", in.book_server_us, "us");
  result->Add("serve.wire_us", in.wire_us, "us");
  result->Add("serve.queue_highwater", in.queue_highwater, "count");
  result->Add("serve.generator_late_us", in.generator_late_us, "us");
  result->Add("serve.knee_rps", in.knee_rps, "req/s");

  result->Add("xar.search_us",
              MedianOf(spans, {"xar.SearchTopK", "xar.Search"}, false), "us");
  result->Add("xar.search_and_book_us",
              MedianOf(spans, {"xar.SearchAndBook"}, false), "us");
  result->Add("xar.book_self_us",
              MedianOf(spans, {"xar.SearchAndBook", "xar.Book"}, true), "us");
  result->Add("xar.create_ride_us", MedianOf(spans, {"xar.CreateRide"}, false),
              "us");
  result->Add("xar.cancel_us", MedianOf(spans, {"xar.CancelBooking"}, false),
              "us");
  result->Add("xar.no_show_us", MedianOf(spans, {"xar.ReportNoShow"}, false),
              "us");
  result->Add("xar.advance_us", MedianOf(spans, {"xar.AdvanceTime"}, false),
              "us");
  result->Add("xar.refresh_self_ms",
              MedianOf(spans, {"xar.RefreshDiscretization"}, true) / 1e3,
              "ms");
  // Index probes made inside SearchAndBook: every shard is probed once per
  // search round, and plain searches are taken out.
  const double book_searches =
      static_cast<double>(in.match.searches) /
          static_cast<double>(std::max<std::size_t>(1, in.shards)) -
      static_cast<double>(in.plain_searches);
  const double sab = static_cast<double>(in.search_and_book_calls);
  result->Add("xar.searches_per_book_call",
              Ratio(std::max(0.0, book_searches), sab), "1/call");
  result->Add("xar.book_rejections_per_request",
              Ratio(static_cast<double>(in.retry.stale_rejections), sab),
              "1/call");
  result->Add("xar.priced_candidates_per_wave",
              Ratio(static_cast<double>(in.retry.priced_candidates),
                    static_cast<double>(in.retry.priced_waves)),
              "1/wave");

  result->Add("match.candidates_per_search",
              Ratio(static_cast<double>(in.match.candidates),
                    static_cast<double>(in.match.searches)),
              "1/search");
  result->Add("match.empty_search_ratio",
              Ratio(static_cast<double>(in.match.empty_searches),
                    static_cast<double>(in.match.searches)),
              "ratio");
  result->Add("match.index_mb", static_cast<double>(in.match_bytes) / kMb,
              "MB");

  std::size_t route_calls = 0, p2p_calls = 0, m2m_calls = 0;
  const double route_us =
      MedianOf(spans, {"graph.DriveRoute"}, false, &route_calls);
  const double p2p_us = MedianOf(
      spans, {"graph.DriveDistance", "graph.DriveTime", "graph.WalkDistance"},
      false, &p2p_calls);
  const double m2m_us = MedianOf(spans, {"graph.ManyToMany"}, false, &m2m_calls);
  result->Add("graph.route_calls", Ratio(route_calls, ops), "1/op");
  result->Add("graph.route_us", route_us, "us");
  result->Add("graph.p2p_calls", Ratio(p2p_calls, ops), "1/op");
  result->Add("graph.p2p_us", p2p_us, "us");
  result->Add("graph.m2m_calls", Ratio(m2m_calls, ops), "1/op");
  result->Add("graph.m2m_us", m2m_us, "us");
  result->Add("graph.cache_hit_ratio",
              Ratio(static_cast<double>(in.oracle.cache_hits),
                    static_cast<double>(in.oracle.cache_hits +
                                        in.oracle.computations)),
              "ratio");
  result->Add("graph.settled_per_computation",
              Ratio(static_cast<double>(in.oracle.settled),
                    static_cast<double>(in.oracle.computations)),
              "nodes");
  result->Add("graph.prewarm_ms",
              MedianOf(spans, {"graph.Prewarm"}, false) / 1e3, "ms");

  result->Add("discretize.build_s", in.discretize_build_s, "s");
  result->Add("discretize.matrix_ms", Median(in.matrix_ms), "ms");
  result->Add("discretize.rides_rehomed", Median(in.rides_rehomed), "count");
  result->Add("discretize.region_mb",
              static_cast<double>(in.region_bytes) / kMb, "MB");

  result->Add("schedule.insertions",
              static_cast<double>(in.pooling.insertions) / rounds, "count");
  result->Add("schedule.rejections",
              static_cast<double>(in.pooling.rejections) / rounds, "count");
  result->Add("schedule.advanced_stops",
              static_cast<double>(in.pooling.advanced_stops) / rounds,
              "count");
  result->Add("schedule.retained_orderings",
              static_cast<double>(in.pooling.retained_orderings) / rounds,
              "count");
  result->Add("schedule.max_pooled_riders",
              static_cast<double>(in.pooling.max_pooled_riders), "count");

  result->Add("sim.self_s", MedianOf(spans, {"sim.Run"}, true) / 1e6, "s");
  result->Add("sim.edge_traversals",
              static_cast<double>(in.edge_traversals) / rounds, "count");
}

void MergeChecks(const CheckLog& log, RunResult* result) {
  if (!log.ok()) result->correct = false;
  result->checks_run += log.checked();
  result->check_failure_count += log.failures();
  for (const std::string& m : log.messages()) {
    if (result->check_failures.size() < 20) result->check_failures.push_back(m);
  }
}

}  // namespace xarbench
