// city_rush: the discrete-event simulator over a 2-shard system for a
// morning rush. Kinetic booking is on, riders cancel and no-show, and a
// live refresh every 900 simulated seconds rebuilds CH on the congested map
// and re-discretizes. One round is one full scenario on a fresh system; a
// run repeats whole rounds until its time is up, and every round must
// reproduce the first one's fingerprint and booking count exactly.

#include <memory>
#include <string>

#include "sim/event_sim.h"
#include "workloads.h"
#include "world.h"

namespace xarbench {

namespace {

using xar::GraphDelta;
using xar::RefreshStats;
using xar::RequestId;
using xar::Result;
using xar::Ride;
using xar::RideId;
using xar::Status;

constexpr std::size_t kShards = 2;
constexpr std::size_t kPreprocessThreads = 3;
constexpr std::size_t kDailyTrips = 48000;
constexpr double kRushBeginS = 7.0 * 3600;
constexpr double kRushEndS = 9.0 * 3600;

/// What the decorator measured across all rounds.
struct Samples {
  std::vector<double> search_us, book_us, create_us, refresh_ms;
  std::uint64_t searches = 0;
  std::uint64_t search_and_book = 0;
  std::uint64_t unexpected = 0;  ///< statuses no correct run produces
  std::string first_unexpected;
};

/// SimTarget decorator: times every call the simulator makes, opens a span
/// per call in trace mode, keeps the client-side seat ledger, and swaps a
/// tracing decorator in for each oracle a refresh installs.
class TimedSimTarget final : public xar::SimTarget {
 public:
  TimedSimTarget(xar::SimTarget& inner, const xar::RoadGraph& graph,
                 Samples* samples, LayerInputs* layers)
      : inner_(inner), graph_(&graph), samples_(samples), layers_(layers) {}

  std::vector<xar::RideMatch> Search(
      const xar::RideRequest& request) const override {
    ScopedSpan span("xar.Search", request.id.value());
    const std::int64_t t0 = NowNs();
    std::vector<xar::RideMatch> matches = inner_.Search(request);
    samples_->search_us.push_back((NowNs() - t0) / 1e3);
    ++samples_->searches;
    return matches;
  }

  Result<xar::BookingRecord> SearchAndBook(
      const xar::RideRequest& request) override {
    ScopedSpan span("xar.SearchAndBook", request.id.value());
    const std::int64_t t0 = NowNs();
    Result<xar::BookingRecord> booked = inner_.SearchAndBook(request);
    samples_->book_us.push_back((NowNs() - t0) / 1e3);
    ++samples_->search_and_book;
    if (booked.ok()) {
      ledger_.Booked(booked->ride, booked->request, booked->seats);
    } else {
      Note(booked.status());
    }
    return booked;
  }

  Result<RideId> CreateRide(const xar::RideOffer& offer) override {
    ScopedSpan span("xar.CreateRide");
    const std::int64_t t0 = NowNs();
    Result<RideId> ride = inner_.CreateRide(offer);
    samples_->create_us.push_back((NowNs() - t0) / 1e3);
    if (!ride.ok()) Note(ride.status());
    return ride;
  }

  Status CancelBooking(RideId ride, RequestId request) override {
    ScopedSpan span("xar.CancelBooking", request.value());
    Status status = inner_.CancelBooking(ride, request);
    Released(ride, request, status);
    return status;
  }

  Status ReportNoShow(RideId ride, RequestId request) override {
    ScopedSpan span("xar.ReportNoShow", request.value());
    Status status = inner_.ReportNoShow(ride, request);
    Released(ride, request, status);
    return status;
  }

  void AdvanceTime(double now_s) override {
    ScopedSpan span("xar.AdvanceTime");
    inner_.AdvanceTime(now_s);
  }

  RefreshStats RefreshDiscretization(const GraphDelta& delta) override {
    GraphDelta forwarded = delta;
    if (delta.oracle != nullptr) {
      refresh_oracles_.push_back(delta.oracle);
      if (Tracer::enabled()) {
        wrapped_.push_back(std::make_unique<TracingOracle>(delta.oracle));
        forwarded.oracle = wrapped_.back().get();
      }
    }
    ScopedSpan span("xar.RefreshDiscretization");
    const std::int64_t t0 = NowNs();
    RefreshStats stats = inner_.RefreshDiscretization(forwarded);
    samples_->refresh_ms.push_back((NowNs() - t0) / 1e6);
    layers_->matrix_ms.push_back(stats.last_matrix_ms);
    layers_->rides_rehomed.push_back(
        static_cast<double>(stats.last_rides_rehomed));
    if (delta.graph != nullptr) graph_ = delta.graph;
    return stats;
  }

  Result<Ride> GetRide(RideId id) const override {
    ScopedSpan span("xar.GetRide");
    return inner_.GetRide(id);
  }

  std::uint64_t epoch() const override { return inner_.epoch(); }

  const SeatLedger& ledger() const { return ledger_; }
  const xar::RoadGraph& graph() const { return *graph_; }
  /// Oracles installed by refreshes (owned by the simulator).
  const std::vector<xar::DistanceOracle*>& refresh_oracles() const {
    return refresh_oracles_;
  }

 private:
  void Released(RideId ride, RequestId request, const Status& status) {
    if (status.ok()) {
      ledger_.Released(ride, request);
    } else {
      Note(status);
    }
  }

  void Note(const Status& status) {
    if (ExpectedStatus(status)) return;
    if (samples_->unexpected++ == 0) {
      samples_->first_unexpected = status.ToString();
    }
  }

  xar::SimTarget& inner_;
  const xar::RoadGraph* graph_;  ///< the latest graph a refresh installed
  Samples* samples_;
  LayerInputs* layers_;
  SeatLedger ledger_;
  std::vector<xar::DistanceOracle*> refresh_oracles_;
  std::vector<std::unique_ptr<TracingOracle>> wrapped_;
};

}  // namespace

RunResult RunCityRush(const RunConfig& config) {
  RunResult result;
  LayerInputs layers;
  World world = BuildWorld(28, 28, kPreprocessThreads, config.trace);
  world.options.kinetic_booking = true;
  const std::vector<xar::TaxiTrip> trips = xar::FilterByTimeWindow(
      MakeTrips(world, kDailyTrips, config.seed), kRushBeginS, kRushEndS);

  xar::ScenarioConfig scenario;
  scenario.protocol.window_s = 900.0;
  // Every second rider only looks; the unmatched ones drive instead.
  scenario.protocol.look_to_book = 2;
  scenario.events.cancel_probability = 0.05;
  scenario.events.no_show_probability = 0.05;
  scenario.refresh_period_s = 900.0;
  scenario.seed = config.seed;
  const double setup_s = SecondsSince(config.process_start_ns);

  Samples samples;
  CheckLog checks;
  double cpu_s = 0.0;
  std::uint64_t requests = 0;
  std::size_t rounds = 0;
  xar::EventSimResult first;
  const std::int64_t run_start = NowNs();
  do {
    xar::ConcurrentXarSystem system(world.graph, *world.spatial,
                                    *world.region, *world.oracle,
                                    world.options, kShards);
    xar::EventSim sim(world.graph, world.options, scenario);
    std::unique_ptr<xar::SimTarget> inner = xar::MakeSimTarget(system);
    TimedSimTarget target(*inner, world.graph, &samples, &layers);

    const double cpu_start = ProcessCpuS();
    xar::EventSimResult round;
    {
      ScopedSpan span("sim.Run");
      round = sim.Run(target, trips);
    }
    cpu_s += ProcessCpuS() - cpu_start;
    requests += round.requests;
    result.attempted += round.requests + round.cancels_attempted +
                        round.no_shows_attempted + round.refreshes;

    if (rounds == 0) {
      first = round;
    } else if (round.fingerprint != first.fingerprint ||
               round.matched != first.matched) {
      checks.Fail("round " + std::to_string(rounds) +
                  " diverged from round 0 (fingerprint or bookings)");
    }
    if (round.refreshes == 0) checks.Fail("scenario ran no live refresh");

    // Output checks against the final state of this round's system. The
    // drain window retires every ride before Run returns; a finished ride
    // keeps its route, vias and detour, so every ride is checked.
    ReferenceDijkstra reference(target.graph());
    for (std::uint32_t id = 0; id < system.NumRides(); ++id) {
      Result<Ride> ride = system.GetRide(RideId(id));
      if (!ride.ok()) {
        checks.Fail("ride " + std::to_string(id) + " missing");
        continue;
      }
      CheckSeatLedger(*ride, target.ledger().LiveSeats(ride->id), &checks);
      CheckKineticVias(*ride, target.ledger().seats_by_request(), &checks);
      CheckRoute(target.graph(), *ride, /*exact_detour=*/true, &reference,
                 &checks);
    }
    if (system.NumRides() == 0) checks.Fail("round created no ride to check");

    layers.AddSystem(system);
    for (const xar::DistanceOracle* o : target.refresh_oracles()) {
      layers.oracle.AddFrom(*o);
    }
    layers.edge_traversals += round.edge_traversals;
    layers.search_and_book_calls = samples.search_and_book;
    layers.plain_searches = samples.searches;
    ++rounds;
  } while (SecondsSince(run_start) < config.seconds);

  result.failed = samples.unexpected;
  if (samples.unexpected > 0) {
    result.check_failures.push_back("unexpected status: " +
                                    samples.first_unexpected);
  }
  MergeChecks(checks, &result);

  result.Add("setup_s", setup_s, "s");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  result.Add("search_p50_us", Percentile(samples.search_us, 0.50), "us");
  result.Add("book_p50_us", Percentile(samples.book_us, 0.50), "us");
  // Per CPU second: whole-run wall rates moved 2x with hypervisor steal.
  result.Add("ops_per_s", static_cast<double>(requests) / cpu_s, "ops/s");
  result.Add("create_p50_us", Percentile(samples.create_us, 0.50), "us");
  result.Add("refresh_ms", Median(samples.refresh_ms), "ms");
  result.Add("riders_booked", static_cast<double>(first.matched), "count");

  if (config.trace) {
    layers.search_p99_us = Percentile(samples.search_us, 0.99);
    layers.book_p99_us = Percentile(samples.book_us, 0.99);
    layers.rounds = rounds;
    layers.operations = result.attempted;
    layers.oracle.AddFrom(*world.base_oracle);
    layers.discretize_build_s = world.discretize_build_s;
    layers.region_bytes = world.region->MemoryFootprint();
    result.traced_end_to_end = std::move(result.metrics);
    result.metrics.clear();
    AddLayerMetrics(layers, Tracer::Collect(), &result);
  }
  return result;
}

}  // namespace xarbench
