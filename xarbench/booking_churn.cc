// booking_churn: three threads drive CreateRide, SearchTopK (a look),
// SearchAndBook and CancelBooking on a 3-shard system with kinetic booking
// off (the paper's splice path), so writes run beside writes on shared
// shard locks. The threads move through virtual time in lockstep: the
// time-ordered stream is cut into batches, the ops of a batch are dealt
// round-robin to the threads, and a barrier closes every batch with one
// AdvanceTime. Without the lockstep a fast search thread would run ahead
// of the creating thread in virtual time and the work done would depend on
// thread speed. Half-way through each round one live refresh rebuilds the
// discretization while the threads keep booking.

#include <barrier>
#include <string>
#include <thread>
#include <unordered_set>

#include "workloads.h"
#include "world.h"

namespace xarbench {

namespace {

using xar::RequestId;
using xar::Result;
using xar::Ride;
using xar::RideId;
using xar::Status;

constexpr std::size_t kThreads = 3;
constexpr std::size_t kShards = 3;
constexpr std::size_t kPreprocessThreads = 3;
constexpr std::size_t kTrips = 15000;
constexpr std::size_t kBatch = 48;
constexpr std::size_t kTopK = 8;
constexpr double kWindowS = 900.0;
/// Share of bookings the rider cancels at the end of the same batch.
constexpr std::uint64_t kCancelPercent = 10;

enum class OpKind : std::uint8_t { kCreate, kLook, kBook };

struct Op {
  OpKind kind;
  std::size_t trip;
};

/// One thread's tallies for a round (merged after the round).
struct ThreadState {
  std::vector<double> create_us, search_us, book_us;
  std::vector<xar::BookingRecord> bookings;
  std::vector<xar::BookingRecord> to_cancel;  ///< cancelled at batch end
  SeatLedger ledger;
  std::unordered_set<std::uint32_t> released_rides;
  std::uint64_t ops = 0;
  std::uint64_t looks = 0;
  std::uint64_t books = 0;
  std::uint64_t unexpected = 0;
  std::string first_unexpected;

  void Note(const Status& status) {
    if (ExpectedStatus(status)) return;
    if (unexpected++ == 0) first_unexpected = status.ToString();
  }
};

std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void RunOp(xar::ConcurrentXarSystem& system,
           const std::vector<xar::TaxiTrip>& trips, const Op& op,
           std::uint64_t seed, ThreadState* st) {
  const xar::TaxiTrip& trip = trips[op.trip];
  ++st->ops;
  const std::int64_t t0 = NowNs();
  switch (op.kind) {
    case OpKind::kCreate: {
      ScopedSpan span("xar.CreateRide");
      Result<RideId> ride = system.CreateRide(OfferOf(trip));
      st->create_us.push_back((NowNs() - t0) / 1e3);
      if (!ride.ok()) st->Note(ride.status());
      break;
    }
    case OpKind::kLook: {
      ScopedSpan span("xar.SearchTopK", trip.id.value());
      std::vector<xar::RideMatch> rows =
          system.SearchTopK(RequestOf(trip, kWindowS), kTopK);
      st->search_us.push_back((NowNs() - t0) / 1e3);
      ++st->looks;
      break;
    }
    case OpKind::kBook: {
      ScopedSpan span("xar.SearchAndBook", trip.id.value());
      Result<xar::BookingRecord> booked =
          system.SearchAndBook(RequestOf(trip, kWindowS));
      st->book_us.push_back((NowNs() - t0) / 1e3);
      ++st->books;
      if (!booked.ok()) {
        st->Note(booked.status());
        break;
      }
      st->bookings.push_back(*booked);
      st->ledger.Booked(booked->ride, booked->request, booked->seats);
      if (Mix64(seed ^ booked->request.value()) % 100 < kCancelPercent) {
        st->to_cancel.push_back(*booked);
      }
      break;
    }
  }
}

void CancelPending(xar::ConcurrentXarSystem& system, ThreadState* st) {
  for (const xar::BookingRecord& b : st->to_cancel) {
    ++st->ops;
    ScopedSpan span("xar.CancelBooking", b.request.value());
    Status status = system.CancelBooking(b.ride, b.request);
    if (status.ok()) {
      st->ledger.Released(b.ride, b.request);
      st->released_rides.insert(b.ride.value());
    } else {
      st->Note(status);
    }
  }
  st->to_cancel.clear();
}

}  // namespace

RunResult RunBookingChurn(const RunConfig& config) {
  RunResult result;
  LayerInputs layers;
  World world = BuildWorld(28, 28, kPreprocessThreads, config.trace);
  const std::vector<xar::TaxiTrip> trips =
      MakeTrips(world, kTrips, config.seed);
  // Every third trip is a driver's offer; the other riders alternate
  // between a look (SearchTopK) and a booking (SearchAndBook).
  std::vector<Op> stream;
  stream.reserve(trips.size());
  for (std::size_t i = 0; i < trips.size(); ++i) {
    const OpKind kind = i % 3 == 0   ? OpKind::kCreate
                        : i % 3 == 1 ? OpKind::kLook
                                     : OpKind::kBook;
    stream.push_back({kind, i});
  }
  const std::size_t batches = (stream.size() + kBatch - 1) / kBatch;
  const double epsilon_m = world.region->epsilon();
  const double setup_s = SecondsSince(config.process_start_ns);

  std::vector<double> create_us, search_us, book_us, refresh_ms;
  CheckLog checks;
  double cpu_s = 0.0;
  std::uint64_t ops = 0;
  std::size_t rounds = 0;
  std::uint64_t booked_total = 0;
  const std::int64_t run_start = NowNs();
  do {
    xar::XarOptions options = world.options;
    options.kinetic_booking = false;
    xar::ConcurrentXarSystem system(world.graph, *world.spatial,
                                    *world.region, *world.oracle, options,
                                    kShards);
    std::vector<ThreadState> states(kThreads);
    std::thread refresher;
    xar::RefreshStats refresh_stats;
    double refresh_wall_ms = 0.0;
    std::size_t batch = 0;
    auto on_batch_end = [&]() noexcept {
      const std::size_t last = std::min(stream.size(), (batch + 1) * kBatch);
      {
        ScopedSpan span("xar.AdvanceTime");
        system.AdvanceTime(trips[stream[last - 1].trip].pickup_time_s);
      }
      if (batch == batches / 2) {
        refresher = std::thread([&] {
          ScopedSpan span("xar.RefreshDiscretization");
          const std::int64_t r0 = NowNs();
          refresh_stats = system.RefreshDiscretization();
          refresh_wall_ms = (NowNs() - r0) / 1e6;
        });
      }
      ++batch;
    };
    std::barrier sync(static_cast<std::ptrdiff_t>(kThreads), on_batch_end);
    auto worker = [&](std::size_t t) {
      ThreadState& st = states[t];
      for (std::size_t b = 0; b < batches; ++b) {
        const std::size_t end = std::min(stream.size(), (b + 1) * kBatch);
        for (std::size_t i = b * kBatch + t; i < end; i += kThreads) {
          RunOp(system, trips, stream[i], config.seed, &st);
        }
        CancelPending(system, &st);
        sync.arrive_and_wait();
      }
    };

    const double cpu_start = ProcessCpuS();
    std::vector<std::thread> threads;
    for (std::size_t t = 1; t < kThreads; ++t) threads.emplace_back(worker, t);
    worker(0);
    for (std::thread& th : threads) th.join();
    refresher.join();
    cpu_s += ProcessCpuS() - cpu_start;
    refresh_ms.push_back(refresh_wall_ms);
    layers.matrix_ms.push_back(refresh_stats.last_matrix_ms);
    layers.rides_rehomed.push_back(
        static_cast<double>(refresh_stats.last_rides_rehomed));

    // Merge the threads' tallies and check every output of the round.
    ReferenceDijkstra reference(world.graph);
    std::unordered_set<std::uint32_t> released;
    std::uint64_t round_booked = 0;
    for (ThreadState& st : states) {
      create_us.insert(create_us.end(), st.create_us.begin(),
                       st.create_us.end());
      search_us.insert(search_us.end(), st.search_us.begin(),
                       st.search_us.end());
      book_us.insert(book_us.end(), st.book_us.begin(), st.book_us.end());
      ops += st.ops;
      result.attempted += st.ops;
      result.failed += st.unexpected;
      if (st.unexpected > 0) {
        result.check_failures.push_back("unexpected status: " +
                                        st.first_unexpected);
      }
      layers.plain_searches += st.looks;
      layers.search_and_book_calls += st.books;
      round_booked += st.bookings.size();
      released.insert(st.released_rides.begin(), st.released_rides.end());
      for (const xar::BookingRecord& b : st.bookings) {
        CheckBookingBounds(b, epsilon_m, &checks);
      }
    }
    booked_total += round_booked;
    for (std::uint32_t id = 0; id < system.NumRides(); ++id) {
      Result<Ride> ride = system.GetRide(RideId(id));
      if (!ride.ok()) {
        checks.Fail("ride " + std::to_string(id) + " missing");
        continue;
      }
      int live = 0;
      for (const ThreadState& st : states) live += st.ledger.LiveSeats(ride->id);
      CheckSeatLedger(*ride, live, &checks);
      CheckRoute(world.graph, *ride,
                 /*exact_detour=*/released.count(id) == 0, &reference, &checks);
    }
    if (system.NumRides() == 0) checks.Fail("round created no ride to check");
    layers.AddSystem(system);
    ++rounds;
  } while (SecondsSince(run_start) < config.seconds);
  MergeChecks(checks, &result);

  result.Add("setup_s", setup_s, "s");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  result.Add("search_p50_us", Percentile(search_us, 0.50), "us");
  result.Add("book_p50_us", Percentile(book_us, 0.50), "us");
  // Per CPU second: whole-run wall rates moved 2x with hypervisor steal.
  result.Add("ops_per_s", static_cast<double>(ops) / cpu_s, "ops/s");
  result.Add("create_p50_us", Percentile(create_us, 0.50), "us");
  result.Add("refresh_ms", Median(refresh_ms), "ms");
  result.Add("riders_booked",
             static_cast<double>(booked_total) / static_cast<double>(rounds),
             "count");

  if (config.trace) {
    layers.search_p99_us = Percentile(search_us, 0.99);
    layers.book_p99_us = Percentile(book_us, 0.99);
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
