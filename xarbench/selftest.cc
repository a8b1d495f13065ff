// Self-test of the benchmark's output checks: each check first passes on a
// real program output, then is fed a corrupted copy of it and must fire.
// Exits non-zero if any check stays silent on a corruption (or fires on
// the clean input).
//
//   python3 xarbench/run.py --selftest

#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "world.h"
#include "xar/concurrent_xar.h"

namespace xarbench {
namespace {

int failures = 0;

/// Runs `check` on a fresh log; it must fire exactly when `expect_fire`.
void Expect(const std::string& name, bool expect_fire,
            const std::function<void(CheckLog*)>& check) {
  CheckLog log;
  check(&log);
  const bool fired = !log.ok();
  const bool good = fired == expect_fire;
  if (!good) ++failures;
  std::printf("%-4s %-52s %s\n", good ? "ok" : "FAIL", name.c_str(),
              fired ? (log.messages().empty() ? "fired"
                                              : log.messages()[0].c_str())
                    : "silent");
}

std::vector<xar::serve::MatchRow> RowsOf(
    const std::vector<xar::RideMatch>& matches) {
  std::vector<xar::serve::MatchRow> rows;
  for (const xar::RideMatch& m : matches) {
    rows.push_back({m.ride.value(), m.TotalWalkM(), m.eta_source_s,
                    m.detour_estimate_m});
  }
  return rows;
}

/// A small booked system: rides from every third trip, bookings from the
/// rest. Returns a ride with at least one rider, its bookings and ledger.
struct Fixture {
  World world = BuildWorld(12, 12, 2, false);
  std::unique_ptr<xar::ConcurrentXarSystem> system;
  SeatLedger ledger;
  std::vector<xar::BookingRecord> bookings;
  std::vector<xar::TaxiTrip> requests;

  explicit Fixture(bool kinetic) {
    world.options.kinetic_booking = kinetic;
    system = std::make_unique<xar::ConcurrentXarSystem>(
        world.graph, *world.spatial, *world.region, *world.oracle,
        world.options, 2);
    const std::vector<xar::TaxiTrip> trips = MakeTrips(world, 900, 5);
    for (std::size_t i = 0; i < trips.size(); ++i) {
      if (i % 3 == 0) {
        (void)system->CreateRide(OfferOf(trips[i]));
      } else {
        requests.push_back(trips[i]);
      }
    }
    for (const xar::TaxiTrip& t : requests) {
      xar::Result<xar::BookingRecord> b =
          system->SearchAndBook(RequestOf(t, 900.0));
      if (!b.ok()) continue;
      bookings.push_back(*b);
      ledger.Booked(b->ride, b->request, b->seats);
    }
  }

  /// The booked ride with the most via-points.
  xar::Ride BusiestRide() const {
    xar::Ride best;
    for (const xar::BookingRecord& b : bookings) {
      xar::Ride r = *system->GetRide(b.ride);
      if (r.via_points.size() > best.via_points.size()) best = r;
    }
    return best;
  }
};

void TestSpliceChecks() {
  Fixture f(/*kinetic=*/false);
  std::printf("splice fixture: %zu bookings\n", f.bookings.size());
  if (f.bookings.empty()) {
    ++failures;
    std::printf("FAIL fixture booked nobody\n");
    return;
  }
  const xar::Ride ride = f.BusiestRide();
  ReferenceDijkstra ref(f.world.graph);

  Expect("route: clean ride passes", false, [&](CheckLog* log) {
    CheckRoute(f.world.graph, ride, true, &ref, log);
  });
  Expect("route: hop removed from the chain", true, [&](CheckLog* log) {
    xar::Ride bad = ride;
    bad.route.nodes.erase(bad.route.nodes.begin() + 1);
    bad.route_cum_dist_m.pop_back();
    CheckRoute(f.world.graph, bad, false, &ref, log);
  });
  Expect("route: profile length off by 10 m", true, [&](CheckLog* log) {
    xar::Ride bad = ride;
    bad.route_cum_dist_m.back() += 10.0;
    CheckRoute(f.world.graph, bad, false, &ref, log);
  });
  Expect("route: detour_used_m off by 50 m", true, [&](CheckLog* log) {
    xar::Ride bad = ride;
    bad.detour_used_m += 50.0;
    CheckRoute(f.world.graph, bad, true, &ref, log);
  });
  Expect("reference Dijkstra agrees with the program's oracle", false,
         [&](CheckLog* log) {
           for (const xar::BookingRecord& b : f.bookings) {
             const double mine = ref.Shortest(b.pickup_node, b.dropoff_node);
             const double theirs =
                 f.world.oracle->DriveDistance(b.pickup_node, b.dropoff_node);
             if (std::abs(mine - theirs) > 1e-6 * std::max(1.0, theirs)) {
               log->Fail("dijkstra " + std::to_string(mine) + " vs oracle " +
                         std::to_string(theirs));
             }
           }
         });

  Expect("ledger: clean tally passes", false, [&](CheckLog* log) {
    CheckSeatLedger(ride, f.ledger.LiveSeats(ride.id), log);
  });
  Expect("ledger: tally one seat short", true, [&](CheckLog* log) {
    CheckSeatLedger(ride, f.ledger.LiveSeats(ride.id) - 1, log);
  });
  Expect("ledger: system seat count bumped", true, [&](CheckLog* log) {
    xar::Ride bad = ride;
    bad.seats_available -= 1;
    CheckSeatLedger(bad, f.ledger.LiveSeats(ride.id), log);
  });

  const double eps = f.world.region->epsilon();
  Expect("bounds: every real booking passes", false, [&](CheckLog* log) {
    for (const xar::BookingRecord& b : f.bookings) {
      CheckBookingBounds(b, eps, log);
    }
  });
  Expect("bounds: actual detour beyond estimate + 4 eps", true,
         [&](CheckLog* log) {
           xar::BookingRecord bad = f.bookings[0];
           bad.actual_detour_m = bad.estimated_detour_m + 4.0 * eps + 1.0;
           CheckBookingBounds(bad, eps, log);
         });
  Expect("bounds: five shortest-path computations", true, [&](CheckLog* log) {
    xar::BookingRecord bad = f.bookings[0];
    bad.shortest_path_computations = 5;
    CheckBookingBounds(bad, eps, log);
  });

  // SEARCH rows from a real top-k search on the booked system.
  std::vector<xar::RideMatch> matches;
  xar::RideRequest probe;
  for (const xar::TaxiTrip& t : f.requests) {
    probe = RequestOf(t, 900.0);
    matches = f.system->SearchTopK(probe, 8);
    if (matches.size() >= 3) break;
  }
  const double walk = f.world.options.default_walk_limit_m;
  Expect("rows: real SearchTopK rows pass", false, [&](CheckLog* log) {
    CheckSearchRows(RowsOf(matches), walk, 8, log);
  });
  Expect("rows: walk beyond the limit", true, [&](CheckLog* log) {
    auto rows = RowsOf(matches);
    rows.back().walk_m = walk + 1.0;
    CheckSearchRows(rows, walk, 8, log);
  });
  Expect("rows: not sorted by walk", true, [&](CheckLog* log) {
    auto rows = RowsOf(matches);
    std::swap(rows.front(), rows.back());
    rows.front().walk_m = rows.back().walk_m + 1.0;
    CheckSearchRows(rows, walk, 8, log);
  });
  Expect("rows: more rows than top-k", true, [&](CheckLog* log) {
    CheckSearchRows(RowsOf(matches), walk, matches.size() - 1, log);
  });
  Expect("re-check: wire equals in-process", false, [&](CheckLog* log) {
    CheckRowsMatch(RowsOf(matches), f.system->SearchTopK(probe, 8), log);
  });
  Expect("re-check: one ETA differs", true, [&](CheckLog* log) {
    auto rows = RowsOf(matches);
    rows[1].eta_s += 1.0;
    CheckRowsMatch(rows, matches, log);
  });
  Expect("re-check: a row missing", true, [&](CheckLog* log) {
    auto rows = RowsOf(matches);
    rows.pop_back();
    CheckRowsMatch(rows, matches, log);
  });
}

void TestKineticChecks() {
  Fixture f(/*kinetic=*/true);
  std::printf("kinetic fixture: %zu bookings\n", f.bookings.size());
  const xar::Ride ride = f.BusiestRide();
  if (ride.via_points.size() < 4) {
    ++failures;
    std::printf("FAIL kinetic fixture booked no ride\n");
    return;
  }
  ReferenceDijkstra ref(f.world.graph);
  const auto& seats = f.ledger.seats_by_request();
  Expect("kinetic: clean via list passes", false,
         [&](CheckLog* log) { CheckKineticVias(ride, seats, log); });
  Expect("kinetic: clean route and exact detour pass", false,
         [&](CheckLog* log) {
           CheckRoute(f.world.graph, ride, true, &ref, log);
         });
  Expect("kinetic: drop-off moved before pickup", true, [&](CheckLog* log) {
    xar::Ride bad = ride;
    for (std::size_t i = 0; i < bad.via_points.size(); ++i) {
      if (bad.via_points[i].is_pickup) {
        bad.via_points[i].is_pickup = false;
        break;
      }
    }
    CheckKineticVias(bad, seats, log);
  });
  Expect("kinetic: more riders aboard than seats", true, [&](CheckLog* log) {
    xar::Ride bad = ride;
    bad.seats_total = 0;
    CheckKineticVias(bad, seats, log);
  });
}

}  // namespace
}  // namespace xarbench

int main() {
  xarbench::TestSpliceChecks();
  xarbench::TestKineticChecks();
  std::printf("%s: %d self-test failure(s)\n",
              xarbench::failures == 0 ? "PASS" : "FAIL", xarbench::failures);
  return xarbench::failures == 0 ? 0 : 1;
}
