// Output checks that do not trust the program: a reference Dijkstra written
// here over RoadGraph::OutEdges, a seat ledger tallied by the client from
// its own successful responses, the paper's booking guarantees, kinetic
// via-list feasibility and SEARCH row invariants. Every check appends to a
// CheckLog; a run with any failure reports "correct": false.
//
// Each check is a pure function of copied program outputs, so the
// self-test (selftest.cc) can feed it a corrupted copy and see it fire.

#ifndef XARBENCH_CHECKS_H_
#define XARBENCH_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/road_graph.h"
#include "serve/frame.h"
#include "xar/ride.h"

namespace xarbench {

class CheckLog {
 public:
  void Fail(const std::string& what);
  void Pass() { ++checked_; }
  bool ok() const { return failures_ == 0; }
  std::size_t failures() const { return failures_; }
  std::size_t checked() const { return checked_; }
  /// The first few failure messages (the rest are only counted).
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::size_t checked_ = 0;
  std::size_t failures_ = 0;
  std::vector<std::string> messages_;
};

/// Textbook Dijkstra by drivable arc length, independent of the program's
/// routing backends.
class ReferenceDijkstra {
 public:
  explicit ReferenceDijkstra(const xar::RoadGraph& graph) : graph_(&graph) {}
  /// Shortest drivable distance in meters; +inf when unreachable.
  double Shortest(xar::NodeId source, xar::NodeId target);

 private:
  const xar::RoadGraph* graph_;
  std::vector<double> dist_;
  std::vector<std::uint32_t> seen_;  ///< generation stamp per node
  std::uint32_t generation_ = 0;
};

/// The route is a chain of drivable arcs from source to destination whose
/// re-summed length equals route_cum_dist_m.back(); with `exact_detour`,
/// route length minus the reference shortest(source, destination) equals
/// detour_used_m.
void CheckRoute(const xar::RoadGraph& graph, const xar::Ride& ride,
                bool exact_detour, ReferenceDijkstra* reference,
                CheckLog* log);

/// seats_total - seats_available equals the seats the client holds live on
/// this ride (booked minus cancelled minus no-shows).
void CheckSeatLedger(const xar::Ride& ride, int live_seats, CheckLog* log);

/// The paper's guarantees on one booking: actual detour within the
/// estimate plus 4 epsilon, and at most four shortest-path computations.
void CheckBookingBounds(const xar::BookingRecord& booking, double epsilon_m,
                        CheckLog* log);

/// Kinetic via list: each rider's pickup precedes their drop-off, and the
/// onboard count never exceeds seats_total. `seats_of` gives each
/// request's seat count (absent = 1).
void CheckKineticVias(const xar::Ride& ride,
                      const std::unordered_map<std::uint32_t, int>& seats_of,
                      CheckLog* log);

/// SEARCH rows: every walk within the limit, sorted by walk, at most top_k.
void CheckSearchRows(const std::vector<xar::serve::MatchRow>& rows,
                     double walk_limit_m, std::size_t top_k, CheckLog* log);

/// A wire SEARCH answer equals the in-process SearchTopK answer row by row.
void CheckRowsMatch(const std::vector<xar::serve::MatchRow>& wire,
                    const std::vector<xar::RideMatch>& local, CheckLog* log);

/// Seat ledger: the client's own tally of live seats per ride, fed from
/// successful bookings, cancels and no-shows.
class SeatLedger {
 public:
  void Booked(xar::RideId ride, xar::RequestId request, int seats);
  /// A successful cancel or no-show of `request`.
  void Released(xar::RideId ride, xar::RequestId request);
  int LiveSeats(xar::RideId ride) const;
  int SeatsOf(xar::RequestId request) const;
  const std::unordered_map<std::uint32_t, int>& seats_by_request() const {
    return seats_;
  }

 private:
  std::unordered_map<std::uint32_t, int> live_;   ///< ride -> seats
  std::unordered_map<std::uint32_t, int> seats_;  ///< request -> seats
};

}  // namespace xarbench

#endif  // XARBENCH_CHECKS_H_
