#include "checks.h"

#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <queue>
#include <utility>

namespace xarbench {

using xar::NodeId;
using xar::Ride;

namespace {

constexpr std::size_t kKeptMessages = 20;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Float agreement for distances that the program sums in a different
/// order than the reference does.
bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-6 * std::max(1.0, std::fabs(b));
}

std::string RideTag(const Ride& ride) {
  return "ride " + std::to_string(ride.id.value());
}

}  // namespace

void CheckLog::Fail(const std::string& what) {
  ++checked_;
  ++failures_;
  if (messages_.size() < kKeptMessages) messages_.push_back(what);
}

double ReferenceDijkstra::Shortest(NodeId source, NodeId target) {
  const std::size_t n = graph_->NumNodes();
  if (dist_.size() != n) {
    dist_.assign(n, kInf);
    seen_.assign(n, 0);
    generation_ = 0;
  }
  ++generation_;
  auto dist = [&](std::uint32_t v) -> double& {
    if (seen_[v] != generation_) {
      seen_[v] = generation_;
      dist_[v] = kInf;
    }
    return dist_[v];
  };
  using Item = std::pair<double, std::uint32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist(source.value()) = 0.0;
  heap.emplace(0.0, source.value());
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist(v)) continue;
    if (v == target.value()) return d;
    for (const xar::RoadEdge& e : graph_->OutEdges(NodeId(v))) {
      if (!e.drivable) continue;
      const double nd = d + e.length_m;
      double& cur = dist(e.to.value());
      if (nd < cur) {
        cur = nd;
        heap.emplace(nd, e.to.value());
      }
    }
  }
  return kInf;
}

void CheckRoute(const xar::RoadGraph& graph, const Ride& ride,
                bool exact_detour, ReferenceDijkstra* reference,
                CheckLog* log) {
  const std::vector<NodeId>& nodes = ride.route.nodes;
  if (nodes.empty() || nodes.front() != ride.source ||
      nodes.back() != ride.destination) {
    log->Fail(RideTag(ride) + ": route does not run source to destination");
    return;
  }
  if (ride.route_cum_dist_m.size() != nodes.size()) {
    log->Fail(RideTag(ride) + ": distance profile length != route length");
    return;
  }
  double length = 0.0;
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    double best = kInf;
    for (const xar::RoadEdge& e : graph.OutEdges(nodes[i])) {
      if (e.drivable && e.to == nodes[i + 1]) best = std::min(best, e.length_m);
    }
    if (!std::isfinite(best)) {
      log->Fail(RideTag(ride) + ": hop " + std::to_string(i) +
                " is not a drivable arc");
      return;
    }
    length += best;
  }
  if (!Near(length, ride.route_cum_dist_m.back())) {
    log->Fail(RideTag(ride) + ": re-summed length " + std::to_string(length) +
              " != profile " + std::to_string(ride.route_cum_dist_m.back()));
    return;
  }
  if (exact_detour) {
    const double shortest = reference->Shortest(ride.source, ride.destination);
    // The difference of two route-scale sums: compare at route scale.
    if (std::fabs(length - shortest - ride.detour_used_m) >
        1e-6 * std::max(1.0, length)) {
      log->Fail(RideTag(ride) + ": length - shortest = " +
                std::to_string(length - shortest) + " but detour_used_m = " +
                std::to_string(ride.detour_used_m));
      return;
    }
  }
  log->Pass();
}

void CheckSeatLedger(const Ride& ride, int live_seats, CheckLog* log) {
  const int held = ride.seats_total - ride.seats_available;
  if (held != live_seats) {
    log->Fail(RideTag(ride) + ": system holds " + std::to_string(held) +
              " seats, client tallied " + std::to_string(live_seats));
    return;
  }
  log->Pass();
}

void CheckBookingBounds(const xar::BookingRecord& booking, double epsilon_m,
                        CheckLog* log) {
  const std::string tag =
      "booking " + std::to_string(booking.request.value()) + " on ride " +
      std::to_string(booking.ride.value());
  if (booking.actual_detour_m >
      booking.estimated_detour_m + 4.0 * epsilon_m + 1e-6) {
    log->Fail(tag + ": actual detour " +
              std::to_string(booking.actual_detour_m) + " > estimate " +
              std::to_string(booking.estimated_detour_m) + " + 4 eps");
    return;
  }
  if (booking.shortest_path_computations > 4) {
    log->Fail(tag + ": " + std::to_string(booking.shortest_path_computations) +
              " shortest-path computations > 4");
    return;
  }
  log->Pass();
}

void CheckKineticVias(const Ride& ride,
                      const std::unordered_map<std::uint32_t, int>& seats_of,
                      CheckLog* log) {
  std::unordered_map<std::uint32_t, int> state;  // 1 = picked up, 2 = dropped
  int onboard = 0;
  for (const xar::ViaPoint& via : ride.via_points) {
    if (!via.request.valid()) continue;
    const std::uint32_t r = via.request.value();
    auto it = seats_of.find(r);
    const int seats = it == seats_of.end() ? 1 : it->second;
    int& s = state[r];
    if (via.is_pickup) {
      if (s != 0) {
        log->Fail(RideTag(ride) + ": rider " + std::to_string(r) +
                  " picked up twice or after drop-off");
        return;
      }
      s = 1;
      onboard += seats;
      if (onboard > ride.seats_total) {
        log->Fail(RideTag(ride) + ": " + std::to_string(onboard) +
                  " riders aboard > " + std::to_string(ride.seats_total) +
                  " seats");
        return;
      }
    } else {
      if (s != 1) {
        log->Fail(RideTag(ride) + ": rider " + std::to_string(r) +
                  " dropped off before pickup");
        return;
      }
      s = 2;
      onboard -= seats;
    }
  }
  for (const auto& [r, s] : state) {
    if (s != 2) {
      log->Fail(RideTag(ride) + ": rider " + std::to_string(r) +
                " has no drop-off");
      return;
    }
  }
  log->Pass();
}

void CheckSearchRows(const std::vector<xar::serve::MatchRow>& rows,
                     double walk_limit_m, std::size_t top_k, CheckLog* log) {
  if (top_k > 0 && rows.size() > top_k) {
    log->Fail("SEARCH returned " + std::to_string(rows.size()) +
              " rows > top-k " + std::to_string(top_k));
    return;
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    // The limit bounds the rider's total walk, both ends together.
    if (!(rows[i].walk_m >= 0.0) || rows[i].walk_m > walk_limit_m) {
      log->Fail("SEARCH row walk " + std::to_string(rows[i].walk_m) +
                " m outside the walk limit");
      return;
    }
    if (i > 0 && rows[i].walk_m < rows[i - 1].walk_m) {
      log->Fail("SEARCH rows not sorted by walk");
      return;
    }
  }
  log->Pass();
}

void CheckRowsMatch(const std::vector<xar::serve::MatchRow>& wire,
                    const std::vector<xar::RideMatch>& local, CheckLog* log) {
  if (wire.size() != local.size()) {
    log->Fail("wire SEARCH has " + std::to_string(wire.size()) +
              " rows, in-process SearchTopK " + std::to_string(local.size()));
    return;
  }
  for (std::size_t i = 0; i < wire.size(); ++i) {
    const xar::RideMatch& m = local[i];
    if (wire[i].ride_id != m.ride.value() || wire[i].walk_m != m.TotalWalkM() ||
        wire[i].eta_s != m.eta_source_s ||
        wire[i].detour_m != m.detour_estimate_m) {
      log->Fail("wire SEARCH row " + std::to_string(i) +
                " differs from in-process SearchTopK");
      return;
    }
  }
  log->Pass();
}

void SeatLedger::Booked(xar::RideId ride, xar::RequestId request, int seats) {
  live_[ride.value()] += seats;
  seats_[request.value()] = seats;
}

void SeatLedger::Released(xar::RideId ride, xar::RequestId request) {
  live_[ride.value()] -= SeatsOf(request);
}

int SeatLedger::LiveSeats(xar::RideId ride) const {
  auto it = live_.find(ride.value());
  return it == live_.end() ? 0 : it->second;
}

int SeatLedger::SeatsOf(xar::RequestId request) const {
  auto it = seats_.find(request.value());
  return it == seats_.end() ? 1 : it->second;
}

}  // namespace xarbench
