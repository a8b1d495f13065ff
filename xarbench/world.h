// The benchmark's substrate: one synthetic city, its discretization, a
// contraction-hierarchy oracle, seeded trip streams, and the tracing
// decorator over the public DistanceOracle interface.

#ifndef XARBENCH_WORLD_H_
#define XARBENCH_WORLD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "discretize/region_index.h"
#include "graph/oracle.h"
#include "graph/road_graph.h"
#include "graph/spatial_index.h"
#include "workload/taxi_trip.h"
#include "xar/options.h"
#include "xar/ride.h"

namespace xarbench {

/// DistanceOracle decorator that opens one span per call (graph layer) and
/// forwards everything else, counters included, to the wrapped oracle.
class TracingOracle final : public xar::DistanceOracle {
 public:
  explicit TracingOracle(xar::DistanceOracle* inner) : inner_(inner) {}

  double DriveDistance(xar::NodeId from, xar::NodeId to) override;
  double DriveTime(xar::NodeId from, xar::NodeId to) override;
  double WalkDistance(xar::NodeId from, xar::NodeId to) override;
  xar::Path DriveRoute(xar::NodeId from, xar::NodeId to) override;
  std::vector<double> DriveDistancesToMany(
      xar::NodeId from, const std::vector<xar::NodeId>& targets) override;
  std::vector<double> DriveDistanceMatrix(
      const std::vector<xar::NodeId>& sources,
      const std::vector<xar::NodeId>& targets) override;
  void Prewarm() override;

  std::size_t computation_count() const override {
    return inner_->computation_count();
  }
  std::size_t cache_hit_count() const override {
    return inner_->cache_hit_count();
  }
  std::size_t settled_count() const override {
    return inner_->settled_count();
  }
  const char* backend_name() const override { return inner_->backend_name(); }
  const char* cache_policy_name() const override {
    return inner_->cache_policy_name();
  }
  xar::OracleCacheCounters cache_counters() const override {
    return inner_->cache_counters();
  }
  const xar::RoutingBackend* routing_backend() const override {
    return inner_->routing_backend();
  }
  xar::RoutingBackend* mutable_routing_backend() override {
    return inner_->mutable_routing_backend();
  }

 private:
  xar::DistanceOracle* inner_;
};

struct World {
  xar::RoadGraph graph;
  std::unique_ptr<xar::SpatialNodeIndex> spatial;
  std::unique_ptr<xar::RegionIndex> region;
  std::unique_ptr<xar::GraphOracle> base_oracle;
  /// What the systems are built on: the traced decorator in trace mode,
  /// otherwise base_oracle itself.
  std::unique_ptr<TracingOracle> traced_oracle;
  xar::DistanceOracle* oracle = nullptr;
  xar::XarOptions options;
  double discretize_build_s = 0.0;
};

/// Builds the city (fixed layout), prewarms CH and discretizes with the
/// landmark matrix batched on CH. `preprocess_threads` caps CH builds.
World BuildWorld(std::size_t rows, std::size_t cols,
                 std::size_t preprocess_threads, bool traced);

/// `count` trips over the world's bounds, time-sorted, deterministic in
/// `seed`.
std::vector<xar::TaxiTrip> MakeTrips(const World& world, std::size_t count,
                                     std::uint64_t seed);

xar::RideOffer OfferOf(const xar::TaxiTrip& trip);
xar::RideRequest RequestOf(const xar::TaxiTrip& trip, double window_s);

}  // namespace xarbench

#endif  // XARBENCH_WORLD_H_
