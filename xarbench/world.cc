#include "world.h"

#include <chrono>
#include <ctime>
#include <sys/resource.h>

#include "graph/generator.h"
#include "stats.h"
#include "trace.h"
#include "workload/trip_generator.h"

namespace xarbench {

using xar::NodeId;

double TracingOracle::DriveDistance(NodeId from, NodeId to) {
  ScopedSpan span("graph.DriveDistance");
  return inner_->DriveDistance(from, to);
}

double TracingOracle::DriveTime(NodeId from, NodeId to) {
  ScopedSpan span("graph.DriveTime");
  return inner_->DriveTime(from, to);
}

double TracingOracle::WalkDistance(NodeId from, NodeId to) {
  ScopedSpan span("graph.WalkDistance");
  return inner_->WalkDistance(from, to);
}

xar::Path TracingOracle::DriveRoute(NodeId from, NodeId to) {
  ScopedSpan span("graph.DriveRoute");
  return inner_->DriveRoute(from, to);
}

std::vector<double> TracingOracle::DriveDistancesToMany(
    NodeId from, const std::vector<NodeId>& targets) {
  ScopedSpan span("graph.ManyToMany");
  return inner_->DriveDistancesToMany(from, targets);
}

std::vector<double> TracingOracle::DriveDistanceMatrix(
    const std::vector<NodeId>& sources, const std::vector<NodeId>& targets) {
  ScopedSpan span("graph.ManyToMany");
  return inner_->DriveDistanceMatrix(sources, targets);
}

void TracingOracle::Prewarm() {
  ScopedSpan span("graph.Prewarm");
  inner_->Prewarm();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ProcessCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec / 1e9;
}

World BuildWorld(std::size_t rows, std::size_t cols,
                 std::size_t preprocess_threads, bool traced) {
  World world;
  xar::CityOptions city;
  city.rows = rows;
  city.cols = cols;
  city.seed = 42;
  world.graph = xar::GenerateCity(city);
  world.spatial = std::make_unique<xar::SpatialNodeIndex>(world.graph);

  world.options.preprocess_threads = preprocess_threads;
  world.base_oracle = std::make_unique<xar::GraphOracle>(
      world.graph, /*cache_capacity=*/std::size_t{1} << 16,
      world.options.routing_backend, world.options.BackendOptions(),
      world.options.oracle_cache);
  world.oracle = world.base_oracle.get();
  if (traced) {
    world.traced_oracle = std::make_unique<TracingOracle>(world.oracle);
    world.oracle = world.traced_oracle.get();
  }
  world.oracle->Prewarm();

  xar::DiscretizationOptions disc;
  disc.delta_m = 250.0;  // epsilon = 4 delta = 1 km, the paper's default
  disc.landmarks.num_candidates = 500;
  disc.landmarks.seed = 43;
  const auto t0 = std::chrono::steady_clock::now();
  {
    ScopedSpan span("discretize.Build");
    world.region = std::make_unique<xar::RegionIndex>(xar::RegionIndex::Build(
        world.graph, *world.spatial, disc,
        world.oracle->mutable_routing_backend()));
  }
  world.discretize_build_s = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
  return world;
}

std::vector<xar::TaxiTrip> MakeTrips(const World& world, std::size_t count,
                                     std::uint64_t seed) {
  xar::WorkloadOptions options;
  options.num_trips = count;
  options.seed = seed;
  return xar::GenerateTrips(world.graph.bounds(), options);
}

xar::RideOffer OfferOf(const xar::TaxiTrip& trip) {
  xar::RideOffer offer;
  offer.source = trip.pickup;
  offer.destination = trip.dropoff;
  offer.departure_time_s = trip.pickup_time_s;
  return offer;
}

xar::RideRequest RequestOf(const xar::TaxiTrip& trip, double window_s) {
  xar::RideRequest request;
  request.id = trip.id;
  request.source = trip.pickup;
  request.destination = trip.dropoff;
  request.earliest_departure_s = trip.pickup_time_s;
  request.latest_departure_s = trip.pickup_time_s + window_s;
  return request;
}

}  // namespace xarbench
