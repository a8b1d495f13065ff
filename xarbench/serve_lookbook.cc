// serve_lookbook: an open loop over loopback sockets. One generator thread
// sends a seeded rider stream at a fixed offered rate to a 2-shard system
// behind a 2-worker XarServeServer. Most riders only SEARCH (top-k 8); one
// in kLookToBook books instead, alternating between a look-then-BOOK of the
// top row and a SEARCH_AND_BOOK. Latency is timed from each request's
// scheduled send, never from the actual one, and the generator drives its
// sockets with the public frame codec and a sub-millisecond ppoll so it
// never sleeps past a due send.
//
// The load runs in kChunks equal chunks. Each chunk is drained and
// followed by a gap: kGapOffers drivers come online (CreateRide, timed for
// create_p50_us) and one wire REFRESH makes a live map update (refresh_ms).
// The gaps spread those samples over the whole run: on a shared host the
// speed of a process drifts over seconds, and one burst at the start or
// end of a run caught only one moment of it (create_p50_us from the setup
// creates alone moved by up to 2x between runs of one seed).
//
// After the load: a fixed sample of SEARCHes re-sent on the quiescent
// system and compared with in-process SearchTopK, and the ledger/route
// checks over every ride. The traced run adds an in-process replay of the
// stream (xar.* spans) and the rate ladder that finds the knee.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <string>
#include <unordered_map>

#include "serve/frame.h"
#include "serve/server.h"
#include "workloads.h"
#include "world.h"

namespace xarbench {

namespace {

using xar::serve::BookingResult;
using xar::serve::Frame;
using xar::serve::FrameDecoder;
using xar::serve::RespStatus;
using xar::serve::SearchPayload;
using xar::serve::SearchResult;
using xar::serve::Verb;

constexpr std::size_t kShards = 2;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kConnections = 2;  ///< at most 8 (OpenLoop::Poll)
constexpr std::size_t kPreprocessThreads = 3;
constexpr std::size_t kTrips = 12000;  ///< every third is a ride offer
constexpr std::size_t kChunks = 16;
constexpr std::size_t kGapOffers = 50;  ///< offers created after each chunk
constexpr std::uint32_t kTopK = 8;
constexpr std::size_t kLookToBook = 10;
constexpr double kNominalRps = 5000.0;
constexpr double kWindowS = 1200.0;
constexpr std::size_t kRecheckSample = 200;
/// The first seconds of the first chunk are sent and checked but not timed:
/// the server's per-connection tables and the allocator warm up.
constexpr std::int64_t kWarmupNs = 2000000000;
// Rate ladder (traced run): a step passes while search p99 stays under the
// limit and the backlog does not grow.
constexpr double kLadderStartRps = 4000.0;
constexpr double kLadderStepRps = 500.0;
constexpr double kLadderMaxRps = 16000.0;
constexpr double kLadderStepS = 0.5;
constexpr double kLadderP99LimitUs = 5000.0;
constexpr std::size_t kBacklogLimit = 512;

enum class Kind : std::uint8_t { kSearch, kLook, kBook, kSearchAndBook, kOther };

struct Pending {
  Kind kind = Kind::kOther;
  std::size_t rider = 0;
  std::size_t conn = 0;
  std::int64_t scheduled_ns = 0;
};

/// Outcome tallies of a load phase. Latencies of requests scheduled in the
/// warm-up are not recorded.
struct PhaseTally {
  std::int64_t start_ns = 0;
  std::int64_t warmup_ns = 0;
  std::vector<double> search_us, book_us;
  std::vector<double> late_us;
  std::uint64_t completed = 0;
  std::uint64_t booked = 0;

  bool Timed(std::int64_t scheduled_ns) const {
    return scheduled_ns - start_ns >= warmup_ns;
  }
};

/// Non-blocking loopback connections driven by one thread: frames are
/// encoded with AppendFrame, decoded with FrameDecoder, and ppoll waits
/// with nanosecond resolution.
class OpenLoop {
 public:
  ~OpenLoop() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }

  bool Connect(std::uint16_t port, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) return false;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0) {
        ::close(fd);
        return false;
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      conns_.emplace_back();
      conns_.back().fd = fd;
    }
    return true;
  }

  std::size_t size() const { return conns_.size(); }
  bool broken() const { return broken_; }

  /// Queues one request frame and writes as much as the socket takes.
  void Send(std::size_t conn, std::uint64_t tag, Verb verb,
            const std::vector<std::uint8_t>& payload) {
    Conn& c = conns_[conn];
    xar::serve::AppendFrame(tag, static_cast<std::uint8_t>(verb), payload,
                            &c.out);
    Flush(c);
  }

  /// Waits at most `timeout_ns` for socket activity, then hands every
  /// complete response frame to `on_frame(conn, frame)`.
  template <typename OnFrame>
  void Poll(std::int64_t timeout_ns, OnFrame&& on_frame) {
    pollfd fds[8];
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i].fd;
      fds[i].events = static_cast<short>(
          POLLIN | (conns_[i].out.size() > conns_[i].sent ? POLLOUT : 0));
      fds[i].revents = 0;
    }
    timespec ts{static_cast<time_t>(timeout_ns / 1000000000),
                static_cast<long>(timeout_ns % 1000000000)};
    const int ready = ::ppoll(fds, conns_.size(), &ts, nullptr);
    if (ready <= 0) return;
    std::uint8_t buf[1 << 16];
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      if (fds[i].revents & POLLOUT) Flush(c);
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      for (;;) {
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          c.decoder.Feed(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          broken_ = true;
        }
        break;
      }
      Frame frame;
      for (;;) {
        const FrameDecoder::Next next = c.decoder.Pop(&frame);
        if (next == FrameDecoder::Next::kFrame) {
          on_frame(i, frame);
        } else {
          if (next == FrameDecoder::Next::kError) broken_ = true;
          break;
        }
      }
    }
  }

 private:
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> out;
    std::size_t sent = 0;
    FrameDecoder decoder;
  };

  void Flush(Conn& c) {
    while (c.sent < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.sent,
                               c.out.size() - c.sent, MSG_NOSIGNAL);
      if (n > 0) {
        c.sent += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      broken_ = true;
      return;
    }
    c.out.clear();
    c.sent = 0;
  }

  std::vector<Conn> conns_;
  bool broken_ = false;
};

SearchPayload PayloadOf(const xar::TaxiTrip& trip, std::uint32_t rider_id) {
  SearchPayload p;
  p.rider_id = rider_id;
  p.source_lat = trip.pickup.lat;
  p.source_lng = trip.pickup.lng;
  p.dest_lat = trip.dropoff.lat;
  p.dest_lng = trip.dropoff.lng;
  p.earliest_departure_s = trip.pickup_time_s;
  p.latest_departure_s = trip.pickup_time_s + kWindowS;
  p.walk_limit_m = -1.0;
  p.top_k = kTopK;
  return p;
}

/// The in-process twin of a wire SEARCH (what the server builds).
xar::RideRequest RequestOfPayload(const SearchPayload& p) {
  xar::RideRequest r;
  r.id = xar::RequestId(p.rider_id);
  r.source = {p.source_lat, p.source_lng};
  r.destination = {p.dest_lat, p.dest_lng};
  r.earliest_departure_s = p.earliest_departure_s;
  r.latest_departure_s = p.latest_departure_s;
  r.walk_limit_m = p.walk_limit_m;
  return r;
}

/// Rider i's behaviour: one in kLookToBook books, alternating the two
/// booking flows.
Kind KindOf(std::size_t rider) {
  if (rider % kLookToBook != kLookToBook - 1) return Kind::kSearch;
  return (rider / kLookToBook) % 2 == 0 ? Kind::kLook : Kind::kSearchAndBook;
}

bool DeclineMessage(const Frame& frame) {
  const std::string msg(frame.payload.begin(), frame.payload.end());
  return msg.rfind("NotFound", 0) == 0 ||
         msg.rfind("FailedPrecondition", 0) == 0 ||
         msg.rfind("ResourceExhausted", 0) == 0;
}

/// Drives the server; owns the pending-tag table and every tally the
/// checks need.
class Generator {
 public:
  Generator(OpenLoop* loop, const std::vector<xar::TaxiTrip>* riders,
            double walk_limit_m, CheckLog* checks, SeatLedger* ledger)
      : loop_(loop),
        riders_(riders),
        walk_limit_m_(walk_limit_m),
        checks_(checks),
        ledger_(ledger) {}

  /// Sends riders [first, first + count) at `rps`, scheduled from now.
  /// Stops early (returns false) once more than `backlog_limit` requests
  /// are outstanding. Waits for every answer before returning.
  bool RunPhase(std::size_t first, std::size_t count, double rps,
                std::size_t backlog_limit, PhaseTally* tally) {
    tally_ = tally;
    const std::int64_t start = NowNs() + 1000000;  // 1 ms head start
    tally->start_ns = start;
    const double interval_ns = 1e9 / rps;
    std::size_t next = 0;
    bool kept_up = true;
    while (next < count && !loop_->broken()) {
      const std::int64_t now = NowNs();
      while (next < count) {
        const std::int64_t due =
            start + static_cast<std::int64_t>(next * interval_ns);
        if (due > now) break;
        if (pending_.size() > backlog_limit) {
          kept_up = false;
          break;
        }
        SendRider(first + next, due);
        ++next;
      }
      if (!kept_up) break;
      const std::int64_t due =
          start + static_cast<std::int64_t>(next * interval_ns);
      // Wake no later than the next due send; a sub-millisecond wait.
      Poll(std::clamp<std::int64_t>(due - NowNs(), 0, 200000));
    }
    Drain();
    tally_ = nullptr;
    return kept_up;
  }

  /// Waits until every outstanding request is answered (or 20 s pass).
  void Drain() {
    const std::int64_t deadline = NowNs() + 20000000000LL;
    while (!pending_.empty() && NowNs() < deadline && !loop_->broken()) {
      Poll(1000000);
    }
    failed_ += pending_.size();
    pending_.clear();
  }

  /// One synchronous round trip (REFRESH, re-check SEARCH).
  bool Call(Verb verb, const std::vector<std::uint8_t>& payload,
            Frame* response) {
    const std::uint64_t tag = next_tag_++;
    loop_->Send(0, tag, verb, payload);
    ++attempted_;
    const std::int64_t deadline = NowNs() + 60000000000LL;
    bool got = false;
    while (!got && NowNs() < deadline && !loop_->broken()) {
      loop_->Poll(1000000, [&](std::size_t, const Frame& frame) {
        if (frame.tag == tag) {
          *response = frame;
          got = true;
        }
      });
    }
    if (!got || response->code != static_cast<std::uint8_t>(RespStatus::kOk)) {
      ++failed_;
      return false;
    }
    return true;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_ + (loop_->broken() ? 1 : 0); }
  std::uint64_t wire_searches() const { return wire_searches_; }
  std::uint64_t wire_search_and_books() const { return wire_sabs_; }

 private:
  void SendRider(std::size_t rider, std::int64_t due) {
    const xar::TaxiTrip& trip = (*riders_)[rider % riders_->size()];
    const Kind kind = KindOf(rider);
    const std::size_t conn = rider % loop_->size();
    std::vector<std::uint8_t> payload;
    xar::serve::EncodeSearch(
        PayloadOf(trip, static_cast<std::uint32_t>(rider + 1)), &payload);
    const std::uint64_t tag = next_tag_++;
    pending_[tag] = Pending{kind, rider, conn, due};
    loop_->Send(conn, tag,
                kind == Kind::kSearchAndBook ? Verb::kSearchAndBook
                                             : Verb::kSearch,
                payload);
    ++attempted_;
    tally_->late_us.push_back((NowNs() - due) / 1e3);
  }

  void Poll(std::int64_t timeout_ns) {
    loop_->Poll(timeout_ns, [this](std::size_t, const Frame& frame) {
      OnFrame(frame);
    });
  }

  void OnFrame(const Frame& frame) {
    auto it = pending_.find(frame.tag);
    if (it == pending_.end()) return;
    const Pending p = it->second;
    pending_.erase(it);
    const double latency_us = (NowNs() - p.scheduled_ns) / 1e3;
    const auto status = static_cast<RespStatus>(frame.code);
    ++tally_->completed;
    if (p.kind == Kind::kSearch || p.kind == Kind::kLook) {
      SearchResult rows;
      if (status != RespStatus::kOk ||
          !xar::serve::DecodeSearchResult(frame.payload.data(),
                                          frame.payload.size(), &rows)) {
        ++failed_;
        return;
      }
      ++wire_searches_;
      if (tally_->Timed(p.scheduled_ns)) {
        tally_->search_us.push_back(latency_us);
      }
      CheckSearchRows(rows.matches, walk_limit_m_, kTopK, checks_);
      if (p.kind == Kind::kLook && !rows.matches.empty()) {
        // Look-then-book: BOOK the top row on the same connection; the
        // booking's own latency starts now.
        std::vector<std::uint8_t> payload;
        xar::serve::EncodeBook(
            {static_cast<std::uint32_t>(p.rider + 1), rows.matches[0].ride_id},
            &payload);
        const std::uint64_t tag = next_tag_++;
        pending_[tag] = Pending{Kind::kBook, p.rider, p.conn, NowNs()};
        loop_->Send(p.conn, tag, Verb::kBook, payload);
        ++attempted_;
      }
      return;
    }
    // BOOK or SEARCH_AND_BOOK.
    if (p.kind == Kind::kSearchAndBook) ++wire_sabs_;
    if (tally_->Timed(p.scheduled_ns)) tally_->book_us.push_back(latency_us);
    if (status == RespStatus::kFailed && DeclineMessage(frame)) return;
    BookingResult booked;
    if (status != RespStatus::kOk ||
        !xar::serve::DecodeBookingResult(frame.payload.data(),
                                         frame.payload.size(), &booked)) {
      ++failed_;
      return;
    }
    ++tally_->booked;
    ledger_->Booked(xar::RideId(booked.ride_id),
                    xar::RequestId(static_cast<std::uint32_t>(p.rider + 1)),
                    1);
  }

  OpenLoop* loop_;
  const std::vector<xar::TaxiTrip>* riders_;
  double walk_limit_m_;
  CheckLog* checks_;
  SeatLedger* ledger_;
  PhaseTally* tally_ = nullptr;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t next_tag_ = 1;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t wire_searches_ = 0;
  std::uint64_t wire_sabs_ = 0;
};

/// In-process replay of riders [0, count) with xar.* spans (traced run).
void ReplayInProcess(xar::ConcurrentXarSystem& system,
                     const std::vector<xar::TaxiTrip>& riders,
                     std::size_t count, LayerInputs* layers) {
  for (std::size_t i = 0; i < count; ++i) {
    const xar::TaxiTrip& trip = riders[i % riders.size()];
    const xar::RideRequest request = RequestOfPayload(
        PayloadOf(trip, static_cast<std::uint32_t>(i + 1)));
    const Kind kind = KindOf(i);
    if (kind == Kind::kSearchAndBook) {
      ScopedSpan span("xar.SearchAndBook", request.id.value());
      (void)system.SearchAndBook(request);
      ++layers->search_and_book_calls;
      continue;
    }
    std::vector<xar::RideMatch> rows;
    {
      ScopedSpan span("xar.SearchTopK", request.id.value());
      rows = system.SearchTopK(request, kTopK);
    }
    ++layers->plain_searches;
    if (kind == Kind::kLook && !rows.empty()) {
      ScopedSpan span("xar.Book", request.id.value());
      (void)system.Book(rows[0].ride, request, rows[0]);
    }
  }
}

double ServerMedianUs(const xar::serve::XarServeServer& server,
                      std::initializer_list<Verb> verbs) {
  xar::serve::LatencyHistogram::Snapshot merged;
  for (Verb v : verbs) {
    const auto snap = server.verb_histogram(v).Take();
    if (merged.counts.empty()) merged.counts.assign(snap.counts.size(), 0);
    for (std::size_t b = 0; b < snap.counts.size(); ++b) {
      merged.counts[b] += snap.counts[b];
    }
    merged.count += snap.count;
    merged.max_us = std::max(merged.max_us, snap.max_us);
  }
  return merged.PercentileUs(0.5);
}

}  // namespace

RunResult RunServeLookbook(const RunConfig& config) {
  RunResult result;
  LayerInputs layers;
  World world = BuildWorld(28, 28, kPreprocessThreads, config.trace);
  const std::vector<xar::TaxiTrip> trips =
      MakeTrips(world, kTrips + kChunks * kGapOffers, config.seed);
  std::vector<xar::TaxiTrip> offers, riders;
  for (std::size_t i = 0; i < kTrips; ++i) {
    (i % 3 == 0 ? offers : riders).push_back(trips[i]);
  }

  xar::ConcurrentXarSystem system(world.graph, *world.spatial, *world.region,
                                  *world.oracle, world.options, kShards);
  std::uint64_t create_failed = 0;
  for (const xar::TaxiTrip& t : offers) {
    ScopedSpan span("xar.CreateRide");
    if (!system.CreateRide(OfferOf(t)).ok()) ++create_failed;
  }

  xar::serve::ServeOptions serve_options;
  serve_options.num_workers = kWorkers;
  // Far above any backlog the generator allows, so nothing is ever shed.
  serve_options.queue_capacity = 1 << 16;
  xar::serve::XarServeServer server(system, serve_options);
  OpenLoop loop;
  if (!server.Start().ok() || !loop.Connect(server.port(), kConnections)) {
    result.correct = false;
    result.failed = result.attempted = 1;
    result.check_failures.push_back("server start or connect failed");
    return result;
  }
  const double setup_s = SecondsSince(config.process_start_ns);

  CheckLog checks;
  SeatLedger ledger;
  Generator gen(&loop, &riders, world.options.default_walk_limit_m, &checks,
                &ledger);
  // The generator's ppoll must not overshoot a due send by the default
  // 50 us timer slack; set on this thread only, after the server threads
  // were spawned, so the server runs as deployed.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const auto chunk_count =
      static_cast<std::size_t>(kNominalRps * config.seconds / kChunks);
  const std::size_t nominal_count = chunk_count * kChunks;
  PhaseTally nominal;
  double phase_cpu_s = 0.0;
  std::vector<double> create_us, refresh_ms;
  std::size_t next_offer = kTrips;
  for (std::size_t c = 0; c < kChunks; ++c) {
    nominal.warmup_ns = c == 0 ? kWarmupNs : 0;
    const double cpu_start = ProcessCpuS();
    gen.RunPhase(c * chunk_count, chunk_count, kNominalRps, SIZE_MAX,
                 &nominal);
    phase_cpu_s += ProcessCpuS() - cpu_start;

    for (std::size_t k = 0; k < kGapOffers; ++k) {
      ScopedSpan span("xar.CreateRide");
      const std::int64_t t0 = NowNs();
      if (!system.CreateRide(OfferOf(trips[next_offer++])).ok()) {
        ++create_failed;
      }
      create_us.push_back((NowNs() - t0) / 1e3);
    }
    Frame response;
    const std::int64_t t0 = NowNs();
    if (gen.Call(Verb::kRefresh, {}, &response)) {
      refresh_ms.push_back((NowNs() - t0) / 1e6);
      const xar::RefreshStats stats = system.refresh_stats();
      layers.matrix_ms.push_back(stats.last_matrix_ms);
      layers.rides_rehomed.push_back(
          static_cast<double>(stats.last_rides_rehomed));
    }
  }
  const xar::serve::ServeCounters counters = server.counters();
  const double search_server_us = ServerMedianUs(server, {Verb::kSearch});
  const double book_server_us =
      ServerMedianUs(server, {Verb::kBook, Verb::kSearchAndBook});

  // Quiescent re-check: wire SEARCH == in-process SearchTopK.
  for (std::size_t i = 0; i < kRecheckSample; ++i) {
    const std::size_t rider = i * (riders.size() / kRecheckSample);
    const SearchPayload payload = PayloadOf(
        riders[rider], static_cast<std::uint32_t>(nominal_count + rider + 1));
    std::vector<std::uint8_t> bytes;
    xar::serve::EncodeSearch(payload, &bytes);
    Frame response;
    SearchResult rows;
    if (!gen.Call(Verb::kSearch, bytes, &response) ||
        !xar::serve::DecodeSearchResult(response.payload.data(),
                                        response.payload.size(), &rows)) {
      checks.Fail("re-check SEARCH failed on the wire");
      continue;
    }
    CheckRowsMatch(rows.matches,
                   system.SearchTopK(RequestOfPayload(payload), kTopK),
                   &checks);
  }

  // Ledger and route checks over every ride (no cancellations here, so the
  // splice detour is exact on every ride).
  ReferenceDijkstra reference(world.graph);
  for (std::uint32_t id = 0; id < system.NumRides(); ++id) {
    xar::Result<xar::Ride> ride = system.GetRide(xar::RideId(id));
    if (!ride.ok()) {
      checks.Fail("ride " + std::to_string(id) + " missing");
      continue;
    }
    CheckSeatLedger(*ride, ledger.LiveSeats(ride->id), &checks);
    CheckRoute(world.graph, *ride, /*exact_detour=*/true, &reference, &checks);
  }
  if (system.NumRides() == 0) checks.Fail("no ride to check");
  if (counters.shed > 0) checks.Fail("server shed requests at nominal rate");

  const double search_p50 = Percentile(nominal.search_us, 0.50);
  if (config.trace) {
    // Rate ladder: one step per rate until the backlog grows or p99 breaks
    // the limit. Riders continue where the nominal phase stopped.
    std::size_t next_rider = nominal_count + riders.size();
    double knee = 0.0;
    for (double rps = kLadderStartRps; rps <= kLadderMaxRps;
         rps += kLadderStepRps) {
      PhaseTally step;
      const auto count = static_cast<std::size_t>(rps * kLadderStepS);
      const bool kept_up =
          gen.RunPhase(next_rider, count, rps, kBacklogLimit, &step);
      next_rider += count;
      if (!kept_up ||
          Percentile(step.search_us, 0.99) > kLadderP99LimitUs) {
        break;
      }
      knee = rps;
    }
    layers.knee_rps = knee;
    ReplayInProcess(system, riders,
                    std::min<std::size_t>(nominal_count, 20000), &layers);
  }
  server.Stop();

  result.attempted = offers.size() + kChunks * kGapOffers + gen.attempted();
  result.failed = create_failed + gen.failed();
  MergeChecks(checks, &result);

  result.Add("setup_s", setup_s, "s");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  result.Add("search_p50_us", search_p50, "us");
  result.Add("book_p50_us", Percentile(nominal.book_us, 0.50), "us");
  // Per CPU second of the process (server and generator): the open loop
  // fixes the wall rate, so a per-wall-second figure would read the
  // offered rate whatever the server costs.
  result.Add("ops_per_s", static_cast<double>(nominal.completed) / phase_cpu_s,
             "ops/s");
  result.Add("create_p50_us", Percentile(create_us, 0.50), "us");
  result.Add("refresh_ms", Median(refresh_ms), "ms");
  result.Add("riders_booked", static_cast<double>(nominal.booked), "count");

  if (config.trace) {
    layers.search_p99_us = Percentile(nominal.search_us, 0.99);
    layers.book_p99_us = Percentile(nominal.book_us, 0.99);
    layers.search_server_us = search_server_us;
    layers.book_server_us = book_server_us;
    layers.wire_us = search_p50 - search_server_us;
    layers.queue_highwater = static_cast<double>(counters.queue_highwater);
    layers.generator_late_us = Percentile(nominal.late_us, 0.99);
    // Wire SEARCHes plus both sides of the quiescent re-check.
    layers.plain_searches += gen.wire_searches() + 2 * kRecheckSample;
    layers.search_and_book_calls += gen.wire_search_and_books();
    layers.operations = result.attempted;
    layers.AddSystem(system);
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
