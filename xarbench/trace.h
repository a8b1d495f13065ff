// In-memory span tracer for the benchmark's traced run (--trace 1).
//
// A span is one timed call at a layer boundary: a name, start and end on
// the steady clock, the span that was open on the same thread when it
// started (its parent) and a request id. Spans are appended to per-thread
// buffers and stay in memory until the run ends; WriteTrace then dumps them
// all. Every span also charges its duration to its parent, so a span's
// self time (duration minus the part its children cover) is exact without
// re-walking the tree.
//
// With tracing disabled (the untraced run) a ScopedSpan is one relaxed load
// and a branch, so the end-to-end figures are measured on the same code.

#ifndef XARBENCH_TRACE_H_
#define XARBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace xarbench {

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t child_ns = 0;   ///< time covered by child spans
  std::int32_t parent = -1;    ///< index in the same thread's buffer
  std::uint32_t request = 0;   ///< request id, inherited from the parent
  const char* name = "";

  double DurationUs() const { return (end_ns - start_ns) / 1e3; }
  double SelfUs() const { return (end_ns - start_ns - child_ns) / 1e3; }
};

/// Monotonic nanoseconds (steady clock).
std::int64_t NowNs();

class Tracer {
 public:
  static void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread; returns its index, or -1.
  static std::int32_t Open(const char* name, std::uint32_t request);
  static void Close(std::int32_t index);

  /// Every span recorded so far, all threads, in per-thread order. Call
  /// only once the traced work has ended.
  static std::vector<Span> Collect();

  /// Writes every span as one tab-separated line
  /// (thread, index, parent, name, request, start_ns, end_ns, self_ns).
  static bool WriteTrace(const std::string& path);

 private:
  static std::atomic<bool> enabled_;
};

/// RAII span; no-op while tracing is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint32_t request = 0)
      : index_(Tracer::enabled() ? Tracer::Open(name, request) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) Tracer::Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int32_t index_;
};

}  // namespace xarbench

#endif  // XARBENCH_TRACE_H_
