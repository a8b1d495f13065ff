#include "trace.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>


namespace xarbench {

std::atomic<bool> Tracer::enabled_{false};

namespace {

struct ThreadBuffer {
  std::size_t thread = 0;
  std::vector<Span> spans;
  std::int32_t open = -1;  ///< innermost open span
};

std::mutex& RegistryMutex() {
  static std::mutex mutex;
  return mutex;
}

std::vector<std::unique_ptr<ThreadBuffer>>& Registry() {
  static std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  return buffers;
}

/// The calling thread's buffer; owned by the registry so it survives the
/// thread (server workers exit before the trace is collected).
ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    auto owned = std::make_unique<ThreadBuffer>();
    owned->thread = Registry().size();
    owned->spans.reserve(1 << 16);
    buffer = owned.get();
    Registry().push_back(std::move(owned));
  }
  return *buffer;
}

}  // namespace

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int32_t Tracer::Open(const char* name, std::uint32_t request) {
  ThreadBuffer& buffer = LocalBuffer();
  Span span;
  span.name = name;
  span.parent = buffer.open;
  span.request = request != 0 || buffer.open < 0
                     ? request
                     : buffer.spans[buffer.open].request;
  const auto index = static_cast<std::int32_t>(buffer.spans.size());
  buffer.spans.push_back(span);
  buffer.open = index;
  buffer.spans[index].start_ns = NowNs();
  return index;
}

void Tracer::Close(std::int32_t index) {
  const std::int64_t now = NowNs();
  ThreadBuffer& buffer = LocalBuffer();
  Span& span = buffer.spans[index];
  span.end_ns = now;
  buffer.open = span.parent;
  if (span.parent >= 0) {
    buffer.spans[span.parent].child_ns += now - span.start_ns;
  }
}

std::vector<Span> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  std::vector<Span> all;
  for (const auto& buffer : Registry()) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

bool Tracer::WriteTrace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread\tindex\tparent\tname\trequest\tstart_ns\tend_ns\t"
                  "self_ns\n");
  std::lock_guard<std::mutex> lock(RegistryMutex());
  for (const auto& buffer : Registry()) {
    for (std::size_t i = 0; i < buffer->spans.size(); ++i) {
      const Span& s = buffer->spans[i];
      std::fprintf(f, "%zu\t%zu\t%d\t%s\t%u\t%lld\t%lld\t%lld\n",
                   buffer->thread, i, s.parent, s.name, s.request,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.end_ns - s.start_ns - s.child_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace xarbench
