// In-memory spans recorded by the benchmark's own client threads around
// each call into a layer of the system.  Nothing inside src/ is touched:
// a span covers one public call as the caller sees it.
//
// Each client thread owns a ThreadTrace, so recording takes no lock.  A
// span's parent is the innermost open span of the same thread unless the
// caller names one explicitly; that is how a write's visibility span on the
// waiter thread links to its insert span on the writer thread.  The request
// id ties together the spans of one request.  A span's layer is its name up
// to the first '.'.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace lacc_bench {

/// Globally unique span id (0 = none): thread index in the high bits.
using SpanId = std::uint64_t;

class ThreadTrace {
 public:
  using Clock = std::chrono::steady_clock;

  ThreadTrace(std::uint32_t index, std::string name, Clock::time_point origin)
      : index_(index), name_(std::move(name)), origin_(origin) {}

  SpanId open(const char* name, std::uint64_t request, SpanId parent);
  void close();

 private:
  friend class Tracer;
  struct Record {
    const char* name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    SpanId parent = 0;
    std::uint64_t request = 0;
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  SpanId id_of(std::size_t local) const {
    return (SpanId{index_ + 1} << 40) | (local + 1);
  }

  const std::uint32_t index_;
  const std::string name_;
  const Clock::time_point origin_;
  std::vector<Record> spans_;
  std::vector<std::size_t> open_;
};

/// One span, open for the lifetime of the object; a no-op on a null trace,
/// which is how untraced runs skip recording.
class Span {
 public:
  Span(ThreadTrace* trace, const char* name, std::uint64_t request = 0,
       SpanId parent = 0)
      : trace_(trace) {
    if (trace_ != nullptr) id_ = trace_->open(name, request, parent);
  }
  ~Span() {
    if (trace_ != nullptr) trace_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  SpanId id() const { return id_; }

 private:
  ThreadTrace* trace_;
  SpanId id_ = 0;
};

class Tracer {
 public:
  Tracer() : origin_(ThreadTrace::Clock::now()) {}

  /// A new per-thread recorder; the pointer stays valid for the tracer's
  /// lifetime.  Call once per client thread.
  ThreadTrace* thread(const std::string& name);

  std::size_t span_count() const;

  /// Self time summed per layer, in seconds: each span's duration minus
  /// the part its same-thread children cover.
  std::map<std::string, double> self_seconds_by_layer() const;

  /// Chrome trace-event JSON ("X" events; args carry id, parent and
  /// request).  At most `max_events` spans are written, earliest first.
  void write_chrome(std::ostream& out, std::size_t max_events) const;

 private:
  const ThreadTrace::Clock::time_point origin_;
  mutable std::mutex mu_;  // guards threads_
  std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

}  // namespace lacc_bench
