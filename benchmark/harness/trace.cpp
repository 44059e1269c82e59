#include "trace.hpp"

#include <algorithm>
#include <iomanip>
#include <string_view>
#include <utility>

namespace lacc_bench {

SpanId ThreadTrace::open(const char* name, std::uint64_t request,
                         SpanId parent) {
  if (parent == 0 && !open_.empty()) parent = id_of(open_.back());
  spans_.push_back({name, now_ns(), 0, parent, request});
  open_.push_back(spans_.size() - 1);
  return id_of(spans_.size() - 1);
}

void ThreadTrace::close() {
  spans_[open_.back()].end_ns = now_ns();
  open_.pop_back();
}

ThreadTrace* Tracer::thread(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  threads_.push_back(std::make_unique<ThreadTrace>(
      static_cast<std::uint32_t>(threads_.size()), name, origin_));
  return threads_.back().get();
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& t : threads_) n += t->spans_.size();
  return n;
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& t : threads_) {
    const auto& spans = t->spans_;
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
      self[i] = spans[i].end_ns - spans[i].start_ns;
    // Parents precede their children, and only a same-thread parent
    // encloses the child's interval.
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanId p = spans[i].parent;
      if (p != 0 && (p >> 40) == t->index_ + 1)
        self[(p & ((SpanId{1} << 40) - 1)) - 1] -=
            spans[i].end_ns - spans[i].start_ns;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const std::string_view name = spans[i].name;
      out[std::string(name.substr(0, name.find('.')))] +=
          static_cast<double>(self[i]) * 1e-9;
    }
  }
  return out;
}

void Tracer::write_chrome(std::ostream& out, std::size_t max_events) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& t : threads_) total += t->spans_.size();
  // Keep the earliest spans of every thread: cut at a common start time.
  std::int64_t cutoff = INT64_MAX;
  if (total > max_events) {
    std::vector<std::int64_t> starts;
    starts.reserve(total);
    for (const auto& t : threads_)
      for (const auto& s : t->spans_) starts.push_back(s.start_ns);
    std::nth_element(starts.begin(),
                     starts.begin() + static_cast<std::ptrdiff_t>(max_events),
                     starts.end());
    cutoff = starts[max_events];
  }
  // Microsecond timestamps with nanosecond digits, never exponents.
  out << std::fixed << std::setprecision(3);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  std::size_t written = 0;
  for (const auto& t : threads_) {
    out << (first ? "" : ",") << "{\"name\":\"thread_name\",\"ph\":\"M\","
        << "\"pid\":1,\"tid\":" << t->index_ << ",\"args\":{\"name\":\""
        << t->name_ << "\"}}";
    first = false;
    for (std::size_t i = 0; i < t->spans_.size(); ++i) {
      const auto& s = t->spans_[i];
      if (s.start_ns >= cutoff) continue;
      const std::string_view name = s.name;
      out << ",{\"name\":\"" << name << "\",\"cat\":\""
          << name.substr(0, name.find('.')) << "\",\"ph\":\"X\",\"pid\":1,"
          << "\"tid\":" << t->index_ << ",\"ts\":"
          << static_cast<double>(s.start_ns) * 1e-3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
          << ",\"args\":{\"id\":" << t->id_of(i) << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << "}}";
      ++written;
    }
  }
  out << "],\"otherData\":{\"spans\":" << total
      << ",\"dropped\":" << total - written << "}}\n";
}

}  // namespace lacc_bench
