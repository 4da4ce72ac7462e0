#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// The benchmark's own instrumentation: spans recorded around calls into
// the program's public functions, and exact order statistics over
// recorded samples. Nothing here reaches inside the program; the
// program's own counters are read through its public accessors.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One timed call into a layer. Spans of one request share `request`;
/// `parent` names the span that caused this one (0 = a root).
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  uint32_t thread = 0;
};

/// Spans kept in memory and written out when the run ends. Disabled
/// logs (the untraced run) record nothing and cost one branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }

  /// Records a completed span and returns its id (0 when disabled).
  uint64_t Add(const char* name, uint64_t start_ns, uint64_t end_ns,
               uint64_t parent = 0, uint64_t request = 0,
               uint32_t thread = 0) {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = name;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.request = request;
    s.thread = thread;
    spans_.push_back(s);
    return s.id;
  }

  /// Writes every span as a chrome://tracing complete event (open in
  /// chrome://tracing or ui.perfetto.dev). Returns false on I/O error.
  bool WriteChromeTrace(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const uint64_t t0 = spans_.empty() ? 0 : MinStart();
    std::fputs("{\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"request\":%llu}}\n",
                   i == 0 ? "" : ",", s.name, s.thread,
                   static_cast<double>(s.start_ns - t0) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
    std::fputs("]}\n", f);
    const bool ok = std::ferror(f) == 0;
    return std::fclose(f) == 0 && ok;
  }

 private:
  uint64_t MinStart() const {
    uint64_t m = spans_.front().start_ns;
    for (const Span& s : spans_) m = std::min(m, s.start_ns);
    return m;
  }

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Nearest-rank quantile of `v` (0 for an empty sample). Takes a copy:
/// callers keep their samples in arrival order.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = std::min(
      v.size() - 1, static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(idx), v.end());
  return v[idx];
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
