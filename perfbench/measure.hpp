#pragma once
// Measurement primitives for nullbench: a monotonic clock, sample sets
// summarised by median and quartiles, and an in-memory span recorder that
// computes per-layer self time and writes a Perfetto-loadable trace through
// obs::TraceSink.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace nullbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times one call of `fn` in seconds.
template <typename Fn>
double time_s(Fn&& fn) {
  const double start = now_s();
  fn();
  return now_s() - start;
}

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// Quartiles by the "exclusive" method of Python's
/// statistics.quantiles(data, n=4), so the spread printed per run matches
/// the spread computed across runs.
inline Quartiles quartiles(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 1) return {values[0], values[0], values[0]};
  double cut[3];
  for (int i = 1; i <= 3; ++i) {
    const std::size_t m = n + 1;
    std::size_t j = static_cast<std::size_t>(i) * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - 4.0 * static_cast<double>(j);
    cut[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

inline double median(const std::vector<double>& values) {
  return quartiles(values).median;
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// One recorded span: [start, end) in steady-clock seconds, the index of
/// the enclosing span (-1 for a root) and the thread count it ran at.
struct Span {
  std::string name;
  int threads = 0;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;

  double seconds() const { return end - start; }
};

/// Records spans around calls into the library, nested by call structure.
/// Everything stays in memory until write_perfetto(). The trace sink is
/// created with the recorder, so every span starts after its time origin.
class SpanRecorder {
 public:
  /// Runs `fn` inside a span named `name`; spans opened inside `fn` become
  /// its children. Returns the span's duration in seconds.
  template <typename Fn>
  double record(std::string name, int threads, Fn&& fn) {
    const int index = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), threads, 0.0, 0.0,
                      open_.empty() ? -1 : open_.back()});
    open_.push_back(index);
    spans_[index].start = now_s();
    fn();
    spans_[index].end = now_s();
    open_.pop_back();
    const Span& span = spans_[index];
    sink_.complete_between(span.name + " t" + std::to_string(span.threads),
                           to_us(span.start), to_us(span.end));
    return span.seconds();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration minus the time covered by direct children (children never
  /// overlap: they run on the recording thread one after another).
  std::vector<double> self_seconds() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].seconds();
    for (const Span& span : spans_)
      if (span.parent >= 0) self[span.parent] -= span.seconds();
    return self;
  }

  /// Writes every span as a complete event ("<name> t<threads>") to a
  /// Perfetto-loadable JSON file. Nesting is carried by the timestamps.
  nullgraph::Status write_perfetto(const std::string& path) const {
    return sink_.write(path);
  }

 private:
  static std::uint64_t to_us(double seconds) {
    return static_cast<std::uint64_t>(seconds * 1e6);
  }

  nullgraph::obs::TraceSink sink_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace nullbench
