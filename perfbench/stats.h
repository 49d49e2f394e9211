// Arithmetic shared by the benchmark's measuring code and its self-test:
// nearest-rank percentiles with the "ten samples beyond" rule, span self
// time with overlapping children, and blocking-path attribution.
// Dependency-free on purpose, so selftest.cpp checks exactly the code the
// runs use.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank index of quantile q in n sorted samples: ceil(q*n) - 1.
inline std::size_t rank_index(std::size_t n, double q) {
  if (n == 0) return 0;
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  const std::size_t k = r < 1.0 ? 1 : static_cast<std::size_t>(r);
  return std::min(k, n) - 1;
}

/// Samples strictly above the nearest-rank q-quantile's position.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - 1 - rank_index(n, q);
}

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; fewer make it the maximum of a handful, not a percentile.
inline constexpr std::size_t kMinBeyond = 10;

inline bool tail_resolved(std::size_t n, double q) {
  return samples_beyond(n, q) >= kMinBeyond;
}

/// Nearest-rank quantile; 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = rank_index(v.size(), q);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  bool p99_resolved = false;
};

inline Summary summarize(const std::vector<double>& v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  s.p50 = percentile(v, 0.50);
  s.p99 = percentile(v, 0.99);
  s.max = *std::max_element(v.begin(), v.end());
  s.p99_resolved = tail_resolved(v.size(), 0.99);
  return s;
}

/// p99 that resists a rare stall of the machine: the samples, in time
/// order, are cut into the most consecutive chunks that each hold at least
/// 100 * kMinBeyond samples (so each chunk's p99 has kMinBeyond beyond it),
/// and the result is the median of the chunks' p99s. A stall then spoils
/// only the chunks it falls in. `chunks` is 0 (and the value 0) when there
/// are too few samples for one chunk.
struct ChunkedTail {
  double p99 = 0.0;
  std::size_t chunks = 0;
  std::size_t chunk_size = 0;
};

inline ChunkedTail chunked_p99(const std::vector<std::int64_t>& t,
                               const std::vector<double>& v) {
  ChunkedTail out;
  const std::size_t need = 100 * kMinBeyond;
  if (t.size() != v.size() || v.size() < need) return out;
  std::vector<std::size_t> order(v.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return t[a] < t[b]; });
  out.chunks = v.size() / need;
  out.chunk_size = v.size() / out.chunks;
  std::vector<double> tails;
  for (std::size_t c = 0; c < out.chunks; ++c) {
    const std::size_t lo = c * out.chunk_size;
    const std::size_t hi = c + 1 == out.chunks ? v.size() : lo + out.chunk_size;
    std::vector<double> chunk;
    for (std::size_t i = lo; i < hi; ++i) chunk.push_back(v[order[i]]);
    tails.push_back(percentile(chunk, 0.99));
  }
  out.p99 = percentile(tails, 0.5);
  return out;
}

/// Half-open time interval [begin, end) in nanoseconds.
struct Interval {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

/// Length of the part of `parent` covered by the union of `children`.
/// Children may overlap each other (concurrent work on several threads) and
/// may stick out of the parent; each instant of the parent counts once.
inline std::int64_t covered(Interval parent, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  std::int64_t total = 0;
  std::int64_t reach = parent.begin;  // everything before reach is counted
  for (const Interval& c : children) {
    const std::int64_t b = std::max(c.begin, reach);
    const std::int64_t e = std::min(c.end, parent.end);
    if (e > b) {
      total += e - b;
      reach = e;
    }
  }
  return total;
}

/// Self time: the span's duration minus the time its children cover.
inline std::int64_t self_time(Interval parent,
                              const std::vector<Interval>& children) {
  return (parent.end - parent.begin) - covered(parent, children);
}

/// One row of a blocking-path table. A measured row's spans were recorded
/// around calls (program spans, the benchmark's spans around layer entry
/// points, the generator's own waits). A derived row's spans are inferred:
/// a stretch between measured spans that the row names a layer for, such
/// as the part of a client exchange no server-side span covers.
struct PathLayer {
  std::string name;
  std::vector<Interval> spans;
  bool derived = false;
};

struct Attribution {
  std::vector<std::int64_t> self;  ///< per layer, in the order given
  std::int64_t unmeasured = 0;     ///< root time no measured span covers
  std::int64_t left = 0;           ///< root time no row covers at all
};

/// Attribute `root` to layers in priority order: each layer gets the part
/// of the root its spans cover that no earlier layer covered. `unmeasured`
/// ignores the derived rows, so it shows how much of the path the spans
/// themselves explain.
inline Attribution attribute(Interval root,
                             const std::vector<PathLayer>& layers) {
  Attribution a;
  std::vector<Interval> so_far, measured;
  std::int64_t prev = 0;
  for (const PathLayer& l : layers) {
    so_far.insert(so_far.end(), l.spans.begin(), l.spans.end());
    if (!l.derived) {
      measured.insert(measured.end(), l.spans.begin(), l.spans.end());
    }
    const std::int64_t now = covered(root, so_far);
    a.self.push_back(now - prev);
    prev = now;
  }
  const std::int64_t len = root.end - root.begin;
  a.unmeasured = len - covered(root, measured);
  a.left = len - prev;
  return a;
}

}  // namespace perfbench
