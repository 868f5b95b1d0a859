#include "stats.h"

#include <algorithm>
#include <cmath>

namespace wnrs {
namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const size_t n = values.size();
  // Nearest rank: ceil(p/100 * n), 1-based, clamped to [1, n].
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return n - rank;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

/// [begin, end) of window w when n samples are cut into k windows.
std::pair<size_t, size_t> WindowBounds(size_t n, size_t k, size_t w) {
  return {n * w / k, n * (w + 1) / k};
}

}  // namespace

size_t TrimmedCount(size_t n, size_t windows) {
  const size_t k = std::max<size_t>(1, std::min(windows, n));
  if (k < 2) return n;
  size_t smallest = n;
  for (size_t w = 0; w < k; ++w) {
    const auto [begin, end] = WindowBounds(n, k, w);
    smallest = std::min(smallest, end - begin);
  }
  // The dropped window is at least the smallest one.
  return n - smallest;
}

double TrimmedPercentile(const std::vector<double>& in_order, size_t windows,
                         double p) {
  const size_t k = std::max<size_t>(1, std::min(windows, in_order.size()));
  if (k < 2) return Percentile(in_order, p);
  size_t worst = 0;
  double worst_median = 0.0;
  for (size_t w = 0; w < k; ++w) {
    const auto [begin, end] = WindowBounds(in_order.size(), k, w);
    const double m = Median(
        std::vector<double>(in_order.begin() + begin, in_order.begin() + end));
    if (w == 0 || m > worst_median) {
      worst = w;
      worst_median = m;
    }
  }
  const auto [drop_begin, drop_end] = WindowBounds(in_order.size(), k, worst);
  std::vector<double> kept(in_order.begin(), in_order.begin() + drop_begin);
  kept.insert(kept.end(), in_order.begin() + drop_end, in_order.end());
  return Percentile(std::move(kept), p);
}

int WalkLadder(size_t rungs, const std::function<bool(size_t)>& probe,
               std::vector<size_t>* probed) {
  // Invariant: every rung <= lo passes (lo = -1: none known), every rung
  // >= hi fails (hi = rungs: none known).
  int lo = -1;
  int hi = static_cast<int>(rungs);
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (probed != nullptr) probed->push_back(static_cast<size_t>(mid));
    if (probe(static_cast<size_t>(mid))) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool GrowingBacklog(const std::vector<double>& latencies_in_send_order,
                    double slack_ms) {
  const size_t n = latencies_in_send_order.size();
  if (n < 8) return false;
  const size_t quarter = n / 4;
  const std::vector<double> first(latencies_in_send_order.begin(),
                                  latencies_in_send_order.begin() + quarter);
  const std::vector<double> last(latencies_in_send_order.end() - quarter,
                                 latencies_in_send_order.end());
  return Median(last) > 2.0 * Median(first) + slack_ms;
}

int64_t UnionLength(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  bool open = false;
  Interval cur{0, 0};
  for (const Interval& iv : intervals) {
    if (iv.second <= iv.first) continue;
    if (!open || iv.first > cur.second) {
      if (open) total += cur.second - cur.first;
      cur = iv;
      open = true;
    } else {
      cur.second = std::max(cur.second, iv.second);
    }
  }
  if (open) total += cur.second - cur.first;
  return total;
}

int64_t SelfTime(Interval span, std::vector<Interval> children) {
  for (Interval& child : children) {
    child.first = std::max(child.first, span.first);
    child.second = std::min(child.second, span.second);
  }
  const int64_t duration = std::max<int64_t>(0, span.second - span.first);
  return std::max<int64_t>(0, duration - UnionLength(std::move(children)));
}

uint64_t Fnv1a(std::string_view bytes, uint64_t seed) {
  uint64_t h = seed;
  for (const char ch : bytes) {
    h ^= static_cast<uint8_t>(ch);
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace perfbench
}  // namespace wnrs
