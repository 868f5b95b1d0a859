#include "reverse_skyline/window_query.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "geometry/dominance.h"
#include "geometry/kernels.h"
#include "geometry/transform.h"

namespace wnrs {

Rectangle WindowRect(const Point& c, const Point& q) {
  WNRS_CHECK(c.dims() == q.dims());
  Point lo(c.dims());
  Point hi(c.dims());
  for (size_t i = 0; i < c.dims(); ++i) {
    const double ext = std::fabs(c[i] - q[i]);
    lo[i] = c[i] - ext;
    hi[i] = c[i] + ext;
  }
  return Rectangle(std::move(lo), std::move(hi));
}

std::vector<RStarTree::Id> WindowQuery(
    const RStarTree& products, const Point& c, const Point& q,
    std::optional<RStarTree::Id> exclude_id) {
  MetricAdd(CounterId::kWindowProbes);
  std::vector<RStarTree::Id> out;
  products.RangeQuery(WindowRect(c, q),
                      [&](const Rectangle& mbr, RStarTree::Id id) {
                        if (exclude_id.has_value() && id == *exclude_id) {
                          return true;
                        }
                        // The MBR intersecting the closed window is
                        // necessary but not sufficient: dynamic dominance
                        // needs strictness in some dimension.
                        if (InWindow(mbr.lo(), c, q)) out.push_back(id);
                        return true;
                      });
  // Traversal order depends on tree shape; ascending ids make the hit
  // list canonical so sharded unions can merge bit-identically.
  std::sort(out.begin(), out.end());
  return out;
}

bool WindowEmpty(const RStarTree& products, const Point& c, const Point& q,
                 std::optional<RStarTree::Id> exclude_id) {
  MetricAdd(CounterId::kWindowProbes);
  return !products.AnyInRange(
      WindowRect(c, q), [&](const Rectangle& mbr, RStarTree::Id id) {
        if (exclude_id.has_value() && id == *exclude_id) return false;
        return InWindow(mbr.lo(), c, q);
      });
}

std::vector<RStarTree::Id> WindowSkyline(
    const RStarTree& products, const Point& c, const Point& q,
    const Point& origin, std::optional<RStarTree::Id> exclude_id) {
  WNRS_CHECK(c.dims() == q.dims());
  WNRS_CHECK(origin.dims() == q.dims());
  const Rectangle window = WindowRect(c, q);

  struct Item {
    double mindist;
    const RStarTree::Node* node;  // nullptr => data entry
    Point transformed;
    RStarTree::Id id;
    bool operator>(const Item& other) const {
      return mindist > other.mindist;
    }
  };
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  std::vector<Point> skyline_points;
  std::vector<RStarTree::Id> skyline_ids;
  // Work counts accumulate locally and flush once on return, so the inner
  // dominance loop stays free of instrumentation.
  uint64_t heap_pops = 0;
  uint64_t dominance_tests = 0;
  uint64_t pruned_entries = 0;
  auto dominated = [&skyline_points, &dominance_tests](const Point& t) {
    for (const Point& s : skyline_points) {
      ++dominance_tests;
      if (Dominates(s, t)) return true;
    }
    return false;
  };
  auto flush = [&] {
    MetricAdd(CounterId::kWindowProbes);
    MetricAdd(CounterId::kWindowHeapPops, heap_pops);
    MetricAdd(CounterId::kWindowDominanceTests, dominance_tests);
    MetricAdd(CounterId::kWindowPrunedEntries, pruned_entries);
  };

  if (products.size() == 0) {
    flush();
    return skyline_ids;
  }
  heap.push({0.0, products.root(), Point(), -1});
  while (!heap.empty()) {
    // top() is const, but the element is discarded by the pop right
    // after — moving it out saves a Point copy per pop.
    Item item = std::move(const_cast<Item&>(heap.top()));
    heap.pop();
    ++heap_pops;
    if (item.node == nullptr) {
      if (!dominated(item.transformed)) {
        skyline_points.push_back(std::move(item.transformed));
        skyline_ids.push_back(item.id);
      } else {
        ++pruned_entries;
      }
      continue;
    }
    products.CountNodeRead();
    for (const RStarTree::Entry& e : item.node->entries) {
      if (!e.mbr.Intersects(window)) continue;
      if (item.node->is_leaf) {
        if (exclude_id.has_value() && e.id == *exclude_id) continue;
        // MBR intersection is necessary but not sufficient for window
        // membership (dynamic dominance needs strictness).
        if (!InWindow(e.mbr.lo(), c, q)) continue;
        Point t = ToDistanceSpace(e.mbr.lo(), origin);
        if (dominated(t)) {
          ++pruned_entries;
          continue;
        }
        const double dist = t.L1Norm();
        heap.push({dist, nullptr, std::move(t), e.id});
      } else {
        const Rectangle t = RectToDistanceSpace(e.mbr, origin);
        if (dominated(t.lo())) {
          ++pruned_entries;
          continue;
        }
        heap.push({t.lo().L1Norm(), e.child, t.lo(), -1});
      }
    }
  }
  std::sort(skyline_ids.begin(), skyline_ids.end());
  flush();
  return skyline_ids;
}

namespace {

/// Packed twin of RStarTree::RangeQuery filtered to window members: same
/// stack discipline, the same node-read accounting (one per popped node),
/// and the same early stop, but evaluating whole nodes at a time with the
/// SoA batch kernels — one overlap mask per node, plus one in-window mask
/// per leaf. `visit(id)` runs for every leaf entry that is inside the
/// customer window (strictness included) and returns false to stop the
/// whole traversal.
template <typename Visit>
void PackedWindowScan(const PackedRTree& tree, const Rectangle& window,
                      const double* cs, const double* qs,
                      const Visit& visit) {
  const SoaPlanes planes = tree.planes();
  const double* wlo = window.lo().coords().data();
  const double* whi = window.hi().coords().data();
  const size_t cap = KernelPad(tree.max_node_entries());
  std::vector<unsigned char> hit(cap);
  std::vector<unsigned char> inw(cap);
  std::vector<uint32_t> stack = {tree.root()};
  while (!stack.empty()) {
    const uint32_t ni = stack.back();
    stack.pop_back();
    tree.CountNodeRead();
    const PackedRTree::Node& n = tree.node(ni);
    BoxOverlapMaskSoa(planes, n.first_entry, n.entry_count, wlo, whi,
                      hit.data());
    if (n.is_leaf != 0) {
      // Intersecting the closed window is necessary but not sufficient:
      // window membership is dynamic dominance, which needs strictness.
      InWindowMaskSoa(planes, n.first_entry, n.entry_count, cs, qs,
                      inw.data());
      for (uint32_t k = 0; k < n.entry_count; ++k) {
        if ((hit[k] & inw[k]) == 0) continue;
        if (!visit(tree.entry_id(n.first_entry + k))) return;
      }
    } else {
      for (uint32_t k = 0; k < n.entry_count; ++k) {
        if (hit[k] == 0) continue;
        stack.push_back(tree.entry_child(n.first_entry + k));
      }
    }
  }
}

}  // namespace

std::vector<PackedRTree::Id> WindowQuery(
    const PackedRTree& products, const Point& c, const Point& q,
    std::optional<PackedRTree::Id> exclude_id) {
  MetricAdd(CounterId::kWindowProbes);
  const double* cs = c.coords().data();
  const double* qs = q.coords().data();
  std::vector<PackedRTree::Id> out;
  PackedWindowScan(products, WindowRect(c, q), cs, qs,
                   [&](PackedRTree::Id id) {
                     if (!exclude_id.has_value() || id != *exclude_id) {
                       out.push_back(id);
                     }
                     return true;
                   });
  // Same canonical ascending order as the dynamic variant.
  std::sort(out.begin(), out.end());
  return out;
}

bool WindowEmpty(const PackedRTree& products, const Point& c, const Point& q,
                 std::optional<PackedRTree::Id> exclude_id) {
  MetricAdd(CounterId::kWindowProbes);
  const double* cs = c.coords().data();
  const double* qs = q.coords().data();
  bool found = false;
  PackedWindowScan(products, WindowRect(c, q), cs, qs,
                   [&](PackedRTree::Id id) {
                     if (exclude_id.has_value() && id == *exclude_id) {
                       return true;
                     }
                     found = true;
                     return false;  // Stop the traversal.
                   });
  return !found;
}

std::vector<PackedRTree::Id> WindowSkyline(
    const PackedRTree& products, const Point& c, const Point& q,
    const Point& origin, std::optional<PackedRTree::Id> exclude_id) {
  WNRS_CHECK(c.dims() == q.dims());
  WNRS_CHECK(origin.dims() == q.dims());
  const size_t d = products.dims();
  const Rectangle window = WindowRect(c, q);
  const double* wlo = window.lo().coords().data();
  const double* whi = window.hi().coords().data();
  const double* cs = c.coords().data();
  const double* qs = q.coords().data();
  const double* os = origin.coords().data();

  struct Item {
    double mindist;
    uint32_t node;  // kNoNode => data entry
    size_t coord;   // offset of the transformed point in `pool`
    PackedRTree::Id id;
    bool operator>(const Item& other) const {
      return mindist > other.mindist;
    }
  };
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  std::vector<double> pool;     // transformed candidate points, d-strided
  std::vector<double> skyline;  // confirmed frontier coords, d-strided
  std::vector<PackedRTree::Id> skyline_ids;
  uint64_t heap_pops = 0;
  uint64_t dominance_tests = 0;
  uint64_t pruned_entries = 0;
  auto flush = [&] {
    MetricAdd(CounterId::kWindowProbes);
    MetricAdd(CounterId::kWindowHeapPops, heap_pops);
    MetricAdd(CounterId::kWindowDominanceTests, dominance_tests);
    MetricAdd(CounterId::kWindowPrunedEntries, pruned_entries);
  };

  if (products.size() == 0) {
    flush();
    return skyline_ids;
  }
  // Per-node batch scratch: overlap / in-window masks, transformed
  // coordinates in SoA columns (stride cap), and their L1 norms. Batch
  // results for entries a filter later skips are computed and discarded
  // — unobservable, since skyline membership only changes on heap pops.
  const SoaPlanes planes = products.planes();
  const size_t cap = KernelPad(products.max_node_entries());
  std::vector<unsigned char> hit(cap);
  std::vector<unsigned char> inw(cap);
  std::vector<double> tcoords(d * cap);
  std::vector<double> tdist(cap);
  std::vector<double> buf(d);
  // Counts the tests the dynamic path's first-hit scan makes: up to and
  // including the first dominator, or the whole frontier when none.
  auto dominated = [&](const double* t) {
    const size_t n = skyline_ids.size();
    const size_t first = FirstDominator(skyline.data(), n, d, t);
    dominance_tests += first < n ? first + 1 : n;
    return first < n;
  };
  heap.push({0.0, products.root(), 0, -1});
  while (!heap.empty()) {
    const Item item = heap.top();
    heap.pop();
    ++heap_pops;
    if (item.node == PackedRTree::kNoNode) {
      const double* t = pool.data() + item.coord;
      if (!dominated(t)) {
        skyline.insert(skyline.end(), t, t + d);
        skyline_ids.push_back(item.id);
      } else {
        ++pruned_entries;
      }
      continue;
    }
    products.CountNodeRead();
    const PackedRTree::Node& n = products.node(item.node);
    BoxOverlapMaskSoa(planes, n.first_entry, n.entry_count, wlo, whi,
                      hit.data());
    if (n.is_leaf != 0) {
      InWindowMaskSoa(planes, n.first_entry, n.entry_count, cs, qs,
                      inw.data());
      ToDistanceSpaceBatchSoa(planes, n.first_entry, n.entry_count, os,
                              tcoords.data(), cap, tdist.data());
      for (uint32_t k = 0; k < n.entry_count; ++k) {
        if (hit[k] == 0) continue;
        const PackedRTree::Id id = products.entry_id(n.first_entry + k);
        if (exclude_id.has_value() && id == *exclude_id) continue;
        if (inw[k] == 0) continue;
        for (size_t j = 0; j < d; ++j) buf[j] = tcoords[j * cap + k];
        if (dominated(buf.data())) {
          ++pruned_entries;
          continue;
        }
        const size_t off = pool.size();
        pool.insert(pool.end(), buf.begin(), buf.end());
        heap.push({tdist[k], PackedRTree::kNoNode, off, id});
      }
    } else {
      MinDistCornerBatchSoa(planes, n.first_entry, n.entry_count, os,
                            tcoords.data(), cap, tdist.data());
      for (uint32_t k = 0; k < n.entry_count; ++k) {
        if (hit[k] == 0) continue;
        for (size_t j = 0; j < d; ++j) buf[j] = tcoords[j * cap + k];
        if (dominated(buf.data())) {
          ++pruned_entries;
          continue;
        }
        heap.push({tdist[k], products.entry_child(n.first_entry + k), 0, -1});
      }
    }
  }
  std::sort(skyline_ids.begin(), skyline_ids.end());
  flush();
  return skyline_ids;
}

std::vector<size_t> WindowQueryBrute(const std::vector<Point>& products,
                                     const Point& c, const Point& q,
                                     std::optional<size_t> exclude_index) {
  std::vector<size_t> out;
  for (size_t i = 0; i < products.size(); ++i) {
    if (exclude_index.has_value() && i == *exclude_index) continue;
    if (InWindow(products[i], c, q)) out.push_back(i);
  }
  return out;
}

}  // namespace wnrs
