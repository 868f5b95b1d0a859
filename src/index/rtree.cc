#include "index/rtree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"

namespace wnrs {

namespace {

// Entries are stored as (mbr, pointer-or-id); the byte model charges two
// corner points plus one 8-byte reference per entry and a small node
// header, matching how the paper's XXL R-tree pages would be laid out.
size_t ComputeMaxEntries(size_t dims, size_t page_size_bytes) {
  const size_t entry_bytes = dims * 2 * sizeof(double) + sizeof(int64_t);
  const size_t header_bytes = 16;
  const size_t budget =
      page_size_bytes > header_bytes ? page_size_bytes - header_bytes : 0;
  return std::max<size_t>(4, budget / entry_bytes);
}

}  // namespace

RStarTree::RStarTree(size_t dims, RTreeOptions options)
    : dims_(dims), options_(options) {
  WNRS_CHECK(dims >= 1);
  max_entries_ = ComputeMaxEntries(dims, options_.page_size_bytes);
  min_entries_ = std::max<size_t>(
      2, static_cast<size_t>(max_entries_ * options_.min_fill_ratio));
  WNRS_CHECK(min_entries_ * 2 <= max_entries_ + 1);
  root_ = new Node();
}

RStarTree::~RStarTree() { FreeSubtree(root_); }

RStarTree::RStarTree(RStarTree&& other) noexcept { *this = std::move(other); }

RStarTree& RStarTree::operator=(RStarTree&& other) noexcept {
  if (this == &other) return *this;
  FreeSubtree(root_);
  dims_ = other.dims_;
  options_ = other.options_;
  max_entries_ = other.max_entries_;
  min_entries_ = other.min_entries_;
  root_ = other.root_;
  size_ = other.size_;
  height_ = other.height_;
  node_reads_.store(other.node_reads_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  other.root_ = nullptr;
  other.size_ = 0;
  other.height_ = 1;
  return *this;
}

RStarTree RStarTree::Clone() const {
  RStarTree copy(dims_, options_);
  // Iterative deep copy (pairs of source node / destination node), so
  // cloning is stack-safe at any tree height.
  copy.FreeSubtree(copy.root_);
  copy.root_ = new Node();
  std::vector<std::pair<const Node*, Node*>> pending = {{root_, copy.root_}};
  while (!pending.empty()) {
    const auto [src, dst] = pending.back();
    pending.pop_back();
    dst->is_leaf = src->is_leaf;
    dst->entries = src->entries;
    if (!src->is_leaf) {
      for (Entry& e : dst->entries) {
        Node* child = new Node();
        child->parent = dst;
        pending.emplace_back(e.child, child);
        e.child = child;
      }
    }
  }
  copy.size_ = size_;
  copy.height_ = height_;
  return copy;
}

void RStarTree::FreeSubtree(Node* node) {
  if (node == nullptr) return;
  if (!node->is_leaf) {
    for (Entry& e : node->entries) {
      FreeSubtree(e.child);
    }
  }
  delete node;
}

Rectangle RStarTree::NodeMbr(const Node& node) {
  WNRS_CHECK(!node.entries.empty());
  Rectangle mbr = node.entries.front().mbr;
  for (size_t i = 1; i < node.entries.size(); ++i) {
    mbr = mbr.BoundingUnion(node.entries[i].mbr);
  }
  return mbr;
}

size_t RStarTree::LevelOf(const Node* node) const {
  size_t hops = 0;
  for (const Node* n = node; n->parent != nullptr; n = n->parent) ++hops;
  return (height_ - 1) - hops;
}

void RStarTree::Insert(const Point& p, Id id) {
  Insert(Rectangle::FromPoint(p), id);
}

void RStarTree::Insert(const Rectangle& r, Id id) {
  WNRS_CHECK(r.dims() == dims_);
  Entry entry;
  entry.mbr = r;
  entry.id = id;
  std::vector<bool> reinserted(height_, false);
  InsertAtLevel(std::move(entry), /*target_level=*/0, /*is_data_level=*/true,
                &reinserted);
  ++size_;
}

RStarTree::Node* RStarTree::ChooseSubtree(const Rectangle& r,
                                          size_t target_level) const {
  Node* node = root_;
  size_t level = height_ - 1;
  while (level > target_level) {
    WNRS_CHECK(!node->is_leaf);
    std::vector<Entry>& entries = node->entries;
    size_t best = 0;
    if (level - 1 == 0) {
      // Children are leaves: minimize overlap enlargement (R* rule),
      // breaking ties by area enlargement, then by area.
      double best_overlap_delta = std::numeric_limits<double>::infinity();
      double best_area_delta = std::numeric_limits<double>::infinity();
      double best_area = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < entries.size(); ++i) {
        const Rectangle enlarged = entries[i].mbr.BoundingUnion(r);
        double overlap_before = 0.0;
        double overlap_after = 0.0;
        for (size_t j = 0; j < entries.size(); ++j) {
          if (j == i) continue;
          overlap_before += entries[i].mbr.OverlapVolume(entries[j].mbr);
          overlap_after += enlarged.OverlapVolume(entries[j].mbr);
        }
        const double overlap_delta = overlap_after - overlap_before;
        const double area = entries[i].mbr.Volume();
        const double area_delta = enlarged.Volume() - area;
        if (overlap_delta < best_overlap_delta ||
            (overlap_delta == best_overlap_delta &&
             (area_delta < best_area_delta ||
              (area_delta == best_area_delta && area < best_area)))) {
          best = i;
          best_overlap_delta = overlap_delta;
          best_area_delta = area_delta;
          best_area = area;
        }
      }
    } else {
      // Children are internal: minimize area enlargement, ties by area.
      double best_area_delta = std::numeric_limits<double>::infinity();
      double best_area = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < entries.size(); ++i) {
        const double area = entries[i].mbr.Volume();
        const double area_delta =
            entries[i].mbr.BoundingUnion(r).Volume() - area;
        if (area_delta < best_area_delta ||
            (area_delta == best_area_delta && area < best_area)) {
          best = i;
          best_area_delta = area_delta;
          best_area = area;
        }
      }
    }
    node = entries[best].child;
    --level;
  }
  return node;
}

void RStarTree::InsertAtLevel(Entry entry, size_t target_level,
                              bool is_data_level,
                              std::vector<bool>* reinserted_at_level) {
  Node* node = ChooseSubtree(entry.mbr, target_level);
  if (!is_data_level) {
    WNRS_CHECK(entry.child != nullptr);
    entry.child->parent = node;
  }
  node->entries.push_back(std::move(entry));
  MetricAdd(CounterId::kRTreeNodeWrites);
  AdjustUpward(node);
  if (node->entries.size() > max_entries_) {
    OverflowTreatment(node, target_level, reinserted_at_level);
  }
}

void RStarTree::OverflowTreatment(Node* node, size_t level,
                                  std::vector<bool>* reinserted_at_level) {
  if (node != root_ && level < reinserted_at_level->size() &&
      !(*reinserted_at_level)[level]) {
    (*reinserted_at_level)[level] = true;
    Reinsert(node, level, reinserted_at_level);
  } else {
    SplitNode(node);
  }
}

void RStarTree::Reinsert(Node* node, size_t level,
                         std::vector<bool>* reinserted_at_level) {
  const Point center = NodeMbr(*node).Center();
  // Order entries by distance of their centers from the node center.
  std::vector<std::pair<double, size_t>> order(node->entries.size());
  for (size_t i = 0; i < node->entries.size(); ++i) {
    const Point c = node->entries[i].mbr.Center();
    order[i] = {c.L2Distance(center), i};
  }
  std::sort(order.begin(), order.end());

  size_t p = std::max<size_t>(
      1, static_cast<size_t>(max_entries_ * options_.reinsert_fraction));
  p = std::min(p, node->entries.size() - min_entries_);

  // Evict the p farthest entries; keep the rest in original relative order.
  std::vector<Entry> keep;
  std::vector<Entry> evicted;
  keep.reserve(node->entries.size() - p);
  evicted.reserve(p);
  std::vector<bool> evict_mask(node->entries.size(), false);
  for (size_t k = 0; k < p; ++k) {
    evict_mask[order[order.size() - 1 - k].second] = true;
  }
  for (size_t i = 0; i < node->entries.size(); ++i) {
    if (evict_mask[i]) {
      evicted.push_back(std::move(node->entries[i]));
    } else {
      keep.push_back(std::move(node->entries[i]));
    }
  }
  node->entries = std::move(keep);
  MetricAdd(CounterId::kRTreeReinserts, evicted.size());
  MetricAdd(CounterId::kRTreeNodeWrites);
  AdjustUpward(node);

  // "Close reinsert": nearest evictees first.
  std::reverse(evicted.begin(), evicted.end());
  const bool is_data_level = node->is_leaf;
  for (Entry& e : evicted) {
    InsertAtLevel(std::move(e), level, is_data_level, reinserted_at_level);
  }
}

void RStarTree::SplitNode(Node* node) {
  MetricAdd(CounterId::kRTreeSplits);
  MetricAdd(CounterId::kRTreeNodeWrites, 2);  // Both halves rewritten.
  std::vector<Entry>& entries = node->entries;
  const size_t total = entries.size();
  const size_t m = min_entries_;
  WNRS_CHECK(total >= 2 * m);

  // ChooseSplitAxis: pick the axis minimizing the total margin over all
  // candidate distributions of both (lo- and hi-) sorts.
  size_t best_axis = 0;
  double best_axis_margin = std::numeric_limits<double>::infinity();
  for (size_t axis = 0; axis < dims_; ++axis) {
    for (int by_hi = 0; by_hi < 2; ++by_hi) {
      std::vector<size_t> idx(total);
      for (size_t i = 0; i < total; ++i) idx[i] = i;
      std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
        const double ka =
            by_hi ? entries[a].mbr.hi()[axis] : entries[a].mbr.lo()[axis];
        const double kb =
            by_hi ? entries[b].mbr.hi()[axis] : entries[b].mbr.lo()[axis];
        return ka < kb;
      });
      double margin_sum = 0.0;
      for (size_t k = m; k <= total - m; ++k) {
        Rectangle g1 = entries[idx[0]].mbr;
        for (size_t i = 1; i < k; ++i) g1 = g1.BoundingUnion(entries[idx[i]].mbr);
        Rectangle g2 = entries[idx[k]].mbr;
        for (size_t i = k + 1; i < total; ++i) {
          g2 = g2.BoundingUnion(entries[idx[i]].mbr);
        }
        margin_sum += g1.Margin() + g2.Margin();
      }
      if (margin_sum < best_axis_margin) {
        best_axis_margin = margin_sum;
        best_axis = axis;
      }
    }
  }

  // ChooseSplitIndex along best_axis: minimize overlap, ties by total area.
  std::vector<size_t> best_idx;
  size_t best_k = m;
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (int by_hi = 0; by_hi < 2; ++by_hi) {
    std::vector<size_t> idx(total);
    for (size_t i = 0; i < total; ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
      const double ka = by_hi ? entries[a].mbr.hi()[best_axis]
                              : entries[a].mbr.lo()[best_axis];
      const double kb = by_hi ? entries[b].mbr.hi()[best_axis]
                              : entries[b].mbr.lo()[best_axis];
      return ka < kb;
    });
    for (size_t k = m; k <= total - m; ++k) {
      Rectangle g1 = entries[idx[0]].mbr;
      for (size_t i = 1; i < k; ++i) g1 = g1.BoundingUnion(entries[idx[i]].mbr);
      Rectangle g2 = entries[idx[k]].mbr;
      for (size_t i = k + 1; i < total; ++i) {
        g2 = g2.BoundingUnion(entries[idx[i]].mbr);
      }
      const double overlap = g1.OverlapVolume(g2);
      const double area = g1.Volume() + g2.Volume();
      if (overlap < best_overlap ||
          (overlap == best_overlap && area < best_area)) {
        best_overlap = overlap;
        best_area = area;
        best_idx = idx;
        best_k = k;
      }
    }
  }

  // Materialize the two groups.
  Node* sibling = new Node();
  sibling->is_leaf = node->is_leaf;
  std::vector<Entry> group1;
  group1.reserve(best_k);
  for (size_t i = 0; i < best_k; ++i) {
    group1.push_back(std::move(entries[best_idx[i]]));
  }
  for (size_t i = best_k; i < total; ++i) {
    sibling->entries.push_back(std::move(entries[best_idx[i]]));
  }
  node->entries = std::move(group1);
  if (!sibling->is_leaf) {
    for (Entry& e : sibling->entries) e.child->parent = sibling;
  }

  if (node == root_) {
    Node* new_root = new Node();
    new_root->is_leaf = false;
    Entry e1;
    e1.mbr = NodeMbr(*node);
    e1.child = node;
    Entry e2;
    e2.mbr = NodeMbr(*sibling);
    e2.child = sibling;
    new_root->entries.push_back(std::move(e1));
    new_root->entries.push_back(std::move(e2));
    node->parent = new_root;
    sibling->parent = new_root;
    root_ = new_root;
    ++height_;
    return;
  }

  Node* parent = node->parent;
  sibling->parent = parent;
  AdjustUpward(node);
  Entry sibling_entry;
  sibling_entry.mbr = NodeMbr(*sibling);
  sibling_entry.child = sibling;
  parent->entries.push_back(std::move(sibling_entry));
  AdjustUpward(parent);
  if (parent->entries.size() > max_entries_) {
    // Propagate the split upward. (Forced reinsertion applies once per
    // level per data insertion; upward propagation after a split goes
    // straight to splitting, which the caller's reinsert flags encode.)
    SplitNode(parent);
  }
}

void RStarTree::AdjustUpward(Node* node) {
  Node* child = node;
  Node* parent = child->parent;
  while (parent != nullptr) {
    bool found = false;
    for (Entry& e : parent->entries) {
      if (e.child == child) {
        e.mbr = NodeMbr(*child);
        found = true;
        break;
      }
    }
    WNRS_CHECK(found);
    child = parent;
    parent = child->parent;
  }
}

bool RStarTree::Delete(const Rectangle& r, Id id) {
  WNRS_CHECK(r.dims() == dims_);
  // Find the leaf holding (r, id).
  Node* target_leaf = nullptr;
  size_t target_slot = 0;
  std::vector<Node*> stack = {root_};
  while (!stack.empty() && target_leaf == nullptr) {
    Node* node = stack.back();
    stack.pop_back();
    CountNodeRead();
    if (node->is_leaf) {
      for (size_t i = 0; i < node->entries.size(); ++i) {
        if (node->entries[i].id == id && node->entries[i].mbr == r) {
          target_leaf = node;
          target_slot = i;
          break;
        }
      }
    } else {
      for (Entry& e : node->entries) {
        if (e.mbr.ContainsRect(r)) stack.push_back(e.child);
      }
    }
  }
  if (target_leaf == nullptr) return false;

  target_leaf->entries.erase(target_leaf->entries.begin() +
                             static_cast<ptrdiff_t>(target_slot));
  MetricAdd(CounterId::kRTreeNodeWrites);
  --size_;

  // CondenseTree: walk up removing underfull nodes, collecting their
  // entries (with levels) for reinsertion.
  std::vector<std::pair<Entry, size_t>> orphans;
  Node* node = target_leaf;
  while (node != root_) {
    Node* parent = node->parent;
    if (node->entries.size() < min_entries_) {
      // Entries of a node at level L live at level L (data entries at 0).
      const size_t node_level = LevelOf(node);
      for (Entry& e : node->entries) {
        orphans.emplace_back(std::move(e), node->is_leaf ? 0 : node_level);
      }
      // Unlink from parent.
      for (size_t i = 0; i < parent->entries.size(); ++i) {
        if (parent->entries[i].child == node) {
          parent->entries.erase(parent->entries.begin() +
                                static_cast<ptrdiff_t>(i));
          break;
        }
      }
      delete node;
    } else {
      AdjustUpward(node);
    }
    node = parent;
  }

  // Shrink the root while it is an internal node with a single child.
  while (!root_->is_leaf && root_->entries.size() == 1) {
    Node* child = root_->entries.front().child;
    child->parent = nullptr;
    delete root_;
    root_ = child;
    --height_;
  }
  if (!root_->is_leaf && root_->entries.empty()) {
    // All children condensed away; reset to an empty leaf root.
    root_->is_leaf = true;
    height_ = 1;
  }

  // Reinsert orphans, lower levels first. A subtree entry whose level no
  // longer exists (the tree shrank) is decomposed into its child's entries
  // one level down rather than force-placed, keeping leaf depth uniform.
  std::sort(orphans.begin(), orphans.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  for (size_t i = 0; i < orphans.size(); ++i) {
    Entry entry = std::move(orphans[i].first);
    const size_t level = orphans[i].second;
    const bool is_data = entry.child == nullptr;
    if (!is_data && level >= height_) {
      Node* child = entry.child;
      for (Entry& e : child->entries) {
        orphans.emplace_back(std::move(e), child->is_leaf ? 0 : level - 1);
      }
      delete child;
      continue;
    }
    std::vector<bool> reinserted(height_, false);
    InsertAtLevel(std::move(entry), is_data ? 0 : level, is_data,
                  &reinserted);
  }
  return true;
}

void RStarTree::RangeQuery(
    const Rectangle& window,
    const std::function<bool(const Rectangle&, Id)>& visit) const {
  WNRS_CHECK(window.dims() == dims_);
  std::vector<const Node*> stack = {root_};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    CountNodeRead();
    if (node->is_leaf) {
      for (const Entry& e : node->entries) {
        if (e.mbr.Intersects(window)) {
          if (!visit(e.mbr, e.id)) return;
        }
      }
    } else {
      for (const Entry& e : node->entries) {
        if (e.mbr.Intersects(window)) stack.push_back(e.child);
      }
    }
  }
}

std::vector<RStarTree::Id> RStarTree::RangeQueryIds(
    const Rectangle& window) const {
  std::vector<Id> out;
  RangeQuery(window, [&](const Rectangle&, Id id) {
    out.push_back(id);
    return true;
  });
  // Sorted output: callers get a canonical order independent of tree
  // shape, so results compare equal across Clone()s and packed freezes.
  std::sort(out.begin(), out.end());
  return out;
}

bool RStarTree::AnyInRange(
    const Rectangle& window,
    const std::function<bool(const Rectangle&, Id)>& predicate) const {
  bool found = false;
  RangeQuery(window, [&](const Rectangle& mbr, Id id) {
    if (predicate == nullptr || predicate(mbr, id)) {
      found = true;
      return false;  // Stop the traversal.
    }
    return true;
  });
  return found;
}

std::vector<std::pair<RStarTree::Id, double>> RStarTree::NearestNeighbors(
    const Point& p, size_t k) const {
  WNRS_CHECK(p.dims() == dims_);
  struct QueueItem {
    double dist2;
    const Node* node;   // nullptr for leaf entries
    Rectangle mbr;      // valid for leaf entries
    Id id;
    bool operator>(const QueueItem& other) const {
      return dist2 > other.dist2;
    }
  };
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>> pq;
  pq.push({0.0, root_, Rectangle(), -1});
  std::vector<std::pair<Id, double>> out;
  while (!pq.empty() && out.size() < k) {
    QueueItem item = pq.top();
    pq.pop();
    if (item.node == nullptr) {
      out.emplace_back(item.id, std::sqrt(item.dist2));
      continue;
    }
    CountNodeRead();
    for (const Entry& e : item.node->entries) {
      if (item.node->is_leaf) {
        pq.push({e.mbr.MinDistSquared(p), nullptr, e.mbr, e.id});
      } else {
        pq.push({e.mbr.MinDistSquared(p), e.child, Rectangle(), -1});
      }
    }
  }
  return out;
}

namespace {

struct CheckContext {
  size_t leaf_depth = 0;
  bool leaf_depth_set = false;
  size_t data_entries = 0;
};

/// True iff `mbr` equals the Rectangle::BoundingUnion fold of the
/// children's MBRs, computed in place one dimension at a time. The fold
/// keeps its other operand when one side is empty, so it starts at the
/// first non-empty child (the last child when all are empty) and skips
/// the empty ones after it.
bool MbrBoundsChildren(const Rectangle& mbr,
                       const std::vector<RStarTree::Entry>& children) {
  for (const RStarTree::Entry& c : children) {
    if (c.mbr.dims() != mbr.dims()) return false;
  }
  size_t first = 0;
  while (first + 1 < children.size() && children[first].mbr.IsEmpty()) {
    ++first;
  }
  for (size_t i = 0; i < mbr.dims(); ++i) {
    double lo = children[first].mbr.lo()[i];
    double hi = children[first].mbr.hi()[i];
    for (size_t j = first + 1; j < children.size(); ++j) {
      const Rectangle& r = children[j].mbr;
      if (r.IsEmpty()) continue;
      lo = std::min(lo, r.lo()[i]);
      hi = std::max(hi, r.hi()[i]);
    }
    if (!(mbr.lo()[i] == lo && mbr.hi()[i] == hi)) return false;
  }
  return true;
}

Status CheckNode(const RStarTree::Node* node, const RStarTree::Node* parent,
                 size_t depth, size_t min_entries, size_t max_entries,
                 bool is_root, CheckContext* ctx) {
  if (node->parent != parent) {
    return Status::Internal("bad parent pointer");
  }
  if (!is_root && node->entries.size() < min_entries) {
    return Status::Internal(
        StrFormat("underfull node: %zu < %zu", node->entries.size(),
                  min_entries));
  }
  if (node->entries.size() > max_entries) {
    return Status::Internal("overfull node");
  }
  if (is_root && !node->is_leaf && node->entries.size() < 2) {
    return Status::Internal("internal root with < 2 children");
  }
  if (node->is_leaf) {
    if (ctx->leaf_depth_set && ctx->leaf_depth != depth) {
      return Status::Internal("non-uniform leaf depth");
    }
    ctx->leaf_depth = depth;
    ctx->leaf_depth_set = true;
    ctx->data_entries += node->entries.size();
    return Status::Ok();
  }
  for (const RStarTree::Entry& e : node->entries) {
    if (e.child == nullptr || e.child->entries.empty()) {
      return Status::Internal("internal entry without a non-empty child");
    }
    if (!MbrBoundsChildren(e.mbr, e.child->entries)) {
      return Status::Internal("stale parent MBR");
    }
    WNRS_RETURN_IF_ERROR(CheckNode(e.child, node, depth + 1, min_entries,
                                   max_entries, false, ctx));
  }
  return Status::Ok();
}

}  // namespace

Status RStarTree::ValidateOptions(const RTreeOptions& options) {
  // min_fill_ratio <= 0.5 keeps the constructor's 2m <= M + 1 check
  // true at every fan-out ComputeMaxEntries can return.
  if (!(options.min_fill_ratio > 0.0) || !(options.min_fill_ratio <= 0.5) ||
      !(options.reinsert_fraction >= 0.0) ||
      !(options.reinsert_fraction < 1.0) || options.page_size_bytes == 0 ||
      options.page_size_bytes > (size_t{1} << 30)) {
    return Status::InvalidArgument(StrFormat(
        "[tree-shape] implausible R*-tree knobs: page %zu B, min fill %g, "
        "reinsert %g",
        options.page_size_bytes, options.min_fill_ratio,
        options.reinsert_fraction));
  }
  return Status::Ok();
}

Status RStarTree::CheckInvariants() const {
  if (root_ == nullptr) return Status::Internal("null root");
  if (size_ == 0) {
    if (!root_->is_leaf || !root_->entries.empty()) {
      return Status::Internal("empty tree with non-empty root");
    }
    return Status::Ok();
  }
  CheckContext ctx;
  WNRS_RETURN_IF_ERROR(CheckNode(root_, nullptr, 0, min_entries_,
                                 max_entries_, true, &ctx));
  if (ctx.data_entries != size_) {
    return Status::Internal(StrFormat("size mismatch: %zu leaves vs size %zu",
                                      ctx.data_entries, size_));
  }
  if (ctx.leaf_depth_set && ctx.leaf_depth + 1 != height_) {
    return Status::Internal("height mismatch");
  }
  return Status::Ok();
}

}  // namespace wnrs
