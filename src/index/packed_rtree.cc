#include "index/packed_rtree.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "geometry/kernels.h"

namespace wnrs {

PackedRTree& PackedRTree::operator=(PackedRTree&& other) noexcept {
  if (this == &other) return *this;
  dims_ = other.dims_;
  size_ = other.size_;
  height_ = other.height_;
  max_node_entries_ = other.max_node_entries_;
  plane_stride_ = other.plane_stride_;
  // Moving the vectors preserves their data() pointers, so the views in
  // `other` stay valid for the moved-to object; mapped backings transfer
  // wholesale via the shared_ptr.
  nodes_vec_ = std::move(other.nodes_vec_);
  planes_vec_ = std::move(other.planes_vec_);
  refs_vec_ = std::move(other.refs_vec_);
  backing_ = std::move(other.backing_);
  nodes_ = other.nodes_;
  planes_ = other.planes_;
  refs_ = other.refs_;
  num_nodes_ = other.num_nodes_;
  num_entries_ = other.num_entries_;
  node_reads_.store(other.node_reads_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  return *this;
}

PackedRTree PackedRTree::Freeze(const RStarTree& tree) {
  const auto start = std::chrono::steady_clock::now();
  PackedRTree out;
  out.dims_ = tree.dims();
  out.size_ = tree.size();
  out.height_ = tree.height();

  // Pass 1: pre-order walk assigning arena indices, so every subtree is
  // contiguous (parent before children, children in entry order — the
  // order best-first and stack traversals touch them).
  std::vector<const RStarTree::Node*> order;
  std::vector<std::pair<const RStarTree::Node*, uint32_t>> index;
  std::vector<const RStarTree::Node*> stack = {tree.root()};
  size_t total_entries = 0;
  while (!stack.empty()) {
    const RStarTree::Node* src = stack.back();
    stack.pop_back();
    index.emplace_back(src, static_cast<uint32_t>(order.size()));
    order.push_back(src);
    total_entries += src->entries.size();
    if (!src->is_leaf) {
      // Reverse push so the pre-order visits children in entry order.
      for (size_t i = src->entries.size(); i > 0; --i) {
        stack.push_back(src->entries[i - 1].child);
      }
    }
  }
  // Strictly below the sentinel: a child index equal to kNoNode would be
  // indistinguishable from "no node" in the traversal heaps, and
  // anything larger would truncate when entry_child narrows the ref.
  WNRS_CHECK(order.size() <= static_cast<size_t>(kNoNode) - 1);
  WNRS_CHECK(total_entries < static_cast<size_t>(kNoNode));

  // index was appended in pre-order; child lookups need the mapping by
  // pointer. The vector doubles as the map: sort once, binary search per
  // child link.
  std::sort(index.begin(), index.end());
  auto index_of = [&index](const RStarTree::Node* n) {
    auto it = std::lower_bound(
        index.begin(), index.end(), n,
        [](const auto& a, const RStarTree::Node* key) { return a.first < key; });
    WNRS_CHECK(it != index.end() && it->first == n);
    return it->second;
  };

  // Pass 2: fill the arena and the entry slabs. The coordinate planes
  // are NaN-filled first so the KernelPad padding lanes past the last
  // entry read as quiet NaN (which fails every kernel predicate), then
  // live entries overwrite their column in each plane.
  out.plane_stride_ = KernelPad(total_entries);
  out.planes_vec_.assign(2 * out.dims_ * out.plane_stride_,
                         std::numeric_limits<double>::quiet_NaN());
  out.nodes_vec_.reserve(order.size());
  out.refs_vec_.reserve(total_entries);
  for (const RStarTree::Node* src : order) {
    Node node;
    node.first_entry = static_cast<uint32_t>(out.refs_vec_.size());
    node.entry_count = static_cast<uint32_t>(src->entries.size());
    node.is_leaf = src->is_leaf ? 1 : 0;
    out.nodes_vec_.push_back(node);
    out.max_node_entries_ =
        std::max(out.max_node_entries_, src->entries.size());
    for (const RStarTree::Entry& e : src->entries) {
      const size_t col = out.refs_vec_.size();
      const Point& lo = e.mbr.lo();
      const Point& hi = e.mbr.hi();
      for (size_t j = 0; j < out.dims_; ++j) {
        out.planes_vec_[j * out.plane_stride_ + col] = lo[j];
        out.planes_vec_[(out.dims_ + j) * out.plane_stride_ + col] = hi[j];
      }
      out.refs_vec_.push_back(src->is_leaf
                                  ? e.id
                                  : static_cast<int64_t>(index_of(e.child)));
    }
  }
  out.SetOwnedViews();

  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  MetricAdd(CounterId::kPackedFreezes);
  MetricAdd(CounterId::kPackedFreezeNanos, static_cast<uint64_t>(ns));
  return out;
}

Result<RStarTree> PackedRTree::Thaw(const RTreeOptions& options) const {
  WNRS_RETURN_IF_ERROR(RStarTree::ValidateOptions(options));
  RStarTree tree(dims_, options);
  // made[i] is the dynamic twin of arena node i once an entry has
  // claimed it. Every node built so far is linked into `tree`, so an
  // early return frees it with the tree, and a node claimed twice is
  // refused rather than aliased.
  std::vector<RStarTree::Node*> made(num_nodes_, nullptr);
  made[root()] = tree.root_;
  std::vector<uint32_t> stack = {root()};
  while (!stack.empty()) {
    const uint32_t ni = stack.back();
    stack.pop_back();
    const Node& n = nodes_[ni];
    RStarTree::Node* dst = made[ni];
    dst->is_leaf = n.is_leaf != 0;
    dst->entries.reserve(n.entry_count);
    for (uint32_t e = n.first_entry; e < n.first_entry + n.entry_count; ++e) {
      RStarTree::Entry entry;
      entry.mbr = EntryRect(e);
      if (dst->is_leaf) {
        entry.id = refs_[e];
      } else {
        const int64_t ref = refs_[e];
        if (ref < 0 || static_cast<uint64_t>(ref) >= num_nodes_ ||
            made[static_cast<size_t>(ref)] != nullptr) {
          return Status::InvalidArgument(StrFormat(
              "[tree-shape] entry %u does not link an unclaimed node", e));
        }
        auto child = std::make_unique<RStarTree::Node>();
        child->parent = dst;
        made[static_cast<size_t>(ref)] = child.get();
        entry.child = child.release();
        stack.push_back(static_cast<uint32_t>(ref));
      }
      dst->entries.push_back(std::move(entry));
    }
  }
  tree.size_ = size_;
  tree.height_ = height_;
  const Status shape = tree.CheckInvariants();
  if (!shape.ok()) {
    return Status::InvalidArgument("[tree-shape] thawed tree: " +
                                   shape.message());
  }
  return tree;
}

Rectangle PackedRTree::EntryRect(uint32_t e) const {
  Point lo(dims_);
  Point hi(dims_);
  for (size_t j = 0; j < dims_; ++j) {
    lo[j] = entry_lo(e, j);
    hi[j] = entry_hi(e, j);
  }
  return Rectangle(std::move(lo), std::move(hi));
}

std::vector<PackedRTree::Id> PackedRTree::RangeQueryIds(
    const Rectangle& window) const {
  WNRS_CHECK(window.dims() == dims_);
  const double* wlo = window.lo().coords().data();
  const double* whi = window.hi().coords().data();
  const SoaPlanes p = planes();
  std::vector<unsigned char> hit(KernelPad(max_node_entries_));
  std::vector<Id> out;
  std::vector<uint32_t> stack = {root()};
  while (!stack.empty()) {
    const uint32_t ni = stack.back();
    stack.pop_back();
    CountNodeRead();
    const Node& n = nodes_[ni];
    BoxOverlapMaskSoa(p, n.first_entry, n.entry_count, wlo, whi, hit.data());
    for (uint32_t k = 0; k < n.entry_count; ++k) {
      if (hit[k] == 0) continue;
      const uint32_t e = n.first_entry + k;
      if (n.is_leaf != 0) {
        out.push_back(refs_[e]);
      } else {
        stack.push_back(entry_child(e));
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Status PackedRTree::CheckInvariants() const {
  if (num_nodes_ == 0) {
    return Status::Internal("packed tree has no nodes");
  }
  if (num_nodes_ > static_cast<size_t>(kNoNode) - 1) {
    return Status::Internal(StrFormat(
        "node count %zu exceeds the child-index range", num_nodes_));
  }
  if (plane_stride_ < KernelPad(num_entries_)) {
    return Status::Internal("coordinate planes not padded to kernel width");
  }
  for (size_t j = 0; j < 2 * dims_; ++j) {
    const double* plane = planes_ + j * plane_stride_;
    for (size_t e = num_entries_; e < plane_stride_; ++e) {
      if (plane[e] == plane[e]) {
        return Status::Internal(
            StrFormat("plane %zu padding lane %zu is not NaN", j, e));
      }
    }
  }
  size_t data_entries = 0;
  std::vector<std::pair<uint32_t, size_t>> stack = {{root(), 1}};
  std::vector<bool> visited(num_nodes_, false);
  size_t leaf_depth = 0;
  while (!stack.empty()) {
    const auto [ni, depth] = stack.back();
    stack.pop_back();
    if (ni >= num_nodes_) {
      return Status::Internal(StrFormat("child index %u out of range", ni));
    }
    if (visited[ni]) {
      return Status::Internal(StrFormat("node %u reachable twice", ni));
    }
    visited[ni] = true;
    const Node& n = nodes_[ni];
    const size_t end = static_cast<size_t>(n.first_entry) + n.entry_count;
    if (end > num_entries_) {
      return Status::Internal(StrFormat("node %u entry slice out of range", ni));
    }
    if (n.is_leaf != 0) {
      data_entries += n.entry_count;
      if (leaf_depth == 0) {
        leaf_depth = depth;
      } else if (leaf_depth != depth) {
        return Status::Internal("leaves at non-uniform depth");
      }
      if (depth != height_) {
        return Status::Internal(
            StrFormat("leaf depth %zu != height %zu", depth, height_));
      }
    } else {
      for (uint32_t e = n.first_entry; e < n.first_entry + n.entry_count;
           ++e) {
        // Range-check the raw ref before it narrows to a child index:
        // refs_ is shared with 64-bit data ids, so corruption must
        // surface as a status, not a silent truncation.
        const int64_t ref = refs_[e];
        if (ref < 0 || static_cast<uint64_t>(ref) >= num_nodes_) {
          return Status::Internal(StrFormat(
              "internal entry %u ref %lld outside the node arena", e,
              static_cast<long long>(ref)));
        }
        stack.emplace_back(static_cast<uint32_t>(ref), depth + 1);
      }
    }
  }
  if (data_entries != size_) {
    return Status::Internal(StrFormat("entry count %zu != size %zu",
                                      data_entries, size_));
  }
  for (size_t ni = 0; ni < num_nodes_; ++ni) {
    if (!visited[ni]) {
      return Status::Internal(StrFormat("node %zu unreachable", ni));
    }
  }
  return Status::Ok();
}

}  // namespace wnrs
