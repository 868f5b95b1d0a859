#ifndef WNRS_INDEX_PACKED_RTREE_H_
#define WNRS_INDEX_PACKED_RTREE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "geometry/kernels.h"
#include "geometry/rectangle.h"
#include "index/rtree.h"

namespace wnrs {

namespace storage {
class PackedSlabIO;
}  // namespace storage

/// Arena-backed, immutable flat image of an RStarTree — the read-path
/// half of the engine's copy-on-write split. The dynamic pointer tree
/// stays the mutation path; at snapshot-publish time the engine freezes
/// it into this packed form and every query algorithm (BBS, BBRS, window
/// queries) traverses the frozen copy instead.
///
/// Layout: all nodes live contiguously in one arena and address their
/// children by uint32_t index, so a traversal touches a few dense arrays
/// instead of pointer-chasing heap nodes. Entry MBRs are stored as
/// structure-of-arrays coordinate *planes*: one contiguous double plane
/// per lower coordinate, then one per upper ([lo_0 of every entry][lo_1
/// of every entry]...[hi_0 of every entry]...), entries of one node
/// occupying a contiguous index range of every plane. Each plane is
/// padded to KernelPad(num_entries()) with quiet NaNs so the SIMD batch
/// kernels in geometry/kernels.h can stream full-width vectors over a
/// node's entries without tail masking — output lanes past a node's
/// entry count are scratch the traversals never read. Child links and
/// leaf data ids share one int64_t slab (disambiguated by the node's
/// is_leaf flag).
///
/// Freeze() is structure-preserving: node contents and entry order match
/// the source tree exactly, so a packed traversal makes the same pruning
/// decisions, visits the same nodes in the same order, and reports the
/// same node-read counts as the dynamic traversal it replaces — the
/// packed/dynamic parity tests pin this bit for bit.
///
/// The three slabs are accessed through const views so the backing can
/// be either owned vectors (Freeze, buffered slab load) or a read-only
/// file mapping held alive by `backing_` (storage::OpenPackedMapped) —
/// traversals are byte-for-byte the same code either way.
///
/// Move-only, like RStarTree. Immutable after Freeze, so concurrent
/// reads need no synchronization; the node-read counter is atomic.
class PackedRTree {
 public:
  using Id = RStarTree::Id;

  /// Sentinel child index ("no node"); also the data-entry marker in the
  /// packed traversal heaps. Freeze rejects trees with more than
  /// kNoNode - 1 nodes so a stored child index can never collide with
  /// the sentinel or truncate (child links ride in the int64_t refs
  /// slab and narrow to uint32_t on read).
  static constexpr uint32_t kNoNode = UINT32_MAX;

  /// One arena node: a [first_entry, first_entry + entry_count) slice of
  /// the entry slabs. Trivially copyable with a fixed 12-byte layout —
  /// the on-disk slab format (storage/packed_slab.h) stores the node
  /// arena as these raw structs and maps them back untranslated.
  struct Node {
    uint32_t first_entry = 0;
    uint32_t entry_count = 0;
    uint32_t is_leaf = 1;
  };
  static_assert(sizeof(Node) == 12 && std::is_trivially_copyable_v<Node>,
                "Node is memcpy'd into the on-disk slab format");

  /// Query-side traversal statistics (mirrors RStarTree::Stats).
  struct Stats {
    uint64_t node_reads = 0;
  };

  /// Freezes a packed image of `tree`. O(number of entries); the cost is
  /// recorded in the packed.freezes / packed.freeze_ns metrics so the
  /// mutation path's publish overhead stays observable.
  [[nodiscard]] static PackedRTree Freeze(const RStarTree& tree);

  /// Inverse of Freeze: rebuilds the dynamic tree this image was frozen
  /// from, for the mutation path of an engine opened from a bundle. Arena
  /// node i becomes one RStarTree::Node with its entries in slab order
  /// and parent links set, so Freeze(Thaw(p)) reproduces p byte for byte
  /// and later mutations match those of the source tree. `options` must
  /// be the knobs that tree was built with. A shape they cannot hold (an
  /// over-full or empty node, a stale MBR, a bad child link) returns
  /// [tree-shape]; nothing aborts.
  [[nodiscard]] Result<RStarTree> Thaw(const RTreeOptions& options) const;

  PackedRTree(PackedRTree&& other) noexcept { *this = std::move(other); }
  PackedRTree& operator=(PackedRTree&& other) noexcept;
  PackedRTree(const PackedRTree&) = delete;
  PackedRTree& operator=(const PackedRTree&) = delete;

  size_t dims() const { return dims_; }
  /// Number of data entries (== source tree size()).
  size_t size() const { return size_; }
  size_t height() const { return height_; }
  size_t num_nodes() const { return num_nodes_; }
  size_t num_entries() const { return num_entries_; }
  /// Largest entry_count over all nodes — the batch-kernel scratch bound
  /// (size per-node scratch with KernelPad(max_node_entries())).
  size_t max_node_entries() const { return max_node_entries_; }
  size_t plane_stride() const { return plane_stride_; }
  /// True when the slabs alias a read-only file mapping instead of owned
  /// memory (storage::OpenPackedMapped).
  bool is_mapped() const { return backing_ != nullptr; }

  /// Root node index; index 0 always exists (an empty tree freezes to a
  /// single empty leaf, like the dynamic root).
  uint32_t root() const { return 0; }

  const Node& node(uint32_t n) const { return nodes_[n]; }

  /// SoA view of the entry coordinate planes for the batch kernels.
  SoaPlanes planes() const { return {planes_, plane_stride_, dims_}; }

  /// Raw slab views for serialization (storage/packed_slab.cc).
  const Node* nodes_data() const { return nodes_; }
  const double* planes_data() const { return planes_; }
  const int64_t* refs_data() const { return refs_; }

  /// Coordinate j of entry e's lower / upper MBR corner.
  double entry_lo(uint32_t e, size_t j) const {
    return planes_[j * plane_stride_ + e];
  }
  double entry_hi(uint32_t e, size_t j) const {
    return planes_[(dims_ + j) * plane_stride_ + e];
  }

  /// Child node index of an internal entry. Checked against the node
  /// count: the refs slab is shared with 64-bit data ids, so a stale or
  /// corrupt ref must fail here rather than truncate into a plausible
  /// index.
  uint32_t entry_child(uint32_t e) const {
    const int64_t ref = refs_[e];
    WNRS_CHECK(ref >= 0 && static_cast<uint64_t>(ref) < num_nodes_);
    return static_cast<uint32_t>(ref);
  }

  /// Data id of a leaf entry.
  Id entry_id(uint32_t e) const { return refs_[e]; }

  /// Materializes entry `e`'s MBR as a Rectangle (cold paths only).
  Rectangle EntryRect(uint32_t e) const;

  /// Counts one node read, mirroring RStarTree::CountNodeRead: the local
  /// counter and the shared rtree.node_reads metric (so engine-level
  /// node-read totals stay identical whichever path served the query)
  /// plus packed.node_reads (so the packed path's share is observable).
  void CountNodeRead() const {
    node_reads_.fetch_add(1, std::memory_order_relaxed);
    MetricAdd(CounterId::kRTreeNodeReads);
    MetricAdd(CounterId::kPackedNodeReads);
  }

  Stats stats() const {
    Stats s;
    s.node_reads = node_reads_.load(std::memory_order_relaxed);
    return s;
  }
  void ResetStats() { node_reads_.store(0, std::memory_order_relaxed); }

  /// Ids of all entries intersecting `window` (closed semantics),
  /// ascending — same contract as RStarTree::RangeQueryIds.
  std::vector<Id> RangeQueryIds(const Rectangle& window) const;

  /// Structural self-check for tests: slab bounds, child-index and
  /// node-count validity, plane padding, MBR containment, uniform leaf
  /// depth, and entry count.
  Status CheckInvariants() const;

 private:
  friend class storage::PackedSlabIO;

  PackedRTree() = default;

  /// Points the slab views at the owned vectors. Every mutation of the
  /// vectors must re-run this before the views are read.
  void SetOwnedViews() {
    nodes_ = nodes_vec_.data();
    planes_ = planes_vec_.data();
    refs_ = refs_vec_.data();
    num_nodes_ = nodes_vec_.size();
    num_entries_ = refs_vec_.size();
  }

  size_t dims_ = 0;
  size_t size_ = 0;
  size_t height_ = 1;
  size_t max_node_entries_ = 0;
  size_t plane_stride_ = 0;

  /// Slab views — the only pointers the read path touches. They alias
  /// either the owned vectors below or the mapped region in backing_.
  const Node* nodes_ = nullptr;
  const double* planes_ = nullptr;
  const int64_t* refs_ = nullptr;
  size_t num_nodes_ = 0;
  size_t num_entries_ = 0;

  /// Owned backing (Freeze / buffered slab load). Empty when mapped.
  std::vector<Node> nodes_vec_;
  /// SoA coordinate planes: 2*dims_ planes of plane_stride_ doubles each
  /// (d lo planes then d hi planes), NaN-padded past num_entries().
  std::vector<double> planes_vec_;
  /// Child node index (internal entries) or data id (leaf entries).
  std::vector<int64_t> refs_vec_;

  /// Keeps a file mapping alive for the lifetime of the views (type-
  /// erased so this header does not depend on the storage layer).
  std::shared_ptr<const void> backing_;

  mutable std::atomic<uint64_t> node_reads_{0};
};

}  // namespace wnrs

#endif  // WNRS_INDEX_PACKED_RTREE_H_
