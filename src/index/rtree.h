#ifndef WNRS_INDEX_RTREE_H_
#define WNRS_INDEX_RTREE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "geometry/point.h"
#include "geometry/rectangle.h"

namespace wnrs {

/// Tuning knobs for the R*-tree. The defaults mirror the paper's setup
/// ("Each dataset is indexed by an R-tree, where the page size is set to
/// 1536 bytes") and the classic R*-tree parameters (Beckmann et al.,
/// SIGMOD'90): 40% minimum fill and 30% forced reinsertion.
struct RTreeOptions {
  /// Byte budget per node; fan-out is derived from it and the
  /// dimensionality.
  size_t page_size_bytes = 1536;
  /// Minimum fill m as a fraction of the maximum fan-out M.
  double min_fill_ratio = 0.4;
  /// Fraction of entries evicted on the first overflow per level.
  double reinsert_fraction = 0.3;
};

/// Disk-page-modelled R*-tree over rectangles (points are degenerate
/// rectangles). Supports insertion with forced reinsertion, the R* split,
/// deletion with tree condensation, window (range) queries with early
/// termination, best-first nearest-neighbor search, and direct node access
/// for branch-and-bound algorithms (BBS, BBRS). Node reads are counted so
/// benchmarks can report I/O-equivalent work.
///
/// Move-only. Not thread-safe for concurrent mutation; concurrent reads of
/// a quiescent tree are safe, including the node-access counter, which is
/// atomic so I/O statistics stay exact under the engine's parallel loops.
class RStarTree {
 public:
  using Id = int64_t;

  struct Node;

  /// One slot of a node: an MBR plus either a child (internal node) or a
  /// data id (leaf).
  struct Entry {
    Rectangle mbr;
    Node* child = nullptr;  // Internal nodes only.
    Id id = -1;             // Leaves only.
  };

  struct Node {
    bool is_leaf = true;
    Node* parent = nullptr;
    std::vector<Entry> entries;
  };

  /// Query-side traversal statistics.
  struct Stats {
    uint64_t node_reads = 0;
  };

  RStarTree(size_t dims, RTreeOptions options = RTreeOptions());
  ~RStarTree();

  RStarTree(RStarTree&&) noexcept;
  RStarTree& operator=(RStarTree&&) noexcept;
  RStarTree(const RStarTree&) = delete;
  RStarTree& operator=(const RStarTree&) = delete;

  /// Structure-preserving deep copy: the clone has the exact same node
  /// layout, so an Insert/Delete applied to the clone yields the same tree
  /// a direct mutation of the original would have. This is what lets the
  /// engine publish copy-on-write snapshots on mutation without changing
  /// any query answer or I/O count. Traversal counters start at zero.
  [[nodiscard]] RStarTree Clone() const;

  size_t dims() const { return dims_; }
  const RTreeOptions& options() const { return options_; }
  size_t size() const { return size_; }
  /// Number of levels; 1 for a tree holding only a root leaf.
  size_t height() const { return height_; }
  /// Maximum fan-out derived from the page size.
  size_t max_entries() const { return max_entries_; }
  size_t min_entries() const { return min_entries_; }

  /// Inserts a point (stored as a degenerate rectangle).
  void Insert(const Point& p, Id id);

  /// Inserts a rectangle entry.
  void Insert(const Rectangle& r, Id id);

  /// Removes the entry with exactly this rectangle and id. Returns false if
  /// no such entry exists. [[nodiscard]]: the bool is the only signal that
  /// the tree was not modified.
  [[nodiscard]] bool Delete(const Rectangle& r, Id id);

  /// Visits every leaf entry whose MBR intersects `window` (closed
  /// semantics). The visitor returns false to stop the query early — the
  /// emptiness probes of reverse-skyline window queries rely on this.
  void RangeQuery(const Rectangle& window,
                  const std::function<bool(const Rectangle&, Id)>& visit) const;

  /// Ids of all entries intersecting `window`.
  std::vector<Id> RangeQueryIds(const Rectangle& window) const;

  /// True iff at least one entry intersects `window` and satisfies
  /// `predicate` (pass nullptr to accept all). Stops at the first hit.
  bool AnyInRange(const Rectangle& window,
                  const std::function<bool(const Rectangle&, Id)>& predicate =
                      nullptr) const;

  /// The k entries nearest to `p` by Euclidean distance, closest first,
  /// via best-first MINDIST traversal. Returns fewer if size() < k.
  std::vector<std::pair<Id, double>> NearestNeighbors(const Point& p,
                                                      size_t k) const;

  /// Root node for external branch-and-bound traversals; nullptr only
  /// before construction completes (never observable). Callers must not
  /// mutate.
  const Node* root() const { return root_; }

  /// Counts a node read for an externally-driven traversal, so BBS/BBRS
  /// accesses show up in stats() too. Safe to call from concurrent query
  /// threads; the count stays exact.
  void CountNodeRead() const {
    node_reads_.fetch_add(1, std::memory_order_relaxed);
    MetricAdd(CounterId::kRTreeNodeReads);
  }

  /// Snapshot of the traversal counters.
  Stats stats() const {
    Stats s;
    s.node_reads = node_reads_.load(std::memory_order_relaxed);
    return s;
  }
  void ResetStats() { node_reads_.store(0, std::memory_order_relaxed); }

  /// Structural self-check for tests: parent pointers, MBR containment,
  /// fill-factor bounds, uniform leaf depth, and entry count.
  Status CheckInvariants() const;

  /// Status form of the constructor's option preconditions, for knobs
  /// read from untrusted bytes (an engine bundle): [tree-shape] unless
  /// 0 < min_fill_ratio <= 0.5, 0 <= reinsert_fraction < 1 and
  /// 0 < page_size_bytes <= 1 GiB.
  [[nodiscard]] static Status ValidateOptions(const RTreeOptions& options);

 private:
  friend class RTreeBulkLoader;
  friend class PackedRTree;

  Node* ChooseSubtree(const Rectangle& r, size_t target_level) const;
  void InsertAtLevel(Entry entry, size_t target_level, bool is_data_level,
                     std::vector<bool>* reinserted_at_level);
  void OverflowTreatment(Node* node, size_t level,
                         std::vector<bool>* reinserted_at_level);
  void Reinsert(Node* node, size_t level,
                std::vector<bool>* reinserted_at_level);
  void SplitNode(Node* node);
  void AdjustUpward(Node* node);
  static Rectangle NodeMbr(const Node& node);
  size_t LevelOf(const Node* node) const;
  void FreeSubtree(Node* node);

  size_t dims_ = 0;
  RTreeOptions options_;
  size_t max_entries_ = 0;
  size_t min_entries_ = 0;
  Node* root_ = nullptr;
  size_t size_ = 0;
  size_t height_ = 1;
  mutable std::atomic<uint64_t> node_reads_{0};
};

}  // namespace wnrs

#endif  // WNRS_INDEX_RTREE_H_
