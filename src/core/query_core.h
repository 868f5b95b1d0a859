#ifndef WNRS_CORE_QUERY_CORE_H_
#define WNRS_CORE_QUERY_CORE_H_

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/annotated_mutex.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/cost.h"
#include "core/engine.h"
#include "core/explain.h"
#include "core/mqp.h"
#include "core/mwp.h"
#include "core/mwq.h"
#include "core/safe_region.h"
#include "core/strict.h"
#include "core/validate.h"
#include "data/dataset.h"
#include "index/rtree.h"

namespace wnrs {
namespace internal {

/// Weight vectors from the options (equal weights when empty), normalized
/// over `universe`.
CostModel MakeCostModel(const Rectangle& universe,
                        const WhyNotEngineOptions& options);

/// Data bounds of the products, widened by the customers when present.
Rectangle UnionBounds(const Dataset& products, const Dataset* customers);

/// A bounded FIFO memo keyed by query point, safe to share between
/// threads. Callers compute a missing value outside the lock and Insert
/// it; the first insert for a key wins, so every caller sees one value.
template <typename V, size_t kCapacity>
class QueryMemo {
 public:
  std::optional<V> Find(const Point& q) const WNRS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    for (const auto& [key, value] : entries_) {
      if (key == q) return value;
    }
    return std::nullopt;
  }

  /// Stores `value` for q unless an entry for q exists (evicting the
  /// oldest entry when full) and returns the entry now held for q.
  /// `on_store(evicted, size)` runs under the lock after a store.
  template <typename OnStore>
  V Insert(const Point& q, V value, OnStore on_store) WNRS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    for (const auto& [key, held] : entries_) {
      if (key == q) return held;
    }
    const bool evicted = entries_.size() >= kCapacity;
    if (evicted) entries_.erase(entries_.begin());
    entries_.emplace_back(q, value);
    on_store(evicted, entries_.size());
    return value;
  }

 private:
  mutable Mutex mu_;
  std::vector<std::pair<Point, V>> entries_ WNRS_GUARDED_BY(mu_);
};

/// The engine-independent half of an engine state, written once for the
/// single engine (EngineCore, engine.cc) and the sharded coordinator
/// (shard::internal::ShardState): the market, the derived caches, input
/// validation, every request kind with its strict and paranoid passes,
/// and the approx-store build. It reaches the product index only through
/// the five probes below — the window queries of Algorithms 1-4 (the
/// culprit set Λ, the frontier F, emptiness) and the dynamic skylines
/// DSL(c) — plus the reverse-skyline computation; each derived core
/// answers them over its own index layout.
///
/// Every field set up at construction is read-only once the core is
/// published; the memos are internally synchronized, so a core is safe
/// to share between any number of threads. Mutations copy the core (the
/// heavyweight components are shared_ptrs, copied only when they change)
/// and publish the copy.
struct QueryCore {
  /// Per-shard and cost knobs. For the sharded coordinator this is
  /// ShardedEngineOptions::engine.
  WhyNotEngineOptions options;
  bool shared_relation = false;
  /// The product catalog (append-only; removals tombstone their slot).
  std::shared_ptr<const Dataset> products;
  /// Bichromatic mode only; null when the relation is shared.
  std::shared_ptr<const Dataset> customers;
  /// Tombstones (shared-relation customers disappear with their product).
  /// Ids at or past the end are live.
  std::vector<bool> removed;
  Rectangle universe;
  CostModel cost_model;
  /// Section VI-B.1 offline store; null/empty = absent.
  std::shared_ptr<const std::vector<std::vector<Point>>> approx_dsls;
  size_t approx_k = 0;
  std::shared_ptr<ThreadPool> pool;

  /// Query-keyed memos: RSL(q) and the exact and approximated SR(q).
  /// Workloads revisit a handful of query points (the paper's batch
  /// setting), so small bounds suffice and lookup stays a linear scan.
  mutable QueryMemo<std::vector<size_t>, 64> rsl_memo;
  mutable QueryMemo<std::shared_ptr<const SafeRegionResult>, 8> sr_cache;
  mutable QueryMemo<std::shared_ptr<const SafeRegionResult>, 8>
      approx_sr_cache;

  /// `customers` null selects the shared relation.
  QueryCore(WhyNotEngineOptions options_in,
            std::shared_ptr<const Dataset> products_in,
            std::shared_ptr<const Dataset> customers_in,
            std::vector<bool> removed_in, Rectangle universe_in,
            std::shared_ptr<ThreadPool> pool_in);
  /// Copy-on-write seed: copies the state, starts with empty memos.
  QueryCore(const QueryCore& other);
  QueryCore& operator=(const QueryCore&) = delete;
  virtual ~QueryCore() = default;

  // ---- The five index probes. `customer` is the customer whose own
  // tuple the probe excludes (shared relation only); each core maps it to
  // its own exclusion. Window hits and frontiers come back as ascending
  // product ids; the DSL in any order, duplicates all reported. ----

  /// True iff W(c_pt, q) holds no product.
  virtual bool ProbeWindowEmpty(const Point& c_pt, const Point& q,
                                size_t customer) const = 0;
  /// The culprit set Λ(c_pt, q).
  virtual std::vector<RStarTree::Id> ProbeWindowHits(const Point& c_pt,
                                                     const Point& q,
                                                     size_t customer) const = 0;
  /// The skyline of W(c_pt, q) in `origin`'s distance space.
  virtual std::vector<RStarTree::Id> ProbeWindowFrontier(
      const Point& c_pt, const Point& q, const Point& origin,
      size_t customer) const = 0;
  /// DSL(customer) over the products.
  virtual std::vector<RStarTree::Id> ProbeDynamicSkyline(
      size_t customer) const = 0;
  /// RSL(q) as ascending customer indices, uncached.
  virtual std::vector<size_t> ComputeReverseSkyline(const Point& q) const = 0;

  /// The index paranoid_checks re-proves answers against, or nullopt when
  /// this core has no index of its own (the sharded coordinator: its
  /// shard engines check their own trees).
  virtual std::optional<AnswerValidationInput> ValidationInput() const {
    return std::nullopt;
  }

  // ---- State accessors. ----

  const Dataset& customer_dataset() const {
    return shared_relation ? *products : *customers;
  }
  const Point& CustomerPoint(size_t c) const;
  bool HasApproxDsls() const {
    return approx_dsls != nullptr && !approx_dsls->empty();
  }
  bool IsLiveProduct(size_t id) const {
    if (id >= products->points.size()) return false;
    return id >= removed.size() || !removed[id];
  }

  // ---- Input validation: the Try* layer's non-aborting counterparts of
  // the WNRS_CHECKs on the read path. ----

  Status ValidatePoint(const Point& p, const char* what) const;
  Status ValidateQuery(const Point& q) const {
    return ValidatePoint(q, "query point");
  }
  Status ValidateCustomer(size_t c) const;
  Status ValidateApproxStore() const;
  /// NotFound unless `id` names a live product (TryRemoveProduct's check).
  Status ValidateRemovable(size_t id) const;

  // ---- Mutations, applied to an unpublished copy. ----

  /// Appends `p` under the next id, widening the universe (and with it
  /// the cost model's normalization) when p falls outside. Drops the
  /// approx store, a function of the product set. Returns the id.
  size_t AppendProduct(const Point& p);
  /// Tombstones live product `id` and drops the approx store.
  void MarkRemoved(size_t id);
  /// Section VI-B.1's offline pass: the sampled DSL (transformed space,
  /// parameter k) of every customer, one ProbeDynamicSkyline each.
  std::shared_ptr<const std::vector<std::vector<Point>>> BuildApproxStore(
      size_t k) const;

  // ---- Read path. All const; results are bit-identical regardless of
  // thread count or cache state. ----

  /// RSL(q), memoized.
  std::vector<size_t> ReverseSkyline(const Point& q) const;
  bool IsReverseSkylineMember(size_t c, const Point& q) const;
  WhyNotExplanation Explain(size_t c, const Point& q) const;
  MwpResult ModifyWhyNot(size_t c, const Point& q, Semantics semantics) const;
  MqpResult ModifyQuery(size_t c, const Point& q, Semantics semantics) const;
  std::shared_ptr<const SafeRegionResult> SafeRegion(const Point& q) const;
  std::shared_ptr<const SafeRegionResult> ApproxSafeRegion(
      const Point& q) const;
  SafeRegionResult ConstrainedSafeRegion(const Point& q,
                                         const Rectangle& limits) const;
  MwqResult ModifyBoth(size_t c, const Point& q, Semantics semantics) const;
  MwqResult ModifyBothApprox(size_t c, const Point& q,
                             Semantics semantics) const;
  MwqResult ModifyBothConstrained(size_t c, const Point& q,
                                  const Rectangle& limits,
                                  Semantics semantics) const;
  std::vector<size_t> LostCustomers(const Point& q, const Point& q_star) const;
  std::vector<MwqResult> ModifyBothBatch(const std::vector<size_t>& whos,
                                         const Point& q, bool use_approx,
                                         Semantics semantics) const;
  double MqpEvaluationCost(const Point& q, const Point& q_star) const;
  std::optional<Point> NudgeToStrictMember(const Point& c_star, const Point& q,
                                           size_t customer_index) const;

 private:
  /// The paranoid re-proof input, or nullopt when paranoid_checks is off
  /// or the core has no index to re-prove against.
  std::optional<AnswerValidationInput> ParanoidInput() const {
    if (!options.paranoid_checks) return std::nullopt;
    return ValidationInput();
  }
  /// The window probe the strict passes run on, with customer `c`'s
  /// own-tuple exclusion bound in.
  StrictWindowEmptyFn StrictProbeFor(size_t c) const;
  SafeRegionOptions MakeSafeRegionOptions() const;
  /// Algorithm 1 at boundary semantics: from the window-skyline frontier
  /// (fast_frontier), else from the full culprit set.
  MwpResult ModifyWhyNotBoundary(size_t c, const Point& q) const;
  KeepsMembersFn MakeKeepsMembersFn(const Point& q) const;
  /// Algorithm 4's three index probes for customer c.
  MwqPrimitives MakeMwqPrimitives(size_t c) const;
  /// Algorithm 4 with q confined to `region` (exact, approximated or
  /// clipped SR(q)).
  MwqResult ModifyBothWithin(size_t c, const Point& q,
                             const RectRegion& region,
                             Semantics semantics) const;
};

}  // namespace internal
}  // namespace wnrs

#endif  // WNRS_CORE_QUERY_CORE_H_
