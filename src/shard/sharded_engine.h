#ifndef WNRS_SHARD_SHARDED_ENGINE_H_
#define WNRS_SHARD_SHARDED_ENGINE_H_

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/annotated_mutex.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/engine.h"

namespace wnrs {
namespace shard {

/// Sharded-engine configuration. `engine` carries the per-shard and
/// cost-model knobs (sort_dim, alpha/beta, fast_frontier, epsilon,
/// packed read path, ...); its num_threads sizes the *coordinator* pool —
/// every shard engine runs with num_threads = 1, so shard-internal loops
/// degrade serial under the coordinator's fan-out instead of
/// oversubscribing. Its paranoid_checks reaches the shard engines, which
/// check their own trees and re-prove their own answers; the coordinator
/// holds no global tree and re-proves no merged answer.
struct ShardedEngineOptions {
  /// Requested shard count; clamped to the product count (StrTiles never
  /// produces an empty tile). 1 shard is the degenerate single-engine
  /// layout, useful for differential testing.
  size_t num_shards = 4;
  WhyNotEngineOptions engine;
};

namespace internal {
/// The coordinator's state: the shared query core over the tiles, plus
/// routing tables and per-shard snapshots. Defined in sharded_engine.cc.
struct ShardState;
}  // namespace internal

/// An immutable, concurrency-safe view of one sharded-engine state: the
/// shared read API of QuerySession, answered across the tiles. Cheap to
/// copy (one shared_ptr); pins every per-shard engine core, so it stays
/// valid across mutations and may outlive the ShardedEngine.
///
/// Every query merges per-shard answers into the exact result the
/// single-core engine would produce — same values, same ordering, same
/// error strings (see DESIGN.md §15 for the per-kind merge arguments).
class ShardedSnapshot : public QuerySession {
 public:
  size_t num_shards() const;

 private:
  friend class ShardedEngine;
  explicit ShardedSnapshot(std::shared_ptr<const internal::ShardState> state);
};

/// The why-not engine over an STR-tiled product catalog: the product set
/// is partitioned into spatially coherent tiles (index/bulk_load.h
/// StrTiles), each tile frozen into its own single-threaded WhyNotEngine,
/// and every request kind answered by per-shard fan-out on a shared
/// coordinator pool followed by an exact merge:
///
///  - Reverse skyline (shared relation): every member is a global-skyline
///    candidate and the global skyline of a union is the dominance filter
///    of the per-part global skylines, so the shards run only BBRS's
///    candidate-generation phase; the coordinator collapses the union and
///    verifies each survivor once with bbox-pruned window-emptiness
///    probes across the tiles.
///    Bichromatic: the customer relation is replicated per shard and the
///    global RSL is the intersection of the per-shard RSLs.
///  - Explain / MWP / MQP: the culprit set (or branch-and-bound frontier)
///    is the dominance-filtered union of per-shard window queries, fed to
///    the index-free FromCulprits/FromFrontier tails of the single-core
///    algorithms.
///  - Safe region / MWQ: the per-customer dynamic skylines are
///    cross-shard merges plugged into ComputeSafeRegionWithDsls, and
///    Algorithm 4 runs over MwqPrimitives whose probes fan out per shard.
///
/// Only these index probes differ from the single engine: caching,
/// validation, the strict passes and every request kind above them are
/// the single engine's own code (core/query_core.h). Each merge
/// reproduces the single-core answer bit-for-bit (values and ordering);
/// tests/sharded_engine_test.cc asserts this differentially for all
/// seven request kinds at several shard counts.
///
/// Concurrency contract matches WhyNotEngine: the read path is safe for
/// concurrent callers, mutations are serialized and publish a new
/// coordinator state copy-on-write. A mutation re-freezes only the shard
/// whose tile absorbed it — the other shards' packed slabs and snapshots
/// are reused unchanged.
class ShardedEngine {
 public:
  using Session = ShardedSnapshot;

  /// Shared-relation constructor: one dataset plays both roles, customer
  /// index == global product id.
  explicit ShardedEngine(Dataset data, ShardedEngineOptions options = {});

  /// Bichromatic constructor: products are tiled, customers replicated.
  ShardedEngine(Dataset products, Dataset customers,
                ShardedEngineOptions options = {});

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// The current immutable state as a shareable session object. O(1).
  ShardedSnapshot Snapshot() const { return ShardedSnapshot(CurrentState()); }

  const Dataset& products() const;
  const Dataset& customers() const;
  bool shared_relation() const;
  const CostModel& cost_model() const;
  const Rectangle& universe() const;
  size_t num_shards() const;

  /// Serial query facade (delegates to a fresh snapshot).
  std::vector<size_t> ReverseSkyline(const Point& q) const {
    return Snapshot().ReverseSkyline(q);
  }
  bool IsReverseSkylineMember(size_t c, const Point& q) const {
    return Snapshot().IsReverseSkylineMember(c, q);
  }
  WhyNotExplanation Explain(size_t c, const Point& q) const {
    return Snapshot().Explain(c, q);
  }
  MwpResult ModifyWhyNot(size_t c, const Point& q,
                         Semantics semantics = Semantics::kBoundary) const {
    return Snapshot().ModifyWhyNot(c, q, semantics);
  }
  MqpResult ModifyQuery(size_t c, const Point& q,
                        Semantics semantics = Semantics::kBoundary) const {
    return Snapshot().ModifyQuery(c, q, semantics);
  }
  std::shared_ptr<const SafeRegionResult> SafeRegion(const Point& q) const {
    return Snapshot().SafeRegion(q);
  }
  std::shared_ptr<const SafeRegionResult> ApproxSafeRegion(
      const Point& q) const {
    return Snapshot().ApproxSafeRegion(q);
  }
  MwqResult ModifyBoth(size_t c, const Point& q,
                       Semantics semantics = Semantics::kBoundary) const {
    return Snapshot().ModifyBoth(c, q, semantics);
  }
  MwqResult ModifyBothApprox(size_t c, const Point& q,
                             Semantics semantics = Semantics::kBoundary) const {
    return Snapshot().ModifyBothApprox(c, q, semantics);
  }
  std::vector<MwqResult> ModifyBothBatch(
      const std::vector<size_t>& whos, const Point& q, bool use_approx = false,
      Semantics semantics = Semantics::kBoundary) const {
    return Snapshot().ModifyBothBatch(whos, q, use_approx, semantics);
  }

  /// Appends a product under the global id space (ids shared with the
  /// unsharded engine: id = arrival position). The tuple is routed to the
  /// shard whose bounds contain it (lowest index on ties), else to the
  /// shard needing the least bounds enlargement; only that shard's tile
  /// re-freezes. Drops the approximated-DSL store, like the single engine.
  [[nodiscard]] size_t AddProduct(const Point& p);
  Result<size_t> TryAddProduct(const Point& p);

  /// Removes global product `id` (tombstone + home-shard tile re-freeze).
  [[nodiscard]] bool RemoveProduct(size_t id);
  Status TryRemoveProduct(size_t id);
  bool IsLiveProduct(size_t id) const;

  /// Section VI-B.1 offline pass over the sharded DSL merge. The stored
  /// per-customer samples are query-equivalent to the single engine's
  /// (identical point sets; for customers whose DSL has <= k points the
  /// in-store order may differ, which no consumer observes — the
  /// approximated anti-dominance construction re-sorts).
  void PrecomputeApproxDsls(size_t k);
  bool HasApproxDsls() const;
  size_t approx_k() const;

 private:
  /// Both public constructors: `customers` null selects the shared
  /// relation.
  ShardedEngine(Dataset products, std::shared_ptr<const Dataset> customers,
                ShardedEngineOptions options);

  std::shared_ptr<const internal::ShardState> CurrentState() const;
  void PublishState(std::shared_ptr<const internal::ShardState> state);

  /// Routes a new product to a shard; see AddProduct.
  size_t RouteToShard(const internal::ShardState& state, const Point& p) const;

  ShardedEngineOptions options_;

  /// Coordinator pool driving per-shard fan-out and candidate probes;
  /// shared into every state so snapshots can outlive the engine.
  std::shared_ptr<ThreadPool> pool_;

  /// Serializes mutations (AddProduct/RemoveProduct/PrecomputeApproxDsls).
  /// Ordered strictly before state_mu_ (PublishState runs with it held);
  /// never acquire mutation_mu_ with state_mu_ held.
  Mutex mutation_mu_;

  /// The live shard engines, mutated in place under mutation_mu_; readers
  /// only ever touch the EngineSnapshots pinned inside a ShardState.
  std::vector<std::unique_ptr<WhyNotEngine>> shard_engines_
      WNRS_GUARDED_BY(mutation_mu_);

  /// Exclusive for the COW republish, shared for the snapshot read path.
  mutable SharedMutex state_mu_;
  std::shared_ptr<const internal::ShardState> state_
      WNRS_GUARDED_BY(state_mu_);
};

}  // namespace shard
}  // namespace wnrs

#endif  // WNRS_SHARD_SHARDED_ENGINE_H_
