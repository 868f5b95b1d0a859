#ifndef WNRS_SERVE_BACKEND_H_
#define WNRS_SERVE_BACKEND_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/engine.h"

namespace wnrs {
namespace serve {

/// One immutable, concurrency-safe view of a backend's state — the unit
/// the scheduler executes a dispatch batch against. Implementations pin
/// whatever state they answer from (an engine core, a set of per-shard
/// cores) for the lifetime of the snapshot, so a batch in flight is never
/// affected by a concurrent mutation.
///
/// Only the validating Try* forms appear here: the serving stack must
/// never abort the process on a bad request, so the aborting query API
/// stays on the concrete engines.
class QuerySnapshot {
 public:
  virtual ~QuerySnapshot() = default;

  virtual Result<std::vector<size_t>> TryReverseSkyline(
      const Point& q) const = 0;
  virtual Result<WhyNotExplanation> TryExplain(size_t c,
                                               const Point& q) const = 0;
  virtual Result<MwpResult> TryModifyWhyNot(size_t c, const Point& q,
                                            Semantics semantics) const = 0;
  virtual Result<MqpResult> TryModifyQuery(size_t c, const Point& q,
                                           Semantics semantics) const = 0;
  virtual Result<std::shared_ptr<const SafeRegionResult>> TrySafeRegion(
      const Point& q) const = 0;
  virtual Result<std::shared_ptr<const SafeRegionResult>> TryApproxSafeRegion(
      const Point& q) const = 0;
  virtual Result<MwqResult> TryModifyBoth(size_t c, const Point& q,
                                          Semantics semantics) const = 0;
  virtual Result<MwqResult> TryModifyBothApprox(
      size_t c, const Point& q, Semantics semantics) const = 0;
  virtual Result<std::vector<MwqResult>> TryModifyBothBatch(
      const std::vector<size_t>& whos, const Point& q, bool use_approx,
      Semantics semantics) const = 0;
};

/// The QuerySnapshot of either backend: delegates every call to a pinned
/// session (an EngineSnapshot or a shard::ShardedSnapshot), which keeps
/// its engine state alive for the snapshot's lifetime.
std::shared_ptr<const QuerySnapshot> MakeQuerySnapshot(QuerySession session);

/// A query execution engine the serving stack schedules onto: anything
/// that can publish consistent snapshots of the seven request kinds. The
/// single-core WhyNotEngine (EngineBackend below) and the sharded engine
/// (shard::ShardedBackend) both implement it, so the scheduler, server,
/// and wire protocol are byte-identical across execution layouts.
class QueryBackend {
 public:
  virtual ~QueryBackend() = default;

  /// The current state as a shareable snapshot. O(1); safe to call
  /// concurrently with queries and mutations.
  virtual std::shared_ptr<const QuerySnapshot> Snapshot() const = 0;
};

/// QueryBackend over one WhyNotEngine. The engine must outlive the
/// backend (the backend pins snapshots, not the engine itself).
class EngineBackend : public QueryBackend {
 public:
  explicit EngineBackend(const WhyNotEngine* engine);

  std::shared_ptr<const QuerySnapshot> Snapshot() const override;

 private:
  const WhyNotEngine* engine_;
};

}  // namespace serve
}  // namespace wnrs

#endif  // WNRS_SERVE_BACKEND_H_
