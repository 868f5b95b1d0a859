#include "shard/sharded_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iterator>
#include <limits>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/strict.h"
#include "geometry/dominance.h"
#include "geometry/transform.h"
#include "index/bulk_load.h"
#include "reverse_skyline/window_query.h"
#include "skyline/approx.h"

namespace wnrs {
namespace shard {

namespace {

/// Coordinator-cache bounds, matching the single engine's (engine.cc):
/// the sharded engine answers the same workloads, so the same working-set
/// assumptions apply.
constexpr size_t kRslCacheCapacity = 64;
constexpr size_t kSrCacheCapacity = 8;

/// The global cost model mirrors MakeCostModel in engine.cc: weight
/// vectors from the options, equal weights when empty, normalized over
/// the *global* universe — shard-local cost models are never used.
CostModel MakeGlobalCostModel(const Rectangle& universe,
                              const WhyNotEngineOptions& options) {
  std::vector<double> alpha = options.alpha;
  std::vector<double> beta = options.beta;
  if (alpha.empty()) alpha = EqualWeights(universe.dims());
  if (beta.empty()) beta = EqualWeights(universe.dims());
  return CostModel(universe, std::move(alpha), std::move(beta));
}

/// Per-shard engines never fan out internally: the coordinator pool owns
/// all parallelism, and a shard's nested loops degrade to the bit-exact
/// serial path instead of oversubscribing the host.
WhyNotEngineOptions ShardEngineOptions(const WhyNotEngineOptions& base) {
  WhyNotEngineOptions options = base;
  options.num_threads = 1;
  return options;
}

/// Global (quadrant-aware) dominance over distance-space coordinates and
/// quadrant signs, mirroring bbrs.cc's candidate pruning exactly: `g`
/// disqualifies `x` as a reverse-skyline candidate iff g sits on x's side
/// of q in every dimension where g is off-center, is no farther from q
/// anywhere, and differs from q somewhere. The coordinator uses it to
/// collapse the union of per-shard candidate sets to the global-skyline
/// candidate set a single index would have produced.
bool GloballyDominates(const Point& g_t, const std::vector<int>& g_signs,
                       const Point& x_t, const std::vector<int>& x_signs) {
  bool strict = false;
  for (size_t i = 0; i < g_t.dims(); ++i) {
    if (g_signs[i] != 0 && g_signs[i] != x_signs[i]) return false;
    if (g_t[i] > x_t[i]) return false;
    if (g_t[i] > 0.0) strict = true;
  }
  return strict;
}

}  // namespace

namespace internal {

/// The coordinator's immutable state: the global catalog and routing maps
/// plus one pinned EngineSnapshot per shard. Like EngineCore, everything
/// set up at construction is read-only afterwards and the caches at the
/// bottom are internally synchronized; mutations copy the state (fresh
/// caches) and publish the copy.
struct ShardState {
  ShardedEngineOptions options;
  bool shared_relation = true;
  /// Global product catalog (append-only, tombstoned) — the id space
  /// shared with the unsharded engine.
  std::shared_ptr<const Dataset> products;
  /// Bichromatic mode only; null when the relation is shared.
  std::shared_ptr<const Dataset> customers;
  /// Global tombstones (shared-relation customers disappear with their
  /// product).
  std::vector<bool> removed;
  Rectangle universe;
  CostModel cost_model;
  /// One pinned engine state per shard; probes and per-shard BBRS run
  /// against these, never against the live engines.
  std::vector<EngineSnapshot> shards;
  /// shard -> local product id -> global product id (ascending at
  /// construction; appended in arrival order afterwards).
  std::vector<std::vector<size_t>> shard_members;
  /// global product id -> owning shard / local id within it.
  std::vector<size_t> home_shard;
  std::vector<size_t> local_id;
  /// Section VI-B.1 offline store, held at the coordinator (per-shard
  /// stores would sample per-tile DSL fragments, which is wrong).
  std::shared_ptr<const std::vector<std::vector<Point>>> approx_dsls;
  size_t approx_k = 0;
  std::shared_ptr<ThreadPool> pool;

  // Derived caches, same discipline as EngineCore: mutex-guarded FIFO
  // memos keyed by query point, computed outside the lock, first insert
  // wins.
  mutable Mutex rsl_mu;
  mutable std::vector<std::pair<Point, std::vector<size_t>>> rsl_memo
      WNRS_GUARDED_BY(rsl_mu);
  mutable Mutex sr_mu;
  mutable std::vector<std::pair<Point, std::shared_ptr<const SafeRegionResult>>>
      sr_cache WNRS_GUARDED_BY(sr_mu);
  mutable Mutex approx_sr_mu;
  mutable std::vector<std::pair<Point, std::shared_ptr<const SafeRegionResult>>>
      approx_sr_cache WNRS_GUARDED_BY(approx_sr_mu);

  ShardState() = default;

  /// Copy-on-write seed: copies the state, starts with fresh caches.
  ShardState(const ShardState& other)
      : options(other.options),
        shared_relation(other.shared_relation),
        products(other.products),
        customers(other.customers),
        removed(other.removed),
        universe(other.universe),
        cost_model(other.cost_model),
        shards(other.shards),
        shard_members(other.shard_members),
        home_shard(other.home_shard),
        local_id(other.local_id),
        approx_dsls(other.approx_dsls),
        approx_k(other.approx_k),
        pool(other.pool) {}
  ShardState& operator=(const ShardState&) = delete;

  const Dataset& customer_dataset() const {
    return shared_relation ? *products : *customers;
  }

  bool HasApproxDsls() const {
    return approx_dsls != nullptr && !approx_dsls->empty();
  }

  const Point& CustomerPoint(size_t c) const {
    const Dataset& ds = customer_dataset();
    WNRS_CHECK(c < ds.points.size());
    return ds.points[c];
  }

  /// The shard-local exclusion of customer `c`'s own tuple: only the home
  /// shard holds it, and there it lives under the local id.
  std::optional<RStarTree::Id> ExcludeIn(size_t s, size_t c) const {
    if (!shared_relation) return std::nullopt;
    if (home_shard[c] != s) return std::nullopt;
    return static_cast<RStarTree::Id>(local_id[c]);
  }

  // ---- Input validation: byte-identical to EngineCore's, so the serve
  // layer's error responses do not reveal the execution layout. ----

  Status ValidatePoint(const Point& p, const char* what) const {
    if (p.dims() != products->dims) {
      return Status::InvalidArgument(
          StrFormat("%s has %zu dimensions, engine has %zu", what, p.dims(),
                    products->dims));
    }
    for (size_t i = 0; i < p.dims(); ++i) {
      if (!std::isfinite(p[i])) {
        return Status::InvalidArgument(
            StrFormat("%s has a non-finite coordinate at dimension %zu", what,
                      i));
      }
    }
    return Status::Ok();
  }

  Status ValidateQuery(const Point& q) const {
    return ValidatePoint(q, "query point");
  }

  Status ValidateCustomer(size_t c) const {
    const Dataset& ds = customer_dataset();
    if (c >= ds.points.size()) {
      return Status::OutOfRange(
          StrFormat("customer index %zu out of range (engine has %zu)", c,
                    ds.points.size()));
    }
    if (shared_relation && c < removed.size() && removed[c]) {
      return Status::NotFound(
          StrFormat("customer %zu refers to a removed product", c));
    }
    return Status::Ok();
  }

  Status ValidateApproxStore() const {
    if (!HasApproxDsls()) {
      return Status::FailedPrecondition(
          "approximated-DSL store missing; run PrecomputeApproxDsls or "
          "LoadApproxDsls first");
    }
    return Status::Ok();
  }

  // ---- Cross-shard probes. Each one is the sharded twin of an EngineCore
  // probe, proven to merge into the identical answer (DESIGN.md §15). ----

  /// W(c_pt, q) holds no product across all shards, `exclude_customer`'s
  /// own tuple excluded in its home shard. Shards whose bounds miss the
  /// window are skipped without a probe — the pruning that makes the
  /// conjunction cheaper than one big-tree probe: a spatially tight window
  /// touches few tiles, and the per-tile early exit fires sooner on the
  /// smaller trees.
  bool AllShardsWindowEmpty(const Point& c_pt, const Point& q,
                            size_t exclude_customer) const {
    const Rectangle window = WindowRect(c_pt, q);
    // Probe the tile containing c first: window witnesses concentrate
    // near c's corner of the window, so a non-empty window is usually
    // caught by the home tile and the early exit skips the rest. The
    // conjunction's value is order-independent, so this is purely a
    // probe-count heuristic.
    const size_t home = shared_relation && exclude_customer < home_shard.size()
                            ? home_shard[exclude_customer]
                            : shards.size();
    auto probe = [&](size_t s) {
      return !shards[s].universe().Intersects(window) ||
             shards[s].ProbeWindowEmpty(c_pt, q,
                                        ExcludeIn(s, exclude_customer));
    };
    if (home < shards.size() && !probe(home)) return false;
    for (size_t s = 0; s < shards.size(); ++s) {
      if (s == home) continue;
      if (!probe(s)) return false;
    }
    return true;
  }

  /// Culprit set Λ(c_pt, q) as ascending *global* ids: per-shard window
  /// queries (each ascending local, bbox-pruned), mapped through the
  /// membership tables and merged. Tiles partition the id space, so the
  /// union is duplicate-free.
  std::vector<RStarTree::Id> ShardedWindowHits(const Point& c_pt,
                                               const Point& q,
                                               size_t exclude_customer) const {
    const Rectangle window = WindowRect(c_pt, q);
    const std::vector<std::vector<RStarTree::Id>> per_shard =
        pool->ParallelMap<std::vector<RStarTree::Id>>(
            shards.size(), [&](size_t s) {
              if (!shards[s].universe().Intersects(window)) {
                return std::vector<RStarTree::Id>();
              }
              std::vector<RStarTree::Id> local = shards[s].ProbeWindowHits(
                  c_pt, q, ExcludeIn(s, exclude_customer));
              for (RStarTree::Id& id : local) {
                id = static_cast<RStarTree::Id>(
                    shard_members[s][static_cast<size_t>(id)]);
              }
              return local;
            });
    std::vector<RStarTree::Id> merged;
    for (const std::vector<RStarTree::Id>& ids : per_shard) {
      merged.insert(merged.end(), ids.begin(), ids.end());
    }
    std::sort(merged.begin(), merged.end());
    return merged;
  }

  /// Keeps the entries of `ids` not dynamically dominated w.r.t. `origin`
  /// by another entry, ascending. skyline(A ∪ B) = skyline(skyline(A) ∪
  /// skyline(B)), and strict dominance never holds between equal points,
  /// so duplicate skyline points survive exactly as the single tree
  /// reports them.
  std::vector<RStarTree::Id> DominanceFilter(std::vector<RStarTree::Id> ids,
                                             const Point& origin) const {
    const std::vector<Point>& pts = products->points;
    std::vector<RStarTree::Id> kept;
    kept.reserve(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      const Point& a = pts[static_cast<size_t>(ids[i])];
      bool dominated = false;
      for (size_t j = 0; j < ids.size() && !dominated; ++j) {
        if (j == i) continue;
        dominated =
            DynamicallyDominates(pts[static_cast<size_t>(ids[j])], a, origin);
      }
      if (!dominated) kept.push_back(ids[i]);
    }
    std::sort(kept.begin(), kept.end());
    return kept;
  }

  /// Window skyline of (c_pt, q) in `origin`'s distance space as ascending
  /// global ids: dominance-filtered union of per-shard branch-and-bound
  /// frontiers — the form ModifyWhyNotPointFromFrontier /
  /// ModifyQueryPointFromFrontier document as equivalent to one
  /// WindowSkyline traversal.
  std::vector<RStarTree::Id> ShardedFrontier(const Point& c_pt, const Point& q,
                                             const Point& origin,
                                             size_t exclude_customer) const {
    const Rectangle window = WindowRect(c_pt, q);
    const std::vector<std::vector<RStarTree::Id>> per_shard =
        pool->ParallelMap<std::vector<RStarTree::Id>>(
            shards.size(), [&](size_t s) {
              if (!shards[s].universe().Intersects(window)) {
                return std::vector<RStarTree::Id>();
              }
              std::vector<RStarTree::Id> local = shards[s].ProbeWindowFrontier(
                  c_pt, q, origin, ExcludeIn(s, exclude_customer));
              for (RStarTree::Id& id : local) {
                id = static_cast<RStarTree::Id>(
                    shard_members[s][static_cast<size_t>(id)]);
              }
              return local;
            });
    std::vector<RStarTree::Id> merged;
    for (const std::vector<RStarTree::Id>& ids : per_shard) {
      merged.insert(merged.end(), ids.begin(), ids.end());
    }
    return DominanceFilter(std::move(merged), origin);
  }

  /// DSL(c) as ascending global ids: dominance-filtered union of per-shard
  /// BBS dynamic skylines. Satisfies the DslProviderFn contract (order
  /// immaterial, duplicates all reported).
  std::vector<RStarTree::Id> ShardedDsl(size_t c) const {
    const Point& cp = CustomerPoint(c);
    const std::vector<std::vector<RStarTree::Id>> per_shard =
        pool->ParallelMap<std::vector<RStarTree::Id>>(
            shards.size(), [&](size_t s) {
              std::vector<RStarTree::Id> local =
                  shards[s].ProbeDynamicSkyline(cp, ExcludeIn(s, c));
              for (RStarTree::Id& id : local) {
                id = static_cast<RStarTree::Id>(
                    shard_members[s][static_cast<size_t>(id)]);
              }
              return local;
            });
    std::vector<RStarTree::Id> merged;
    for (const std::vector<RStarTree::Id>& ids : per_shard) {
      merged.insert(merged.end(), ids.begin(), ids.end());
    }
    return DominanceFilter(std::move(merged), cp);
  }

  /// The strict-semantics window probe (core/strict.h) with customer `c`'s
  /// own-tuple exclusion bound in, as the conjunction over shards.
  StrictWindowEmptyFn StrictProbeFor(size_t c) const {
    return [this, c](const Point& cc, const Point& qq) {
      return AllShardsWindowEmpty(cc, qq, c);
    };
  }

  // ---- Read path. ----

  std::vector<size_t> ComputeReverseSkyline(const Point& q) const {
    if (!shared_relation) {
      // Per-shard BBRS in parallel. Customers are replicated per shard,
      // so c is a global member iff its window is empty in every shard —
      // the intersection of the (ascending) per-shard reverse skylines.
      const std::vector<std::vector<size_t>> locals =
          pool->ParallelMap<std::vector<size_t>>(
              shards.size(),
              [&](size_t s) { return shards[s].ReverseSkyline(q); });
      std::vector<size_t> acc = locals[0];
      for (size_t s = 1; s < locals.size(); ++s) {
        std::vector<size_t> next;
        std::set_intersection(acc.begin(), acc.end(), locals[s].begin(),
                              locals[s].end(), std::back_inserter(next));
        acc = std::move(next);
      }
      return acc;
    }
    // Shared relation: every reverse-skyline member is a global-skyline
    // candidate (Dellis & Seeger), and the global skyline of a union is
    // the dominance filter of the per-part global skylines. So the shards
    // run only BBRS's candidate-generation phase — no per-shard window
    // verification — the coordinator collapses the union to the exact
    // candidate set a single index would produce, and each survivor is
    // verified once with bbox-pruned emptiness probes across the shards.
    const std::vector<std::vector<RStarTree::Id>> locals =
        pool->ParallelMap<std::vector<RStarTree::Id>>(
            shards.size(), [&](size_t s) {
              return shards[s].ProbeGlobalSkylineCandidates(q, std::nullopt);
            });
    std::vector<size_t> ids;
    for (size_t s = 0; s < locals.size(); ++s) {
      for (const RStarTree::Id local : locals[s]) {
        ids.push_back(shard_members[s][static_cast<size_t>(local)]);
      }
    }
    const size_t m = ids.size();
    std::vector<Point> transformed(m);
    std::vector<std::vector<int>> signs(m);
    for (size_t i = 0; i < m; ++i) {
      const Point& p = products->points[ids[i]];
      transformed[i] = ToDistanceSpace(p, q);
      std::vector<int> sg(q.dims());
      for (size_t d = 0; d < q.dims(); ++d) {
        sg[d] = p[d] > q[d] ? 1 : (p[d] < q[d] ? -1 : 0);
      }
      signs[i] = std::move(sg);
    }
    // Membership in the filtered set is "no other candidate dominates
    // me" — order-independent, so the result is deterministic regardless
    // of shard enumeration. Coincident duplicates kill each other here,
    // which is sound: each is the other's window witness, so neither
    // could have survived verification.
    std::vector<size_t> candidates;
    for (size_t i = 0; i < m; ++i) {
      bool dominated = false;
      for (size_t j = 0; j < m && !dominated; ++j) {
        dominated = j != i && GloballyDominates(transformed[j], signs[j],
                                                transformed[i], signs[i]);
      }
      if (!dominated) candidates.push_back(ids[i]);
    }
    const std::vector<unsigned char> keep = pool->ParallelMap<unsigned char>(
        candidates.size(), [&](size_t i) {
          const size_t c = candidates[i];
          return static_cast<unsigned char>(
              AllShardsWindowEmpty(products->points[c], q, c) ? 1 : 0);
        });
    std::vector<size_t> out;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (keep[i] != 0) out.push_back(candidates[i]);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  std::vector<size_t> ReverseSkyline(const Point& q) const {
    {
      MutexLock lock(rsl_mu);
      for (const auto& [key, rsl] : rsl_memo) {
        if (key == q) return rsl;
      }
    }
    std::vector<size_t> out = ComputeReverseSkyline(q);
    MutexLock lock(rsl_mu);
    for (const auto& [key, rsl] : rsl_memo) {
      if (key == q) return rsl;
    }
    if (rsl_memo.size() >= kRslCacheCapacity) {
      rsl_memo.erase(rsl_memo.begin());
    }
    rsl_memo.emplace_back(q, out);
    return out;
  }

  bool IsReverseSkylineMember(size_t c, const Point& q) const {
    return AllShardsWindowEmpty(CustomerPoint(c), q, c);
  }

  /// Λ from the per-shard window queries; F from the merged window
  /// skylines with origin q, which equal a BNL pass over Λ
  /// (ExplainWhyNotFromCulprits) without mapping every culprit.
  WhyNotExplanation Explain(size_t c, const Point& q) const {
    const Point& cp = CustomerPoint(c);
    WhyNotExplanation out;
    out.culprits = ShardedWindowHits(cp, q, c);
    out.already_member = out.culprits.empty();
    if (!out.already_member) {
      out.frontier = ShardedFrontier(cp, q, /*origin=*/q, c);
    }
    return out;
  }

  MwpResult ModifyWhyNotBoundary(size_t c, const Point& q) const {
    const Point& cp = CustomerPoint(c);
    if (options.engine.fast_frontier) {
      return ModifyWhyNotPointFromFrontier(
          products->points, ShardedFrontier(cp, q, /*origin=*/q, c), cp, q,
          cost_model, options.engine.sort_dim);
    }
    return ModifyWhyNotPointFromCulprits(products->points,
                                         ShardedWindowHits(cp, q, c), cp, q,
                                         cost_model, options.engine.sort_dim);
  }

  MwpResult ModifyWhyNot(size_t c, const Point& q, Semantics semantics) const {
    MwpResult out = ModifyWhyNotBoundary(c, q);
    if (semantics == Semantics::kStrict) {
      ApplyStrictMwpImpl(CustomerPoint(c), q, cost_model, universe,
                         options.engine.epsilon_fraction, StrictProbeFor(c),
                         &out);
    }
    return out;
  }

  MqpResult ModifyQuery(size_t c, const Point& q, Semantics semantics) const {
    const Point& cp = CustomerPoint(c);
    MqpResult out;
    if (options.engine.fast_frontier) {
      out = ModifyQueryPointFromFrontier(
          products->points, ShardedFrontier(cp, q, /*origin=*/cp, c), cp, q,
          cost_model, options.engine.sort_dim);
    } else {
      out = ModifyQueryPointFromCulprits(products->points,
                                         ShardedWindowHits(cp, q, c), cp, q,
                                         cost_model, options.engine.sort_dim);
    }
    if (semantics == Semantics::kStrict) {
      ApplyStrictMqpImpl(cp, q, cost_model, universe,
                         options.engine.epsilon_fraction, StrictProbeFor(c),
                         &out);
    }
    return out;
  }

  std::shared_ptr<const SafeRegionResult> SafeRegion(const Point& q) const {
    {
      MutexLock lock(sr_mu);
      for (const auto& [key, sr] : sr_cache) {
        if (key == q) return sr;
      }
    }
    SafeRegionOptions sr_options;
    sr_options.sort_dim = options.engine.sort_dim;
    sr_options.max_rectangles = options.engine.max_safe_region_rectangles;
    const std::vector<size_t> rsl = ReverseSkyline(q);
    auto computed = std::make_shared<const SafeRegionResult>(
        ComputeSafeRegionWithDsls(
            products->points, customer_dataset().points, rsl, q, universe,
            [this](size_t customer) { return ShardedDsl(customer); },
            sr_options));
    MutexLock lock(sr_mu);
    for (const auto& [key, sr] : sr_cache) {
      if (key == q) return sr;
    }
    if (sr_cache.size() >= kSrCacheCapacity) {
      sr_cache.erase(sr_cache.begin());
    }
    sr_cache.emplace_back(q, computed);
    return computed;
  }

  std::shared_ptr<const SafeRegionResult> ApproxSafeRegion(
      const Point& q) const {
    WNRS_CHECK(HasApproxDsls());
    {
      MutexLock lock(approx_sr_mu);
      for (const auto& [key, sr] : approx_sr_cache) {
        if (key == q) return sr;
      }
    }
    SafeRegionOptions sr_options;
    sr_options.sort_dim = options.engine.sort_dim;
    sr_options.max_rectangles = options.engine.max_safe_region_rectangles;
    const std::vector<size_t> rsl = ReverseSkyline(q);
    auto computed = std::make_shared<const SafeRegionResult>(
        ComputeApproxSafeRegion(customer_dataset().points, *approx_dsls, rsl,
                                q, universe, sr_options));
    MutexLock lock(approx_sr_mu);
    for (const auto& [key, sr] : approx_sr_cache) {
      if (key == q) return sr;
    }
    if (approx_sr_cache.size() >= kSrCacheCapacity) {
      approx_sr_cache.erase(approx_sr_cache.begin());
    }
    approx_sr_cache.emplace_back(q, computed);
    return computed;
  }

  KeepsMembersFn MakeKeepsMembersFn(const Point& q) const {
    std::vector<size_t> rsl = ReverseSkyline(q);
    return [this, rsl = std::move(rsl)](const Point& q_star) {
      std::atomic<bool> keeps{true};
      pool->ParallelFor(0, rsl.size(), [&](size_t i) {
        if (!keeps.load(std::memory_order_relaxed)) return;
        if (!AllShardsWindowEmpty(CustomerPoint(rsl[i]), q_star, rsl[i])) {
          keeps.store(false, std::memory_order_relaxed);
        }
      });
      return keeps.load(std::memory_order_relaxed);
    };
  }

  /// Algorithm 4's three index probes, routed across the tiles. The
  /// primitives overload of ModifyQueryAndWhyNotPoint shares the whole
  /// surrounding control flow with the tree overload, so the case split,
  /// corner generation and costing are bit-identical by construction.
  MwqPrimitives MakePrimitives(size_t c) const {
    MwqPrimitives primitives;
    primitives.window_empty = [this, c](const Point& probe_q) {
      return AllShardsWindowEmpty(CustomerPoint(c), probe_q, c);
    };
    primitives.dynamic_skyline = [this, c]() { return ShardedDsl(c); };
    primitives.modify_why_not = [this, c](const Point& probe_q) {
      return ModifyWhyNotBoundary(c, probe_q);
    };
    return primitives;
  }

  MwqResult ModifyBoth(size_t c, const Point& q, Semantics semantics) const {
    std::shared_ptr<const SafeRegionResult> sr = SafeRegion(q);
    MwqResult out = ModifyQueryAndWhyNotPoint(
        MakePrimitives(c), products->points, CustomerPoint(c), q, sr->region,
        universe, cost_model, options.engine.sort_dim, MakeKeepsMembersFn(q));
    if (semantics == Semantics::kStrict) {
      ApplyStrictMwqImpl(CustomerPoint(c), cost_model, universe,
                         options.engine.epsilon_fraction, StrictProbeFor(c),
                         &out);
    }
    return out;
  }

  MwqResult ModifyBothApprox(size_t c, const Point& q,
                             Semantics semantics) const {
    std::shared_ptr<const SafeRegionResult> sr = ApproxSafeRegion(q);
    MwqResult out = ModifyQueryAndWhyNotPoint(
        MakePrimitives(c), products->points, CustomerPoint(c), q, sr->region,
        universe, cost_model, options.engine.sort_dim, MakeKeepsMembersFn(q));
    if (semantics == Semantics::kStrict) {
      ApplyStrictMwqImpl(CustomerPoint(c), cost_model, universe,
                         options.engine.epsilon_fraction, StrictProbeFor(c),
                         &out);
    }
    return out;
  }

  std::vector<MwqResult> ModifyBothBatch(const std::vector<size_t>& whos,
                                         const Point& q, bool use_approx,
                                         Semantics semantics) const {
    // Materialize the safe region and RSL(q) once before fanning out,
    // exactly like the single engine's batch path.
    if (use_approx) {
      // wnrs-lint: allow-discard(cache prewarm; workers re-read the value)
      (void)ApproxSafeRegion(q);
    } else {
      // wnrs-lint: allow-discard(cache prewarm; workers re-read the value)
      (void)SafeRegion(q);
    }
    // wnrs-lint: allow-discard(cache prewarm; workers re-read the value)
    (void)ReverseSkyline(q);
    return pool->ParallelMap<MwqResult>(whos.size(), [&](size_t i) {
      return use_approx ? ModifyBothApprox(whos[i], q, semantics)
                        : ModifyBoth(whos[i], q, semantics);
    });
  }
};

}  // namespace internal

// ---------------------------------------------------------------------------
// ShardedSnapshot: thin const delegation onto the pinned state.
// ---------------------------------------------------------------------------

const Dataset& ShardedSnapshot::products() const { return *state_->products; }
const Dataset& ShardedSnapshot::customers() const {
  return state_->customer_dataset();
}
bool ShardedSnapshot::shared_relation() const {
  return state_->shared_relation;
}
const CostModel& ShardedSnapshot::cost_model() const {
  return state_->cost_model;
}
const Rectangle& ShardedSnapshot::universe() const { return state_->universe; }
size_t ShardedSnapshot::num_shards() const { return state_->shards.size(); }
bool ShardedSnapshot::HasApproxDsls() const { return state_->HasApproxDsls(); }
size_t ShardedSnapshot::approx_k() const { return state_->approx_k; }

bool ShardedSnapshot::IsLiveProduct(size_t id) const {
  if (id >= state_->products->points.size()) return false;
  return id >= state_->removed.size() || !state_->removed[id];
}

std::vector<size_t> ShardedSnapshot::ReverseSkyline(const Point& q) const {
  return state_->ReverseSkyline(q);
}
bool ShardedSnapshot::IsReverseSkylineMember(size_t c, const Point& q) const {
  return state_->IsReverseSkylineMember(c, q);
}
WhyNotExplanation ShardedSnapshot::Explain(size_t c, const Point& q) const {
  return state_->Explain(c, q);
}
MwpResult ShardedSnapshot::ModifyWhyNot(size_t c, const Point& q,
                                        Semantics semantics) const {
  return state_->ModifyWhyNot(c, q, semantics);
}
MqpResult ShardedSnapshot::ModifyQuery(size_t c, const Point& q,
                                       Semantics semantics) const {
  return state_->ModifyQuery(c, q, semantics);
}
std::shared_ptr<const SafeRegionResult> ShardedSnapshot::SafeRegion(
    const Point& q) const {
  return state_->SafeRegion(q);
}
std::shared_ptr<const SafeRegionResult> ShardedSnapshot::ApproxSafeRegion(
    const Point& q) const {
  return state_->ApproxSafeRegion(q);
}
MwqResult ShardedSnapshot::ModifyBoth(size_t c, const Point& q,
                                      Semantics semantics) const {
  return state_->ModifyBoth(c, q, semantics);
}
MwqResult ShardedSnapshot::ModifyBothApprox(size_t c, const Point& q,
                                            Semantics semantics) const {
  return state_->ModifyBothApprox(c, q, semantics);
}
std::vector<MwqResult> ShardedSnapshot::ModifyBothBatch(
    const std::vector<size_t>& whos, const Point& q, bool use_approx,
    Semantics semantics) const {
  return state_->ModifyBothBatch(whos, q, use_approx, semantics);
}

Result<std::vector<size_t>> ShardedSnapshot::TryReverseSkyline(
    const Point& q) const {
  WNRS_RETURN_IF_ERROR(state_->ValidateQuery(q));
  return state_->ReverseSkyline(q);
}
Result<WhyNotExplanation> ShardedSnapshot::TryExplain(size_t c,
                                                      const Point& q) const {
  WNRS_RETURN_IF_ERROR(state_->ValidateQuery(q));
  WNRS_RETURN_IF_ERROR(state_->ValidateCustomer(c));
  return state_->Explain(c, q);
}
Result<MwpResult> ShardedSnapshot::TryModifyWhyNot(size_t c, const Point& q,
                                                   Semantics semantics) const {
  WNRS_RETURN_IF_ERROR(state_->ValidateQuery(q));
  WNRS_RETURN_IF_ERROR(state_->ValidateCustomer(c));
  return state_->ModifyWhyNot(c, q, semantics);
}
Result<MqpResult> ShardedSnapshot::TryModifyQuery(size_t c, const Point& q,
                                                  Semantics semantics) const {
  WNRS_RETURN_IF_ERROR(state_->ValidateQuery(q));
  WNRS_RETURN_IF_ERROR(state_->ValidateCustomer(c));
  return state_->ModifyQuery(c, q, semantics);
}
Result<std::shared_ptr<const SafeRegionResult>> ShardedSnapshot::TrySafeRegion(
    const Point& q) const {
  WNRS_RETURN_IF_ERROR(state_->ValidateQuery(q));
  return state_->SafeRegion(q);
}
Result<std::shared_ptr<const SafeRegionResult>>
ShardedSnapshot::TryApproxSafeRegion(const Point& q) const {
  WNRS_RETURN_IF_ERROR(state_->ValidateQuery(q));
  WNRS_RETURN_IF_ERROR(state_->ValidateApproxStore());
  return state_->ApproxSafeRegion(q);
}
Result<MwqResult> ShardedSnapshot::TryModifyBoth(size_t c, const Point& q,
                                                 Semantics semantics) const {
  WNRS_RETURN_IF_ERROR(state_->ValidateQuery(q));
  WNRS_RETURN_IF_ERROR(state_->ValidateCustomer(c));
  return state_->ModifyBoth(c, q, semantics);
}
Result<MwqResult> ShardedSnapshot::TryModifyBothApprox(
    size_t c, const Point& q, Semantics semantics) const {
  WNRS_RETURN_IF_ERROR(state_->ValidateQuery(q));
  WNRS_RETURN_IF_ERROR(state_->ValidateCustomer(c));
  WNRS_RETURN_IF_ERROR(state_->ValidateApproxStore());
  return state_->ModifyBothApprox(c, q, semantics);
}
Result<std::vector<MwqResult>> ShardedSnapshot::TryModifyBothBatch(
    const std::vector<size_t>& whos, const Point& q, bool use_approx,
    Semantics semantics) const {
  WNRS_RETURN_IF_ERROR(state_->ValidateQuery(q));
  for (size_t c : whos) {
    WNRS_RETURN_IF_ERROR(state_->ValidateCustomer(c));
  }
  if (use_approx) {
    WNRS_RETURN_IF_ERROR(state_->ValidateApproxStore());
  }
  return state_->ModifyBothBatch(whos, q, use_approx, semantics);
}

// ---------------------------------------------------------------------------
// ShardedEngine: construction, state management, mutations.
// ---------------------------------------------------------------------------

ShardedEngine::ShardedEngine(Dataset data, ShardedEngineOptions options)
    : options_(std::move(options)),
      pool_(std::make_shared<ThreadPool>(options_.engine.num_threads)) {
  WNRS_CHECK(!data.points.empty());
  const size_t num_tiles = std::max<size_t>(1, options_.num_shards);
  auto state = std::make_shared<internal::ShardState>();
  state->options = options_;
  state->shared_relation = true;
  state->universe = data.Bounds();
  state->cost_model = MakeGlobalCostModel(state->universe, options_.engine);
  state->removed.assign(data.points.size(), false);
  state->home_shard.resize(data.points.size());
  state->local_id.resize(data.points.size());
  state->shard_members = StrTiles(data.dims, data.points, num_tiles);
  const WhyNotEngineOptions shard_options =
      ShardEngineOptions(options_.engine);
  for (size_t s = 0; s < state->shard_members.size(); ++s) {
    const std::vector<size_t>& members = state->shard_members[s];
    Dataset shard_data;
    shard_data.name = data.name + "/shard" + std::to_string(s);
    shard_data.dims = data.dims;
    shard_data.points.reserve(members.size());
    for (size_t i = 0; i < members.size(); ++i) {
      shard_data.points.push_back(data.points[members[i]]);
      state->home_shard[members[i]] = s;
      state->local_id[members[i]] = i;
    }
    shard_engines_.push_back(
        std::make_unique<WhyNotEngine>(std::move(shard_data), shard_options));
    state->shards.push_back(shard_engines_.back()->Snapshot());
  }
  state->products = std::make_shared<const Dataset>(std::move(data));
  state->pool = pool_;
  state_ = std::move(state);
}

ShardedEngine::ShardedEngine(Dataset products, Dataset customers,
                             ShardedEngineOptions options)
    : options_(std::move(options)),
      pool_(std::make_shared<ThreadPool>(options_.engine.num_threads)) {
  WNRS_CHECK(products.dims == customers.dims);
  WNRS_CHECK(!products.points.empty());
  WNRS_CHECK(!customers.points.empty());
  const size_t num_tiles = std::max<size_t>(1, options_.num_shards);
  auto state = std::make_shared<internal::ShardState>();
  state->options = options_;
  state->shared_relation = false;
  state->universe = products.Bounds().BoundingUnion(customers.Bounds());
  state->cost_model = MakeGlobalCostModel(state->universe, options_.engine);
  state->removed.assign(products.points.size(), false);
  state->home_shard.resize(products.points.size());
  state->local_id.resize(products.points.size());
  state->shard_members =
      StrTiles(products.dims, products.points, num_tiles);
  const WhyNotEngineOptions shard_options =
      ShardEngineOptions(options_.engine);
  for (size_t s = 0; s < state->shard_members.size(); ++s) {
    const std::vector<size_t>& members = state->shard_members[s];
    Dataset shard_data;
    shard_data.name = products.name + "/shard" + std::to_string(s);
    shard_data.dims = products.dims;
    shard_data.points.reserve(members.size());
    for (size_t i = 0; i < members.size(); ++i) {
      shard_data.points.push_back(products.points[members[i]]);
      state->home_shard[members[i]] = s;
      state->local_id[members[i]] = i;
    }
    // Each shard carries a full customer replica: the bichromatic merge
    // is an intersection of per-shard reverse skylines, which needs every
    // shard to see every customer.
    shard_engines_.push_back(std::make_unique<WhyNotEngine>(
        std::move(shard_data), customers, shard_options));
    state->shards.push_back(shard_engines_.back()->Snapshot());
  }
  state->products = std::make_shared<const Dataset>(std::move(products));
  state->customers = std::make_shared<const Dataset>(std::move(customers));
  state->pool = pool_;
  state_ = std::move(state);
}

std::shared_ptr<const internal::ShardState> ShardedEngine::CurrentState()
    const {
  ReaderLock lock(state_mu_);
  return state_;
}

void ShardedEngine::PublishState(
    std::shared_ptr<const internal::ShardState> state) {
  MutexLock lock(state_mu_);
  state_ = std::move(state);
}

const Dataset& ShardedEngine::products() const {
  return *CurrentState()->products;
}
const Dataset& ShardedEngine::customers() const {
  return CurrentState()->customer_dataset();
}
bool ShardedEngine::shared_relation() const {
  return CurrentState()->shared_relation;
}
const CostModel& ShardedEngine::cost_model() const {
  return CurrentState()->cost_model;
}
const Rectangle& ShardedEngine::universe() const {
  return CurrentState()->universe;
}
size_t ShardedEngine::num_shards() const {
  return CurrentState()->shards.size();
}

size_t ShardedEngine::RouteToShard(const internal::ShardState& state,
                                   const Point& p) const {
  const Rectangle point_rect = Rectangle::FromPoint(p);
  size_t best = 0;
  double best_enlargement = std::numeric_limits<double>::infinity();
  for (size_t s = 0; s < state.shards.size(); ++s) {
    if (state.shards[s].universe().Contains(p)) return s;
    const double enlargement =
        state.shards[s].universe().EnlargementToInclude(point_rect);
    if (enlargement < best_enlargement) {
      best_enlargement = enlargement;
      best = s;
    }
  }
  return best;
}

size_t ShardedEngine::AddProduct(const Point& p) {
  MutexLock mlock(mutation_mu_);
  std::shared_ptr<const internal::ShardState> cur = CurrentState();
  WNRS_CHECK(p.dims() == cur->products->dims);
  const size_t s = RouteToShard(*cur, p);
  const size_t local = shard_engines_[s]->AddProduct(p);
  WNRS_CHECK(local == cur->shard_members[s].size());
  auto new_products = std::make_shared<Dataset>(*cur->products);
  const size_t id = new_products->points.size();
  new_products->points.push_back(p);
  auto next = std::make_shared<internal::ShardState>(*cur);
  next->products = std::move(new_products);
  next->removed.resize(id + 1, false);
  next->shard_members[s].push_back(id);
  next->home_shard.push_back(s);
  next->local_id.push_back(local);
  // Only the shard that absorbed the tuple re-froze; re-pin its snapshot
  // and keep the others as they were.
  next->shards[s] = shard_engines_[s]->Snapshot();
  if (!next->universe.Contains(p)) {
    next->universe = next->universe.BoundingUnion(Rectangle::FromPoint(p));
    next->cost_model = MakeGlobalCostModel(next->universe, options_.engine);
  }
  // The approximated-DSL store is a function of the product set; drop it
  // with the snapshot, exactly like the single engine.
  next->approx_dsls.reset();
  next->approx_k = 0;
  PublishState(std::move(next));
  return id;
}

Result<size_t> ShardedEngine::TryAddProduct(const Point& p) {
  {
    std::shared_ptr<const internal::ShardState> cur = CurrentState();
    WNRS_RETURN_IF_ERROR(cur->ValidatePoint(p, "product point"));
  }
  return AddProduct(p);
}

bool ShardedEngine::RemoveProduct(size_t id) {
  return TryRemoveProduct(id).ok();
}

Status ShardedEngine::TryRemoveProduct(size_t id) {
  MutexLock mlock(mutation_mu_);
  std::shared_ptr<const internal::ShardState> cur = CurrentState();
  if (id >= cur->products->points.size()) {
    return Status::NotFound(StrFormat("no product with id %zu", id));
  }
  if (id < cur->removed.size() && cur->removed[id]) {
    return Status::NotFound(StrFormat("product %zu was already removed", id));
  }
  const size_t s = cur->home_shard[id];
  const Status shard_status =
      shard_engines_[s]->TryRemoveProduct(cur->local_id[id]);
  WNRS_CHECK(shard_status.ok())
      << "sharded remove out of sync: " << shard_status.ToString();
  auto next = std::make_shared<internal::ShardState>(*cur);
  next->removed.resize(cur->products->points.size(), false);
  next->removed[id] = true;
  next->shards[s] = shard_engines_[s]->Snapshot();
  next->approx_dsls.reset();
  next->approx_k = 0;
  PublishState(std::move(next));
  return Status::Ok();
}

bool ShardedEngine::IsLiveProduct(size_t id) const {
  std::shared_ptr<const internal::ShardState> cur = CurrentState();
  if (id >= cur->products->points.size()) return false;
  return id >= cur->removed.size() || !cur->removed[id];
}

void ShardedEngine::PrecomputeApproxDsls(size_t k) {
  WNRS_CHECK(k >= 2);
  MutexLock mlock(mutation_mu_);
  std::shared_ptr<const internal::ShardState> cur = CurrentState();
  const Dataset& ds = cur->customer_dataset();
  auto store =
      std::make_shared<std::vector<std::vector<Point>>>(ds.points.size());
  // One cross-shard dynamic skyline per customer. The merged DSL is the
  // same point set the single engine samples from; see the header note on
  // in-store ordering for DSLs of <= k points.
  cur->pool->ParallelFor(0, ds.points.size(), [&](size_t c) {
    const std::vector<RStarTree::Id> dsl = cur->ShardedDsl(c);
    std::vector<Point> transformed;
    transformed.reserve(dsl.size());
    for (RStarTree::Id id : dsl) {
      transformed.push_back(ToDistanceSpace(
          cur->products->points[static_cast<size_t>(id)], ds.points[c]));
    }
    (*store)[c] =
        ApproximateSkyline(std::move(transformed), k, options_.engine.sort_dim);
  });
  auto next = std::make_shared<internal::ShardState>(*cur);
  next->approx_dsls = std::move(store);
  next->approx_k = k;
  PublishState(std::move(next));
}

bool ShardedEngine::HasApproxDsls() const {
  return CurrentState()->HasApproxDsls();
}

size_t ShardedEngine::approx_k() const { return CurrentState()->approx_k; }

}  // namespace shard
}  // namespace wnrs
