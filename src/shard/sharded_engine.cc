#include "shard/sharded_engine.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <string>
#include <utility>

#include "common/logging.h"
#include "core/query_core.h"
#include "geometry/dominance.h"
#include "geometry/transform.h"
#include "index/bulk_load.h"
#include "reverse_skyline/window_query.h"

namespace wnrs {
namespace shard {

namespace {

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

/// The coordinator's state: the shared query core (core/query_core.h)
/// over the tiles, plus the routing tables and one pinned EngineSnapshot
/// per shard. The core's global catalog, tombstones, universe and cost
/// model are the id space and costs shared with the unsharded engine;
/// shard-local cost models are never used. The core takes no paranoid
/// re-proof input: the coordinator holds no global tree, and its shard
/// engines check their own.
struct ShardState final : wnrs::internal::QueryCore {
  /// One pinned engine state per shard; probes and per-shard BBRS run
  /// against these, never against the live engines.
  std::vector<EngineSnapshot> shards;
  /// shard -> local product id -> global product id (ascending at
  /// construction; appended in arrival order afterwards).
  std::vector<std::vector<size_t>> shard_members;
  /// global product id -> owning shard / local id within it.
  std::vector<size_t> home_shard;
  std::vector<size_t> local_id;

  using QueryCore::QueryCore;
  /// Copy-on-write seed (see QueryCore).
  ShardState(const ShardState& other) = default;

  /// The shard-local exclusion of customer `c`'s own tuple: only the home
  /// shard holds it, and there it lives under the local id.
  std::optional<RStarTree::Id> ExcludeIn(size_t s, size_t c) const {
    if (!shared_relation) return std::nullopt;
    if (home_shard[c] != s) return std::nullopt;
    return static_cast<RStarTree::Id>(local_id[c]);
  }

  // ---- The QueryCore probes across the tiles. Each one merges into the
  // answer the single engine's probe gives (DESIGN.md §15). ----

  /// W(c_pt, q) holds no product across all shards, `exclude_customer`'s
  /// own tuple excluded in its home shard. Shards whose bounds miss the
  /// window are skipped without a probe — the pruning that makes the
  /// conjunction cheaper than one big-tree probe: a spatially tight window
  /// touches few tiles, and the per-tile early exit fires sooner on the
  /// smaller trees.
  bool ProbeWindowEmpty(const Point& c_pt, const Point& q,
                        size_t exclude_customer) const override {
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
  std::vector<RStarTree::Id> ProbeWindowHits(
      const Point& c_pt, const Point& q,
      size_t exclude_customer) const override {
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
  std::vector<RStarTree::Id> ProbeWindowFrontier(
      const Point& c_pt, const Point& q, const Point& origin,
      size_t exclude_customer) const override {
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
  std::vector<RStarTree::Id> ProbeDynamicSkyline(size_t c) const override {
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

  std::vector<size_t> ComputeReverseSkyline(const Point& q) const override {
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
              ProbeWindowEmpty(products->points[c], q, c) ? 1 : 0);
        });
    std::vector<size_t> out;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (keep[i] != 0) out.push_back(candidates[i]);
    }
    std::sort(out.begin(), out.end());
    return out;
  }
};

}  // namespace internal

// ---------------------------------------------------------------------------
// ShardedSnapshot: the shard count beyond QuerySession.
// ---------------------------------------------------------------------------

ShardedSnapshot::ShardedSnapshot(
    std::shared_ptr<const internal::ShardState> state)
    : QuerySession(std::move(state)) {}

size_t ShardedSnapshot::num_shards() const {
  // A ShardedSnapshot is only ever built over a ShardState.
  return static_cast<const internal::ShardState&>(*core_).shards.size();
}

// ---------------------------------------------------------------------------
// ShardedEngine: construction, state management, mutations.
// ---------------------------------------------------------------------------

ShardedEngine::ShardedEngine(Dataset data, ShardedEngineOptions options)
    : ShardedEngine(std::move(data), nullptr, std::move(options)) {}

ShardedEngine::ShardedEngine(Dataset products, Dataset customers,
                             ShardedEngineOptions options)
    : ShardedEngine(std::move(products),
                    std::make_shared<const Dataset>(std::move(customers)),
                    std::move(options)) {}

ShardedEngine::ShardedEngine(Dataset products,
                             std::shared_ptr<const Dataset> customers,
                             ShardedEngineOptions options)
    : options_(std::move(options)),
      pool_(std::make_shared<ThreadPool>(options_.engine.num_threads)) {
  WNRS_CHECK(!products.points.empty());
  if (customers != nullptr) {
    WNRS_CHECK(products.dims == customers->dims);
    WNRS_CHECK(!customers->points.empty());
  }
  std::vector<std::vector<size_t>> tiles = StrTiles(
      products.dims, products.points, std::max<size_t>(1, options_.num_shards));
  std::vector<size_t> home_shard(products.points.size());
  std::vector<size_t> local_id(products.points.size());
  std::vector<EngineSnapshot> shards;
  shards.reserve(tiles.size());
  const WhyNotEngineOptions shard_options =
      ShardEngineOptions(options_.engine);
  for (size_t s = 0; s < tiles.size(); ++s) {
    Dataset shard_data;
    shard_data.name = products.name + "/shard" + std::to_string(s);
    shard_data.dims = products.dims;
    shard_data.points.reserve(tiles[s].size());
    for (size_t i = 0; i < tiles[s].size(); ++i) {
      shard_data.points.push_back(products.points[tiles[s][i]]);
      home_shard[tiles[s][i]] = s;
      local_id[tiles[s][i]] = i;
    }
    // Bichromatic: each shard carries a full customer replica, since the
    // merge is an intersection of per-shard reverse skylines, which needs
    // every shard to see every customer.
    shard_engines_.push_back(
        customers == nullptr
            ? std::make_unique<WhyNotEngine>(std::move(shard_data),
                                             shard_options)
            : std::make_unique<WhyNotEngine>(std::move(shard_data),
                                             Dataset(*customers),
                                             shard_options));
    shards.push_back(shard_engines_.back()->Snapshot());
  }
  auto product_data = std::make_shared<const Dataset>(std::move(products));
  Rectangle universe = wnrs::internal::UnionBounds(*product_data,
                                                   customers.get());
  auto state = std::make_shared<internal::ShardState>(
      options_.engine, std::move(product_data), std::move(customers),
      std::vector<bool>(), std::move(universe), pool_);
  state->shards = std::move(shards);
  state->shard_members = std::move(tiles);
  state->home_shard = std::move(home_shard);
  state->local_id = std::move(local_id);
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
  auto next = std::make_shared<internal::ShardState>(*cur);
  const size_t id = next->AppendProduct(p);
  next->shard_members[s].push_back(id);
  next->home_shard.push_back(s);
  next->local_id.push_back(local);
  // Only the shard that absorbed the tuple re-froze; re-pin its snapshot
  // and keep the others as they were.
  next->shards[s] = shard_engines_[s]->Snapshot();
  PublishState(std::move(next));
  return id;
}

Result<size_t> ShardedEngine::TryAddProduct(const Point& p) {
  WNRS_RETURN_IF_ERROR(CurrentState()->ValidatePoint(p, "product point"));
  return AddProduct(p);
}

bool ShardedEngine::RemoveProduct(size_t id) {
  return TryRemoveProduct(id).ok();
}

Status ShardedEngine::TryRemoveProduct(size_t id) {
  MutexLock mlock(mutation_mu_);
  std::shared_ptr<const internal::ShardState> cur = CurrentState();
  WNRS_RETURN_IF_ERROR(cur->ValidateRemovable(id));
  const size_t s = cur->home_shard[id];
  const Status shard_status =
      shard_engines_[s]->TryRemoveProduct(cur->local_id[id]);
  WNRS_CHECK(shard_status.ok())
      << "sharded remove out of sync: " << shard_status.ToString();
  auto next = std::make_shared<internal::ShardState>(*cur);
  next->MarkRemoved(id);
  next->shards[s] = shard_engines_[s]->Snapshot();
  PublishState(std::move(next));
  return Status::Ok();
}

bool ShardedEngine::IsLiveProduct(size_t id) const {
  return CurrentState()->IsLiveProduct(id);
}

void ShardedEngine::PrecomputeApproxDsls(size_t k) {
  MutexLock mlock(mutation_mu_);
  std::shared_ptr<const internal::ShardState> cur = CurrentState();
  // The merged DSLs are the point sets the single engine samples from;
  // see the header note on in-store ordering for DSLs of <= k points.
  auto next = std::make_shared<internal::ShardState>(*cur);
  next->approx_dsls = cur->BuildApproxStore(k);
  next->approx_k = k;
  PublishState(std::move(next));
}

bool ShardedEngine::HasApproxDsls() const {
  return CurrentState()->HasApproxDsls();
}

size_t ShardedEngine::approx_k() const { return CurrentState()->approx_k; }

}  // namespace shard
}  // namespace wnrs
