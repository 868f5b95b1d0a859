#include "core/engine.h"

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "core/query_core.h"
#include "index/bulk_load.h"
#include "index/packed_rtree.h"
#include "index/validate.h"
#include "reverse_skyline/bbrs.h"
#include "reverse_skyline/window_query.h"
#include "skyline/bbs.h"
#include "storage/engine_store.h"
#include "storage/file_io.h"
#include "storage/packed_slab.h"

namespace wnrs {
namespace {

/// Anchors for the reference-returning legacy SafeRegion/ApproxSafeRegion
/// facade methods: the last result handed out on this thread is pinned
/// here, so the reference stays valid across cache eviction and engine
/// mutation until the thread's next call.
thread_local std::shared_ptr<const SafeRegionResult> tls_sr_anchor;
thread_local std::shared_ptr<const SafeRegionResult> tls_approx_sr_anchor;

}  // namespace

namespace internal {

/// Everything WhyNotEngine::Open reconstructs from a bundle directory
/// before it can seed an EngineCore. Cross-file consistency is verified
/// by Open (Status, not aborts) before the core constructor runs.
struct RestoredEngineParts {
  WhyNotEngineOptions options;
  bool shared_relation = false;
  std::shared_ptr<const Dataset> products;
  std::shared_ptr<const Dataset> customers;
  std::shared_ptr<const RStarTree> tree;
  std::shared_ptr<const RStarTree> customer_tree;
  std::shared_ptr<const PackedRTree> packed_tree;
  std::shared_ptr<const PackedRTree> packed_customer_tree;
  std::vector<bool> removed;
  Rectangle universe;
  std::shared_ptr<ThreadPool> pool;
};

/// The single engine's state: the shared query core over one product
/// R*-tree (plus the customer tree when bichromatic), each served from
/// its frozen packed image when the packed read path is on.
struct EngineCore final : QueryCore {
  std::shared_ptr<const RStarTree> tree;
  std::shared_ptr<const RStarTree> customer_tree;
  /// Frozen arena images of the trees above, serving the query hot loops
  /// when options.use_packed_read_path is set (null otherwise). Rebuilt
  /// by every mutation that changes the corresponding source tree; in
  /// shared-relation mode packed_customer_tree stays null (packed_tree
  /// plays both roles, like `tree`).
  std::shared_ptr<const PackedRTree> packed_tree;
  std::shared_ptr<const PackedRTree> packed_customer_tree;

  /// Builds the trees over `products_in` (and `customers_in`, null for
  /// the shared relation).
  EngineCore(std::shared_ptr<const Dataset> products_in,
             std::shared_ptr<const Dataset> customers_in,
             WhyNotEngineOptions options_in,
             std::shared_ptr<ThreadPool> pool_in)
      : QueryCore(std::move(options_in), products_in, customers_in, {},
                  UnionBounds(*products_in, customers_in.get()),
                  std::move(pool_in)),
        tree(std::make_shared<const RStarTree>(BulkLoadPoints(
            products->dims, products->points, options.rtree))) {
    if (customers != nullptr) {
      customer_tree = std::make_shared<const RStarTree>(BulkLoadPoints(
          customers->dims, customers->points, options.rtree));
    }
    if (options.use_packed_read_path) {
      packed_tree =
          std::make_shared<const PackedRTree>(PackedRTree::Freeze(*tree));
      if (customer_tree != nullptr) {
        packed_customer_tree = std::make_shared<const PackedRTree>(
            PackedRTree::Freeze(*customer_tree));
      }
    }
    ParanoidCheckIndex();
  }

  /// Restore constructor (WhyNotEngine::Open): adopts components loaded
  /// from a bundle instead of building them from raw datasets. The
  /// universe comes from the bundle, not from Bounds() — AddProduct may
  /// have widened it past the current points — and the cost model is
  /// recomputed from that persisted universe, so cost numbers match the
  /// saved engine exactly.
  explicit EngineCore(RestoredEngineParts parts)
      : QueryCore(std::move(parts.options), std::move(parts.products),
                  std::move(parts.customers), std::move(parts.removed),
                  std::move(parts.universe), std::move(parts.pool)),
        tree(std::move(parts.tree)),
        customer_tree(std::move(parts.customer_tree)),
        packed_tree(std::move(parts.packed_tree)),
        packed_customer_tree(std::move(parts.packed_customer_tree)) {
    WNRS_CHECK(shared_relation == parts.shared_relation);
    ParanoidCheckIndex();
  }

  /// Copy-on-write seed (see QueryCore).
  EngineCore(const EngineCore& other) = default;

  std::optional<RStarTree::Id> ExcludeFor(size_t customer_index) const {
    if (!shared_relation) return std::nullopt;
    return static_cast<RStarTree::Id>(customer_index);
  }

  /// Installs a mutated product tree, re-freezing its packed image, and
  /// re-checks the index when paranoid.
  void ReplaceTree(std::shared_ptr<const RStarTree> next_tree) {
    tree = std::move(next_tree);
    if (options.use_packed_read_path) {
      packed_tree =
          std::make_shared<const PackedRTree>(PackedRTree::Freeze(*tree));
    }
    ParanoidCheckIndex();
  }

  // ---- paranoid_checks hooks (deep validators; see core/validate.h and
  // index/validate.h). Violations abort: never serve a wrong answer. ----

  std::optional<AnswerValidationInput> ValidationInput() const override {
    AnswerValidationInput in;
    in.products_tree = tree.get();
    in.customers = &customer_dataset().points;
    in.shared_relation = shared_relation;
    in.epsilon_fraction = options.epsilon_fraction;
    in.universe = universe;
    in.cost_model = &cost_model;
    return in;
  }

  /// Structural validation of the index state: dynamic tree invariants
  /// plus packed-image parity. Called at construction and after every
  /// mutation when paranoid_checks is on.
  void ParanoidCheckIndex() const {
    if (!options.paranoid_checks) return;
    Status s = ValidateTree(*tree);
    WNRS_CHECK(s.ok()) << "paranoid product tree: " << s.ToString();
    if (customer_tree != nullptr) {
      s = ValidateTree(*customer_tree);
      WNRS_CHECK(s.ok()) << "paranoid customer tree: " << s.ToString();
    }
    if (packed_tree != nullptr) {
      s = ValidatePacked(*packed_tree);
      WNRS_CHECK(s.ok()) << "paranoid packed tree: " << s.ToString();
      s = ValidatePackedMatchesDynamic(*packed_tree, *tree);
      WNRS_CHECK(s.ok()) << "paranoid packed parity: " << s.ToString();
    }
    if (packed_customer_tree != nullptr) {
      s = ValidatePackedMatchesDynamic(*packed_customer_tree, *customer_tree);
      WNRS_CHECK(s.ok()) << "paranoid packed customer parity: "
                         << s.ToString();
    }
  }

  // ---- Index access, served by the packed read path when available. ----

  /// Window-emptiness probe against the product set (the reverse-skyline
  /// membership test).
  bool ProductWindowEmpty(const Point& c, const Point& q,
                          std::optional<RStarTree::Id> exclude) const {
    return packed_tree != nullptr ? WindowEmpty(*packed_tree, c, q, exclude)
                                  : WindowEmpty(*tree, c, q, exclude);
  }

  /// Window hit set Λ(c, q) as ascending product ids.
  std::vector<RStarTree::Id> ProductWindowHits(
      const Point& c, const Point& q,
      std::optional<RStarTree::Id> exclude) const {
    return packed_tree != nullptr ? WindowQuery(*packed_tree, c, q, exclude)
                                  : WindowQuery(*tree, c, q, exclude);
  }

  /// Window skyline of (c, q) in `origin`'s distance space, ascending ids.
  std::vector<RStarTree::Id> ProductWindowFrontier(
      const Point& c, const Point& q, const Point& origin,
      std::optional<RStarTree::Id> exclude) const {
    return packed_tree != nullptr
               ? WindowSkyline(*packed_tree, c, q, origin, exclude)
               : WindowSkyline(*tree, c, q, origin, exclude);
  }

  /// DSL(c) over the product index (BBS traversal order; duplicates of a
  /// skyline point are all reported).
  std::vector<RStarTree::Id> ProductDynamicSkyline(
      const Point& c, std::optional<RStarTree::Id> exclude) const {
    return packed_tree != nullptr ? BbsDynamicSkyline(*packed_tree, c, exclude)
                                  : BbsDynamicSkyline(*tree, c, exclude);
  }

  std::vector<RStarTree::Id> ProductGlobalSkylineCandidates(
      const Point& q, std::optional<RStarTree::Id> exclude) const {
    return packed_tree != nullptr
               ? GlobalSkylineCandidates(*packed_tree, q, exclude)
               : GlobalSkylineCandidates(*tree, q, exclude);
  }

  // ---- The QueryCore probes: the calls above with the customer's
  // own-tuple exclusion bound in. ----

  bool ProbeWindowEmpty(const Point& c_pt, const Point& q,
                        size_t customer) const override {
    return ProductWindowEmpty(c_pt, q, ExcludeFor(customer));
  }

  std::vector<RStarTree::Id> ProbeWindowHits(const Point& c_pt,
                                             const Point& q,
                                             size_t customer) const override {
    return ProductWindowHits(c_pt, q, ExcludeFor(customer));
  }

  std::vector<RStarTree::Id> ProbeWindowFrontier(
      const Point& c_pt, const Point& q, const Point& origin,
      size_t customer) const override {
    return ProductWindowFrontier(c_pt, q, origin, ExcludeFor(customer));
  }

  std::vector<RStarTree::Id> ProbeDynamicSkyline(
      size_t customer) const override {
    return ProductDynamicSkyline(CustomerPoint(customer),
                                 ExcludeFor(customer));
  }

  std::vector<size_t> ComputeReverseSkyline(const Point& q) const override {
    std::vector<RStarTree::Id> ids;
    if (shared_relation) {
      ids = packed_tree != nullptr
                ? BbrsReverseSkyline(*packed_tree, q, pool.get())
                : BbrsReverseSkyline(*tree, q, pool.get());
    } else if (packed_tree != nullptr) {
      ids = BbrsReverseSkylineBichromatic(*packed_customer_tree, *packed_tree,
                                          q, /*shared_relation=*/false,
                                          pool.get());
    } else {
      ids = BbrsReverseSkylineBichromatic(*customer_tree, *tree, q,
                                          /*shared_relation=*/false,
                                          pool.get());
    }
    std::vector<size_t> out;
    out.reserve(ids.size());
    for (RStarTree::Id id : ids) out.push_back(static_cast<size_t>(id));
    return out;
  }

  std::vector<size_t> CustomersInRange(const Rectangle& window) const {
    // Both RangeQueryIds implementations return ascending ids.
    std::vector<RStarTree::Id> ids;
    if (packed_tree != nullptr) {
      const PackedRTree& t =
          shared_relation ? *packed_tree : *packed_customer_tree;
      ids = t.RangeQueryIds(window);
    } else {
      const RStarTree& t = shared_relation ? *tree : *customer_tree;
      ids = t.RangeQueryIds(window);
    }
    std::vector<size_t> out;
    out.reserve(ids.size());
    for (RStarTree::Id id : ids) out.push_back(static_cast<size_t>(id));
    return out;
  }
};

}  // namespace internal

/// Snapshot-delta scope. The constructor captures the registry at entry
/// of the outermost public call; the destructor captures again and books
/// the difference into the engine's cumulative and last-call stats. The
/// depth counter is engine-wide (not thread-local), so with overlapping
/// concurrent calls the first one in attributes the whole window — the
/// cumulative totals stay exact, per-call attribution becomes aggregate.
class WhyNotEngine::StatsScope {
 public:
  explicit StatsScope(const WhyNotEngine* engine) : engine_(engine) {
    outermost_ =
        engine_->stats_depth_.fetch_add(1, std::memory_order_relaxed) == 0;
    if (outermost_) {
      start_ = MetricsRegistry::Default().CaptureQueryStats();
      start_time_ = std::chrono::steady_clock::now();
    }
  }

  StatsScope(const StatsScope&) = delete;
  StatsScope& operator=(const StatsScope&) = delete;

  ~StatsScope() {
    if (outermost_) {
      QueryStats delta =
          MetricsRegistry::Default().CaptureQueryStats() - start_;
      delta.engine_queries = 1;
      MetricAdd(CounterId::kEngineQueries);
      MetricRecord(
          HistogramId::kEngineQueryMicros,
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - start_time_)
                  .count()));
      MutexLock lock(engine_->stats_mu_);
      engine_->last_query_stats_ = delta;
      engine_->cum_stats_ += delta;
    }
    engine_->stats_depth_.fetch_sub(1, std::memory_order_relaxed);
  }

 private:
  const WhyNotEngine* engine_;
  bool outermost_ = false;
  QueryStats start_;
  std::chrono::steady_clock::time_point start_time_;
};

// ---------------------------------------------------------------------------
// EngineSnapshot: the calls beyond QuerySession, on the pinned core.
// ---------------------------------------------------------------------------

EngineSnapshot::EngineSnapshot(std::shared_ptr<const internal::EngineCore> core)
    : QuerySession(std::move(core)) {}

const internal::EngineCore& EngineSnapshot::engine_core() const {
  // An EngineSnapshot is only ever built over an EngineCore.
  return static_cast<const internal::EngineCore&>(*core_);
}

const RStarTree& EngineSnapshot::product_tree() const {
  return *engine_core().tree;
}
std::vector<size_t> EngineSnapshot::CustomersInRange(
    const Rectangle& window) const {
  return engine_core().CustomersInRange(window);
}
SafeRegionResult EngineSnapshot::ConstrainedSafeRegion(
    const Point& q, const Rectangle& limits) const {
  return core_->ConstrainedSafeRegion(q, limits);
}
MwqResult EngineSnapshot::ModifyBothConstrained(size_t c, const Point& q,
                                                const Rectangle& limits,
                                                Semantics semantics) const {
  return core_->ModifyBothConstrained(c, q, limits, semantics);
}
std::vector<size_t> EngineSnapshot::LostCustomers(const Point& q,
                                                  const Point& q_star) const {
  return core_->LostCustomers(q, q_star);
}
double EngineSnapshot::MqpEvaluationCost(const Point& q,
                                         const Point& q_star) const {
  return core_->MqpEvaluationCost(q, q_star);
}
std::optional<Point> EngineSnapshot::NudgeToStrictMember(
    const Point& c_star, const Point& q, size_t customer_index) const {
  return core_->NudgeToStrictMember(c_star, q, customer_index);
}
bool EngineSnapshot::ProbeWindowEmpty(
    const Point& c, const Point& q,
    std::optional<RStarTree::Id> exclude) const {
  return engine_core().ProductWindowEmpty(c, q, exclude);
}
std::vector<RStarTree::Id> EngineSnapshot::ProbeWindowHits(
    const Point& c, const Point& q,
    std::optional<RStarTree::Id> exclude) const {
  return engine_core().ProductWindowHits(c, q, exclude);
}
std::vector<RStarTree::Id> EngineSnapshot::ProbeWindowFrontier(
    const Point& c, const Point& q, const Point& origin,
    std::optional<RStarTree::Id> exclude) const {
  return engine_core().ProductWindowFrontier(c, q, origin, exclude);
}
std::vector<RStarTree::Id> EngineSnapshot::ProbeDynamicSkyline(
    const Point& c, std::optional<RStarTree::Id> exclude) const {
  return engine_core().ProductDynamicSkyline(c, exclude);
}
std::vector<RStarTree::Id> EngineSnapshot::ProbeGlobalSkylineCandidates(
    const Point& q, std::optional<RStarTree::Id> exclude) const {
  return engine_core().ProductGlobalSkylineCandidates(q, exclude);
}

// ---------------------------------------------------------------------------
// WhyNotEngine: snapshot management + the stats-keeping serial facade.
// ---------------------------------------------------------------------------

WhyNotEngine::WhyNotEngine(Dataset products, Dataset customers,
                           WhyNotEngineOptions options)
    : pool_(std::make_shared<ThreadPool>(options.num_threads)),
      core_(std::make_shared<const internal::EngineCore>(
          std::make_shared<const Dataset>(std::move(products)),
          std::make_shared<const Dataset>(std::move(customers)), options,
          pool_)) {}

WhyNotEngine::WhyNotEngine(Dataset data, WhyNotEngineOptions options)
    : pool_(std::make_shared<ThreadPool>(options.num_threads)),
      core_(std::make_shared<const internal::EngineCore>(
          std::make_shared<const Dataset>(std::move(data)), nullptr, options,
          pool_)) {}

WhyNotEngine::WhyNotEngine(RestoreBadge, std::shared_ptr<ThreadPool> pool,
                           std::shared_ptr<const internal::EngineCore> core)
    : pool_(std::move(pool)), core_(std::move(core)) {}

// ---------------------------------------------------------------------------
// Persistence: the engine bundle (DESIGN.md §13). data.bin holds the
// datasets, tombstones, universe and R* knobs; each R*-tree is stored
// once, as its mmap-able packed slab, and Open thaws the mutation tree
// from that slab.
// ---------------------------------------------------------------------------

Status WhyNotEngine::Save(const std::string& dir) const {
  std::shared_ptr<const internal::EngineCore> cur = CurrentCore();
  WNRS_RETURN_IF_ERROR(storage::EnsureDirectory(dir));
  const std::string base = dir + "/";

  storage::EngineBundleData data;
  data.shared_relation = cur->shared_relation;
  data.products = *cur->products;
  if (cur->customers != nullptr) {
    data.customers = *cur->customers;
    data.has_customers = true;
  }
  data.removed = cur->removed;
  data.universe = cur->universe;
  data.rtree = cur->tree->options();
  WNRS_RETURN_IF_ERROR(
      storage::SaveBundleData(data, base + storage::kBundleDataFile));

  // An all-dynamic engine (use_packed_read_path off) holds no slab, so
  // it freezes one for the bundle.
  auto save_slab = [&base](const PackedRTree* packed, const RStarTree& tree,
                           const char* file) {
    if (packed != nullptr) return storage::SavePacked(*packed, base + file);
    return storage::SavePacked(PackedRTree::Freeze(tree), base + file);
  };
  WNRS_RETURN_IF_ERROR(save_slab(cur->packed_tree.get(), *cur->tree,
                                 storage::kBundlePackedFile));
  if (cur->customer_tree != nullptr) {
    WNRS_RETURN_IF_ERROR(save_slab(cur->packed_customer_tree.get(),
                                   *cur->customer_tree,
                                   storage::kBundlePackedCustomerFile));
  }
  return Status::Ok();
}

namespace {

/// Opens one slab of a bundle, checks it against the points it indexes
/// (a slab from another tree state must never serve), and thaws the
/// mutation tree from it. The slab is kept for the read path only when
/// options.use_packed_read_path is set.
Status RestoreIndex(const std::string& slab_path,
                    const std::vector<Point>& points,
                    const std::vector<bool>& removed,
                    const RTreeOptions& rtree,
                    const WhyNotEngineOptions& options,
                    std::shared_ptr<const RStarTree>* tree,
                    std::shared_ptr<const PackedRTree>* packed) {
  const EngineStorageOptions& storage_options = options.storage;
  Result<PackedRTree> slab =
      storage_options.mmap_packed
          ? storage::OpenPackedMapped(slab_path,
                                      storage_options.verify_checksums)
          : storage::OpenPackedBuffered(slab_path,
                                        storage_options.verify_checksums);
  WNRS_RETURN_IF_ERROR(slab.status());
  WNRS_RETURN_IF_ERROR(
      ValidatePackedMatchesPoints(slab.value(), points, removed));
  Result<RStarTree> thawed = slab.value().Thaw(rtree);
  WNRS_RETURN_IF_ERROR(thawed.status());
  *tree = std::make_shared<const RStarTree>(std::move(thawed).value());
  if (options.use_packed_read_path) {
    *packed = std::make_shared<const PackedRTree>(std::move(slab).value());
  }
  return Status::Ok();
}

}  // namespace

Result<std::unique_ptr<WhyNotEngine>> WhyNotEngine::Open(
    const std::string& dir, WhyNotEngineOptions options) {
  const std::string base = dir + "/";
  Result<storage::EngineBundleData> data_r =
      storage::LoadBundleData(base + storage::kBundleDataFile);
  WNRS_RETURN_IF_ERROR(data_r.status());
  storage::EngineBundleData& data = data_r.value();

  internal::RestoredEngineParts parts;
  parts.options = options;
  parts.shared_relation = data.shared_relation;
  parts.removed = std::move(data.removed);
  parts.universe = data.universe;
  const size_t dims = data.products.dims;
  size_t live = data.products.points.size();
  for (bool r : parts.removed) {
    if (r) --live;
  }
  if (live == 0) {
    return Status::InvalidArgument(
        "[tree-shape] bundle has no live products: " + dir);
  }
  parts.products =
      std::make_shared<const Dataset>(std::move(data.products));
  if (data.has_customers) {
    if (data.customers.dims != dims || data.customers.points.empty()) {
      return Status::InvalidArgument(
          "[dimension] bundle customer dataset inconsistent with "
          "products: " +
          dir);
    }
    parts.customers =
        std::make_shared<const Dataset>(std::move(data.customers));
  } else if (!data.shared_relation) {
    return Status::InvalidArgument(
        "[bundle-flags] bichromatic bundle without a customer dataset: " +
        dir);
  }
  if (parts.universe.dims() != dims) {
    return Status::InvalidArgument(
        "[dimension] bundle universe dimensionality mismatch: " + dir);
  }

  WNRS_RETURN_IF_ERROR(RestoreIndex(
      base + storage::kBundlePackedFile, parts.products->points,
      parts.removed, data.rtree, options, &parts.tree, &parts.packed_tree));
  if (parts.customers != nullptr) {
    WNRS_RETURN_IF_ERROR(RestoreIndex(
        base + storage::kBundlePackedCustomerFile, parts.customers->points,
        {}, data.rtree, options, &parts.customer_tree,
        &parts.packed_customer_tree));
  }

  auto pool = std::make_shared<ThreadPool>(options.num_threads);
  parts.pool = pool;
  auto core =
      std::make_shared<const internal::EngineCore>(std::move(parts));
  return std::unique_ptr<WhyNotEngine>(std::make_unique<WhyNotEngine>(
      RestoreBadge{}, std::move(pool), std::move(core)));
}

std::shared_ptr<const internal::EngineCore> WhyNotEngine::CurrentCore() const {
  ReaderLock lock(core_mu_);
  return core_;
}

void WhyNotEngine::PublishCore(
    std::shared_ptr<const internal::EngineCore> core) {
  MutexLock lock(core_mu_);
  core_ = std::move(core);
}

const Dataset& WhyNotEngine::products() const {
  return *CurrentCore()->products;
}
const Dataset& WhyNotEngine::customers() const {
  return CurrentCore()->customer_dataset();
}
bool WhyNotEngine::shared_relation() const {
  return CurrentCore()->shared_relation;
}
const CostModel& WhyNotEngine::cost_model() const {
  return CurrentCore()->cost_model;
}
const RStarTree& WhyNotEngine::product_tree() const {
  return *CurrentCore()->tree;
}
const Rectangle& WhyNotEngine::universe() const {
  return CurrentCore()->universe;
}
bool WhyNotEngine::HasApproxDsls() const {
  return CurrentCore()->HasApproxDsls();
}
size_t WhyNotEngine::approx_k() const { return CurrentCore()->approx_k; }

std::vector<size_t> WhyNotEngine::ReverseSkyline(const Point& q) const {
  StatsScope scope(this);
  return CurrentCore()->ReverseSkyline(q);
}

bool WhyNotEngine::IsReverseSkylineMember(size_t c, const Point& q) const {
  return CurrentCore()->IsReverseSkylineMember(c, q);
}

std::vector<size_t> WhyNotEngine::CustomersInRange(
    const Rectangle& window) const {
  return CurrentCore()->CustomersInRange(window);
}

WhyNotExplanation WhyNotEngine::Explain(size_t c, const Point& q) const {
  StatsScope scope(this);
  return CurrentCore()->Explain(c, q);
}

MwpResult WhyNotEngine::ModifyWhyNot(size_t c, const Point& q,
                                     Semantics semantics) const {
  StatsScope scope(this);
  return CurrentCore()->ModifyWhyNot(c, q, semantics);
}

MqpResult WhyNotEngine::ModifyQuery(size_t c, const Point& q,
                                    Semantics semantics) const {
  StatsScope scope(this);
  return CurrentCore()->ModifyQuery(c, q, semantics);
}

const SafeRegionResult& WhyNotEngine::SafeRegion(const Point& q) const {
  StatsScope scope(this);
  tls_sr_anchor = CurrentCore()->SafeRegion(q);
  return *tls_sr_anchor;
}

const SafeRegionResult& WhyNotEngine::ApproxSafeRegion(const Point& q) const {
  StatsScope scope(this);
  tls_approx_sr_anchor = CurrentCore()->ApproxSafeRegion(q);
  return *tls_approx_sr_anchor;
}

MwqResult WhyNotEngine::ModifyBoth(size_t c, const Point& q,
                                   Semantics semantics) const {
  StatsScope scope(this);
  return CurrentCore()->ModifyBoth(c, q, semantics);
}

MwqResult WhyNotEngine::ModifyBothApprox(size_t c, const Point& q,
                                         Semantics semantics) const {
  StatsScope scope(this);
  return CurrentCore()->ModifyBothApprox(c, q, semantics);
}

SafeRegionResult WhyNotEngine::ConstrainedSafeRegion(
    const Point& q, const Rectangle& limits) const {
  StatsScope scope(this);
  return CurrentCore()->ConstrainedSafeRegion(q, limits);
}

MwqResult WhyNotEngine::ModifyBothConstrained(size_t c, const Point& q,
                                              const Rectangle& limits,
                                              Semantics semantics) const {
  StatsScope scope(this);
  return CurrentCore()->ModifyBothConstrained(c, q, limits, semantics);
}

std::vector<size_t> WhyNotEngine::LostCustomers(const Point& q,
                                                const Point& q_star) const {
  StatsScope scope(this);
  return CurrentCore()->LostCustomers(q, q_star);
}

std::vector<MwqResult> WhyNotEngine::ModifyBothBatch(
    const std::vector<size_t>& whos, const Point& q, bool use_approx,
    Semantics semantics) const {
  StatsScope scope(this);
  return CurrentCore()->ModifyBothBatch(whos, q, use_approx, semantics);
}

Result<std::vector<size_t>> WhyNotEngine::TryReverseSkyline(
    const Point& q) const {
  StatsScope scope(this);
  return Snapshot().TryReverseSkyline(q);
}
Result<WhyNotExplanation> WhyNotEngine::TryExplain(size_t c,
                                                   const Point& q) const {
  StatsScope scope(this);
  return Snapshot().TryExplain(c, q);
}
Result<MwpResult> WhyNotEngine::TryModifyWhyNot(size_t c, const Point& q,
                                                Semantics semantics) const {
  StatsScope scope(this);
  return Snapshot().TryModifyWhyNot(c, q, semantics);
}
Result<MqpResult> WhyNotEngine::TryModifyQuery(size_t c, const Point& q,
                                               Semantics semantics) const {
  StatsScope scope(this);
  return Snapshot().TryModifyQuery(c, q, semantics);
}
Result<std::shared_ptr<const SafeRegionResult>> WhyNotEngine::TrySafeRegion(
    const Point& q) const {
  StatsScope scope(this);
  return Snapshot().TrySafeRegion(q);
}
Result<std::shared_ptr<const SafeRegionResult>>
WhyNotEngine::TryApproxSafeRegion(const Point& q) const {
  StatsScope scope(this);
  return Snapshot().TryApproxSafeRegion(q);
}
Result<MwqResult> WhyNotEngine::TryModifyBoth(size_t c, const Point& q,
                                              Semantics semantics) const {
  StatsScope scope(this);
  return Snapshot().TryModifyBoth(c, q, semantics);
}
Result<MwqResult> WhyNotEngine::TryModifyBothApprox(size_t c, const Point& q,
                                                    Semantics semantics) const {
  StatsScope scope(this);
  return Snapshot().TryModifyBothApprox(c, q, semantics);
}
Result<std::vector<MwqResult>> WhyNotEngine::TryModifyBothBatch(
    const std::vector<size_t>& whos, const Point& q, bool use_approx,
    Semantics semantics) const {
  StatsScope scope(this);
  return Snapshot().TryModifyBothBatch(whos, q, use_approx, semantics);
}

void WhyNotEngine::PrecomputeApproxDsls(size_t k) {
  StatsScope scope(this);
  MutexLock mlock(mutation_mu_);
  std::shared_ptr<const internal::EngineCore> cur = CurrentCore();
  auto next = std::make_shared<internal::EngineCore>(*cur);
  next->approx_dsls = cur->BuildApproxStore(k);
  next->approx_k = k;
  PublishCore(std::move(next));
}

namespace {

/// FNV-1a over the market an approx store is computed from: the relation
/// mode, dims, k, sort_dim, each product's liveness and coordinates, and
/// the customer coordinates when bichromatic. Nothing about tree layout,
/// threads or the read path enters it, so a store saved by one engine
/// loads into any engine over the same market (a reopened bundle
/// included) and into no other.
uint64_t ApproxStoreDigest(const internal::QueryCore& core, size_t k) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h = (h ^ ((word >> (8 * byte)) & 0xffU)) * 0x100000001b3ULL;
    }
  };
  auto mix_points = [&mix](const std::vector<Point>& points) {
    for (const Point& p : points) {
      for (size_t i = 0; i < p.dims(); ++i) {
        mix(std::bit_cast<uint64_t>(p[i]));
      }
    }
  };
  mix(core.shared_relation ? 1 : 0);
  mix(core.products->dims);
  mix(k);
  mix(core.options.sort_dim);
  for (size_t id = 0; id < core.products->points.size(); ++id) {
    mix(core.IsLiveProduct(id) ? 1 : 0);
  }
  mix_points(core.products->points);
  if (!core.shared_relation) mix_points(core.customers->points);
  return h;
}

constexpr int kApproxStoreVersion = 2;

}  // namespace

Status WhyNotEngine::SaveApproxDsls(const std::string& path) const {
  std::shared_ptr<const internal::EngineCore> cur = CurrentCore();
  if (!cur->HasApproxDsls()) {
    return Status::FailedPrecondition("no approximated DSL store to save");
  }
  const size_t dims = cur->products->dims;
  const std::vector<std::vector<Point>>& dsls = *cur->approx_dsls;
  std::ostringstream out;
  out << "wnrs-approx-dsl " << kApproxStoreVersion << '\n'
      << cur->approx_k << ' ' << dims << ' ' << dsls.size() << ' '
      << ApproxStoreDigest(*cur, cur->approx_k) << '\n';
  for (const std::vector<Point>& dsl : dsls) {
    out << dsl.size();
    for (const Point& p : dsl) {
      for (size_t i = 0; i < dims; ++i) {
        out << ' ' << StrFormat("%.17g", p[i]);
      }
    }
    out << '\n';
  }
  return storage::WriteStringToFile(path, out.str());
}

Status WhyNotEngine::LoadApproxDsls(const std::string& path) {
  std::string contents;
  WNRS_RETURN_IF_ERROR(storage::ReadFileToString(path, &contents));
  std::istringstream in(std::move(contents));
  std::string magic;
  int version = 0;
  size_t k = 0;
  size_t dims = 0;
  size_t count = 0;
  uint64_t digest = 0;
  in >> magic >> version;
  if (in.good() && magic == "wnrs-approx-dsl" && version == 1) {
    return Status::InvalidArgument(
        "[version] approx-DSL store version 1 is not bound to an engine "
        "state; re-save it: " +
        path);
  }
  in >> k >> dims >> count >> digest;
  if (!in.good() || magic != "wnrs-approx-dsl" ||
      version != kApproxStoreVersion) {
    return Status::InvalidArgument("not a wnrs approx-DSL store: " + path);
  }
  // PrecomputeApproxDsls enforces k >= 2 (the sampling rule needs a first
  // and a last point); a loaded store must satisfy the same invariant.
  if (k < 2) {
    return Status::InvalidArgument(
        StrFormat("approx-DSL store has k=%zu; k >= 2 required", k));
  }
  MutexLock mlock(mutation_mu_);
  std::shared_ptr<const internal::EngineCore> cur = CurrentCore();
  if (dims != cur->products->dims) {
    return Status::InvalidArgument("store dimensionality mismatch");
  }
  if (count != cur->customer_dataset().points.size()) {
    return Status::InvalidArgument(
        StrFormat("store has %zu customers, engine has %zu", count,
                  cur->customer_dataset().points.size()));
  }
  auto loaded = std::make_shared<std::vector<std::vector<Point>>>(count);
  std::string token;
  for (size_t c = 0; c < count; ++c) {
    size_t entries = 0;
    if (!(in >> entries)) {
      return Status::InvalidArgument("truncated approx-DSL store: " + path);
    }
    (*loaded)[c].reserve(entries);
    for (size_t e = 0; e < entries; ++e) {
      Point p(dims);
      for (size_t i = 0; i < dims; ++i) {
        // Parse via strtod (istream extraction rejects "nan"/"inf"
        // outright, which would misreport them as truncation).
        if (!(in >> token)) {
          return Status::InvalidArgument("truncated approx-DSL store: " +
                                         path);
        }
        char* end_ptr = nullptr;
        const double v = std::strtod(token.c_str(), &end_ptr);
        if (end_ptr == token.c_str() || *end_ptr != '\0') {
          return Status::InvalidArgument("malformed coordinate '" + token +
                                         "' in approx-DSL store: " + path);
        }
        if (!std::isfinite(v)) {
          return Status::InvalidArgument(
              "non-finite coordinate in approx-DSL store: " + path);
        }
        p[i] = v;
      }
      (*loaded)[c].push_back(std::move(p));
    }
  }
  // Last: a store from another market state (one with other products,
  // tombstones or customers) would break the approximated region's
  // subset-of-SR(q) contract without failing any check above.
  if (digest != ApproxStoreDigest(*cur, k)) {
    return Status::InvalidArgument(
        "[approx-stale] approx-DSL store was computed from another engine "
        "state: " +
        path);
  }
  auto next = std::make_shared<internal::EngineCore>(*cur);
  next->approx_dsls = std::move(loaded);
  next->approx_k = k;
  PublishCore(std::move(next));
  return Status::Ok();
}

size_t WhyNotEngine::AddProduct(const Point& p) {
  MutexLock mlock(mutation_mu_);
  std::shared_ptr<const internal::EngineCore> cur = CurrentCore();
  auto next = std::make_shared<internal::EngineCore>(*cur);
  const size_t id = next->AppendProduct(p);
  auto new_tree = std::make_shared<RStarTree>(cur->tree->Clone());
  new_tree->Insert(p, static_cast<RStarTree::Id>(id));
  next->ReplaceTree(std::move(new_tree));
  PublishCore(std::move(next));
  MetricSetGauge(GaugeId::kRslCacheSize, 0);
  return id;
}

Result<size_t> WhyNotEngine::TryAddProduct(const Point& p) {
  WNRS_RETURN_IF_ERROR(CurrentCore()->ValidatePoint(p, "product point"));
  return AddProduct(p);
}

bool WhyNotEngine::RemoveProduct(size_t id) {
  return TryRemoveProduct(id).ok();
}

Status WhyNotEngine::TryRemoveProduct(size_t id) {
  MutexLock mlock(mutation_mu_);
  std::shared_ptr<const internal::EngineCore> cur = CurrentCore();
  WNRS_RETURN_IF_ERROR(cur->ValidateRemovable(id));
  auto new_tree = std::make_shared<RStarTree>(cur->tree->Clone());
  if (!new_tree->Delete(Rectangle::FromPoint(cur->products->points[id]),
                        static_cast<RStarTree::Id>(id))) {
    return Status::NotFound(StrFormat("product %zu not present in index", id));
  }
  auto next = std::make_shared<internal::EngineCore>(*cur);
  next->MarkRemoved(id);
  next->ReplaceTree(std::move(new_tree));
  PublishCore(std::move(next));
  MetricSetGauge(GaugeId::kRslCacheSize, 0);
  return Status::Ok();
}

bool WhyNotEngine::IsLiveProduct(size_t id) const {
  return CurrentCore()->IsLiveProduct(id);
}

double WhyNotEngine::MqpEvaluationCost(const Point& q,
                                       const Point& q_star) const {
  StatsScope scope(this);
  return CurrentCore()->MqpEvaluationCost(q, q_star);
}

std::optional<Point> WhyNotEngine::NudgeToStrictMember(
    const Point& c_star, const Point& q, size_t customer_index) const {
  return CurrentCore()->NudgeToStrictMember(c_star, q, customer_index);
}

QueryStats WhyNotEngine::stats() const {
  MutexLock lock(stats_mu_);
  return cum_stats_;
}

QueryStats WhyNotEngine::last_query_stats() const {
  MutexLock lock(stats_mu_);
  return last_query_stats_;
}

void WhyNotEngine::ResetStats() const {
  MutexLock lock(stats_mu_);
  last_query_stats_ = QueryStats();
  cum_stats_ = QueryStats();
}

}  // namespace wnrs
