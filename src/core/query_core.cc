#include "core/query_core.h"

#include <atomic>
#include <cmath>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "geometry/transform.h"
#include "skyline/approx.h"

namespace wnrs {
namespace internal {

CostModel MakeCostModel(const Rectangle& universe,
                        const WhyNotEngineOptions& options) {
  std::vector<double> alpha = options.alpha;
  std::vector<double> beta = options.beta;
  if (alpha.empty()) alpha = EqualWeights(universe.dims());
  if (beta.empty()) beta = EqualWeights(universe.dims());
  return CostModel(universe, std::move(alpha), std::move(beta));
}

Rectangle UnionBounds(const Dataset& products, const Dataset* customers) {
  Rectangle bounds = products.Bounds();
  if (customers != nullptr && !customers->points.empty()) {
    bounds = bounds.BoundingUnion(customers->Bounds());
  }
  return bounds;
}

QueryCore::QueryCore(WhyNotEngineOptions options_in,
                     std::shared_ptr<const Dataset> products_in,
                     std::shared_ptr<const Dataset> customers_in,
                     std::vector<bool> removed_in, Rectangle universe_in,
                     std::shared_ptr<ThreadPool> pool_in)
    : options(std::move(options_in)),
      shared_relation(customers_in == nullptr),
      products(std::move(products_in)),
      customers(std::move(customers_in)),
      removed(std::move(removed_in)),
      universe(std::move(universe_in)),
      cost_model(MakeCostModel(universe, options)),
      pool(std::move(pool_in)) {
  WNRS_CHECK(products != nullptr && !products->points.empty());
  if (customers != nullptr) {
    WNRS_CHECK(products->dims == customers->dims);
    WNRS_CHECK(!customers->points.empty());
  }
}

QueryCore::QueryCore(const QueryCore& other)
    : options(other.options),
      shared_relation(other.shared_relation),
      products(other.products),
      customers(other.customers),
      removed(other.removed),
      universe(other.universe),
      cost_model(other.cost_model),
      approx_dsls(other.approx_dsls),
      approx_k(other.approx_k),
      pool(other.pool) {}

const Point& QueryCore::CustomerPoint(size_t c) const {
  const Dataset& ds = customer_dataset();
  WNRS_CHECK(c < ds.points.size());
  return ds.points[c];
}

// ---------------------------------------------------------------------------
// Input validation.
// ---------------------------------------------------------------------------

Status QueryCore::ValidatePoint(const Point& p, const char* what) const {
  if (p.dims() != products->dims) {
    return Status::InvalidArgument(
        StrFormat("%s has %zu dimensions, engine has %zu", what, p.dims(),
                  products->dims));
  }
  for (size_t i = 0; i < p.dims(); ++i) {
    if (!std::isfinite(p[i])) {
      return Status::InvalidArgument(StrFormat(
          "%s has a non-finite coordinate at dimension %zu", what, i));
    }
  }
  return Status::Ok();
}

Status QueryCore::ValidateCustomer(size_t c) const {
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

Status QueryCore::ValidateApproxStore() const {
  if (!HasApproxDsls()) {
    return Status::FailedPrecondition(
        "approximated-DSL store missing; run PrecomputeApproxDsls or "
        "LoadApproxDsls first");
  }
  return Status::Ok();
}

Status QueryCore::ValidateRemovable(size_t id) const {
  if (id >= products->points.size()) {
    return Status::NotFound(StrFormat("no product with id %zu", id));
  }
  if (!IsLiveProduct(id)) {
    return Status::NotFound(StrFormat("product %zu was already removed", id));
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Mutations.
// ---------------------------------------------------------------------------

size_t QueryCore::AppendProduct(const Point& p) {
  WNRS_CHECK(p.dims() == products->dims);
  auto grown = std::make_shared<Dataset>(*products);
  const size_t id = grown->points.size();
  grown->points.push_back(p);
  products = std::move(grown);
  removed.resize(id + 1, false);
  // Keep the universe a superset of all live points; the cost model's
  // normalization follows it when the new tuple falls outside.
  if (!universe.Contains(p)) {
    universe = universe.BoundingUnion(Rectangle::FromPoint(p));
    cost_model = MakeCostModel(universe, options);
  }
  // A stale store could silently lose safety, so it goes with the state
  // it was computed from.
  approx_dsls.reset();
  approx_k = 0;
  return id;
}

void QueryCore::MarkRemoved(size_t id) {
  removed.resize(products->points.size(), false);
  removed[id] = true;
  approx_dsls.reset();
  approx_k = 0;
}

std::shared_ptr<const std::vector<std::vector<Point>>>
QueryCore::BuildApproxStore(size_t k) const {
  WNRS_CHECK(k >= 2);
  const Dataset& ds = customer_dataset();
  auto store =
      std::make_shared<std::vector<std::vector<Point>>>(ds.points.size());
  // One dynamic skyline per customer, each writing its own slot: the
  // embarrassingly parallel offline pass.
  pool->ParallelFor(0, ds.points.size(), [&](size_t c) {
    const std::vector<RStarTree::Id> dsl = ProbeDynamicSkyline(c);
    std::vector<Point> transformed;
    transformed.reserve(dsl.size());
    for (RStarTree::Id id : dsl) {
      transformed.push_back(ToDistanceSpace(
          products->points[static_cast<size_t>(id)], ds.points[c]));
    }
    (*store)[c] = ApproximateSkyline(std::move(transformed), k,
                                     options.sort_dim);
  });
  return store;
}

// ---------------------------------------------------------------------------
// Read path.
// ---------------------------------------------------------------------------

std::vector<size_t> QueryCore::ReverseSkyline(const Point& q) const {
  if (std::optional<std::vector<size_t>> hit = rsl_memo.Find(q)) {
    MetricAdd(CounterId::kRslCacheHits);
    return *std::move(hit);
  }
  MetricAdd(CounterId::kRslCacheMisses);
  // Computed outside the lock; concurrent misses for the same q may both
  // compute, but the results are identical and the first insert wins.
  return rsl_memo.Insert(q, ComputeReverseSkyline(q),
                         [](bool evicted, size_t size) {
                           if (evicted) {
                             MetricAdd(CounterId::kRslCacheEvictions);
                           }
                           MetricSetGauge(GaugeId::kRslCacheSize,
                                          static_cast<int64_t>(size));
                         });
}

bool QueryCore::IsReverseSkylineMember(size_t c, const Point& q) const {
  return ProbeWindowEmpty(CustomerPoint(c), q, c);
}

/// Λ from one window query; F from the window skyline with origin q,
/// which yields the same ascending ids as a BNL pass over Λ
/// (ExplainWhyNotFromCulprits) without mapping every culprit.
WhyNotExplanation QueryCore::Explain(size_t c, const Point& q) const {
  const Point& cp = CustomerPoint(c);
  WhyNotExplanation out;
  out.culprits = ProbeWindowHits(cp, q, c);
  out.already_member = out.culprits.empty();
  if (!out.already_member) {
    out.frontier = ProbeWindowFrontier(cp, q, /*origin=*/q, c);
  }
  return out;
}

StrictWindowEmptyFn QueryCore::StrictProbeFor(size_t c) const {
  return [this, c](const Point& cc, const Point& qq) {
    return ProbeWindowEmpty(cc, qq, c);
  };
}

std::optional<Point> QueryCore::NudgeToStrictMember(
    const Point& c_star, const Point& q, size_t customer_index) const {
  return NudgeToStrictMemberImpl(c_star, q, universe, options.epsilon_fraction,
                                 StrictProbeFor(customer_index));
}

MwpResult QueryCore::ModifyWhyNotBoundary(size_t c, const Point& q) const {
  const Point& cp = CustomerPoint(c);
  if (options.fast_frontier) {
    return ModifyWhyNotPointFromFrontier(
        products->points, ProbeWindowFrontier(cp, q, /*origin=*/q, c), cp, q,
        cost_model, options.sort_dim);
  }
  return ModifyWhyNotPointFromCulprits(products->points,
                                       ProbeWindowHits(cp, q, c), cp, q,
                                       cost_model, options.sort_dim);
}

MwpResult QueryCore::ModifyWhyNot(size_t c, const Point& q,
                                  Semantics semantics) const {
  MwpResult out = ModifyWhyNotBoundary(c, q);
  if (semantics == Semantics::kStrict) {
    ApplyStrictMwpImpl(CustomerPoint(c), q, cost_model, universe,
                       options.epsilon_fraction, StrictProbeFor(c), &out);
  }
  if (const std::optional<AnswerValidationInput> in = ParanoidInput()) {
    const Status s = ValidateMwpAnswer(*in, c, q, out);
    WNRS_CHECK(s.ok()) << "paranoid MWP answer: " << s.ToString();
  }
  return out;
}

MqpResult QueryCore::ModifyQuery(size_t c, const Point& q,
                                 Semantics semantics) const {
  const Point& cp = CustomerPoint(c);
  MqpResult out =
      options.fast_frontier
          ? ModifyQueryPointFromFrontier(
                products->points,
                ProbeWindowFrontier(cp, q, /*origin=*/cp, c), cp, q,
                cost_model, options.sort_dim)
          : ModifyQueryPointFromCulprits(products->points,
                                         ProbeWindowHits(cp, q, c), cp, q,
                                         cost_model, options.sort_dim);
  if (semantics == Semantics::kStrict) {
    ApplyStrictMqpImpl(cp, q, cost_model, universe, options.epsilon_fraction,
                       StrictProbeFor(c), &out);
  }
  if (const std::optional<AnswerValidationInput> in = ParanoidInput()) {
    const Status s = ValidateMqpAnswer(*in, c, q, out);
    WNRS_CHECK(s.ok()) << "paranoid MQP answer: " << s.ToString();
  }
  return out;
}

SafeRegionOptions QueryCore::MakeSafeRegionOptions() const {
  SafeRegionOptions sr_options;
  sr_options.sort_dim = options.sort_dim;
  sr_options.max_rectangles = options.max_safe_region_rectangles;
  return sr_options;
}

/// No-op store hook for the safe-region caches, which record no metrics.
constexpr auto kNoStoreHook = [](bool, size_t) {};

std::shared_ptr<const SafeRegionResult> QueryCore::SafeRegion(
    const Point& q) const {
  if (auto hit = sr_cache.Find(q)) return *std::move(hit);
  const std::vector<size_t> rsl = ReverseSkyline(q);
  auto computed = std::make_shared<const SafeRegionResult>(
      ComputeSafeRegionWithDsls(
          products->points, customer_dataset().points, rsl, q, universe,
          [this](size_t customer) { return ProbeDynamicSkyline(customer); },
          MakeSafeRegionOptions()));
  if (const std::optional<AnswerValidationInput> in = ParanoidInput()) {
    const Status s = ValidateSafeRegion(*in, rsl, q, *computed);
    WNRS_CHECK(s.ok()) << "paranoid safe region: " << s.ToString();
  }
  return sr_cache.Insert(q, std::move(computed), kNoStoreHook);
}

std::shared_ptr<const SafeRegionResult> QueryCore::ApproxSafeRegion(
    const Point& q) const {
  WNRS_CHECK(HasApproxDsls());
  if (auto hit = approx_sr_cache.Find(q)) return *std::move(hit);
  const std::vector<size_t> rsl = ReverseSkyline(q);
  auto computed = std::make_shared<const SafeRegionResult>(
      ComputeApproxSafeRegion(customer_dataset().points, *approx_dsls, rsl, q,
                              universe, MakeSafeRegionOptions()));
  if (const std::optional<AnswerValidationInput> in = ParanoidInput()) {
    // The approximated region must be sound too — it is a subset of the
    // exact safe region by construction, so the same sampled probes
    // apply unchanged.
    const Status s = ValidateSafeRegion(*in, rsl, q, *computed);
    WNRS_CHECK(s.ok()) << "paranoid approx safe region: " << s.ToString();
  }
  return approx_sr_cache.Insert(q, std::move(computed), kNoStoreHook);
}

SafeRegionResult QueryCore::ConstrainedSafeRegion(
    const Point& q, const Rectangle& limits) const {
  WNRS_CHECK(limits.dims() == q.dims());
  SafeRegionResult out = *SafeRegion(q);
  out.region.ClipTo(limits);
  if (!out.region.Contains(q)) {
    out.region.Add(Rectangle::FromPoint(q));
  }
  return out;
}

KeepsMembersFn QueryCore::MakeKeepsMembersFn(const Point& q) const {
  std::vector<size_t> rsl = ReverseSkyline(q);
  return [this, rsl = std::move(rsl)](const Point& q_star) {
    // One independent membership probe per RSL member. Inside an outer
    // parallel loop (batch answering) this degrades to the serial scan.
    std::atomic<bool> keeps{true};
    pool->ParallelFor(0, rsl.size(), [&](size_t i) {
      if (!keeps.load(std::memory_order_relaxed)) return;
      if (!ProbeWindowEmpty(CustomerPoint(rsl[i]), q_star, rsl[i])) {
        keeps.store(false, std::memory_order_relaxed);
      }
    });
    return keeps.load(std::memory_order_relaxed);
  };
}

MwqPrimitives QueryCore::MakeMwqPrimitives(size_t c) const {
  MwqPrimitives primitives;
  primitives.window_empty = [this, c](const Point& probe_q) {
    return ProbeWindowEmpty(CustomerPoint(c), probe_q, c);
  };
  primitives.dynamic_skyline = [this, c] { return ProbeDynamicSkyline(c); };
  primitives.modify_why_not = [this, c](const Point& probe_q) {
    return ModifyWhyNotBoundary(c, probe_q);
  };
  return primitives;
}

MwqResult QueryCore::ModifyBothWithin(size_t c, const Point& q,
                                      const RectRegion& region,
                                      Semantics semantics) const {
  MwqResult out = ModifyQueryAndWhyNotPoint(
      MakeMwqPrimitives(c), products->points, CustomerPoint(c), q, region,
      universe, cost_model, options.sort_dim, MakeKeepsMembersFn(q));
  if (semantics == Semantics::kStrict) {
    ApplyStrictMwqImpl(CustomerPoint(c), cost_model, universe,
                       options.epsilon_fraction, StrictProbeFor(c), &out);
  }
  // MWQ results are re-proved against RSL(q) (cached).
  if (const std::optional<AnswerValidationInput> in = ParanoidInput()) {
    const Status s = ValidateMwqAnswer(*in, c, q, ReverseSkyline(q), out);
    WNRS_CHECK(s.ok()) << "paranoid MWQ answer: " << s.ToString();
  }
  return out;
}

MwqResult QueryCore::ModifyBoth(size_t c, const Point& q,
                                Semantics semantics) const {
  const std::shared_ptr<const SafeRegionResult> sr = SafeRegion(q);
  return ModifyBothWithin(c, q, sr->region, semantics);
}

MwqResult QueryCore::ModifyBothApprox(size_t c, const Point& q,
                                      Semantics semantics) const {
  const std::shared_ptr<const SafeRegionResult> sr = ApproxSafeRegion(q);
  return ModifyBothWithin(c, q, sr->region, semantics);
}

MwqResult QueryCore::ModifyBothConstrained(size_t c, const Point& q,
                                           const Rectangle& limits,
                                           Semantics semantics) const {
  return ModifyBothWithin(c, q, ConstrainedSafeRegion(q, limits).region,
                          semantics);
}

std::vector<size_t> QueryCore::LostCustomers(const Point& q,
                                             const Point& q_star) const {
  const std::vector<size_t> members = ReverseSkyline(q);
  const std::vector<unsigned char> is_lost =
      pool->ParallelMap<unsigned char>(members.size(), [&](size_t i) {
        return ProbeWindowEmpty(CustomerPoint(members[i]), q_star, members[i])
                   ? static_cast<unsigned char>(0)
                   : static_cast<unsigned char>(1);
      });
  std::vector<size_t> lost;
  for (size_t i = 0; i < members.size(); ++i) {
    if (is_lost[i] != 0) lost.push_back(members[i]);
  }
  return lost;
}

std::vector<MwqResult> QueryCore::ModifyBothBatch(
    const std::vector<size_t>& whos, const Point& q, bool use_approx,
    Semantics semantics) const {
  // Materialize the safe region and RSL(q) once, before fanning out. The
  // caches are synchronized, so this is a performance (and counter
  // determinism) measure, not a safety one: without it every worker
  // missing the cold cache would redundantly compute the same region.
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

double QueryCore::MqpEvaluationCost(const Point& q,
                                    const Point& q_star) const {
  // alpha-cost of leaving the safe region: distance from the closest safe
  // point q' to q*.
  std::shared_ptr<const SafeRegionResult> sr = SafeRegion(q);
  double cost = 0.0;
  if (!sr->region.empty()) {
    const Point q_prime = sr->region.NearestPointTo(q_star);
    cost += cost_model.QueryMoveCost(q_prime, q_star);
  } else {
    cost += cost_model.QueryMoveCost(q, q_star);
  }
  // beta-cost of winning back every lost reverse-skyline customer. The
  // per-member costs are computed in parallel but summed in member order,
  // keeping the total bit-identical to the serial loop.
  const std::vector<size_t> rsl = ReverseSkyline(q);
  const std::vector<double> win_back =
      pool->ParallelMap<double>(rsl.size(), [&](size_t i) {
        const size_t c = rsl[i];
        if (IsReverseSkylineMember(c, q_star)) return 0.0;
        const MwpResult mwp = ModifyWhyNot(c, q_star, Semantics::kBoundary);
        return mwp.candidates.empty() ? 0.0 : mwp.candidates.front().cost;
      });
  for (double v : win_back) cost += v;
  return cost;
}

}  // namespace internal

// ---------------------------------------------------------------------------
// QuerySession: thin const delegation onto the pinned core.
// ---------------------------------------------------------------------------

QuerySession::QuerySession(std::shared_ptr<const internal::QueryCore> core)
    : core_(std::move(core)) {}

const Dataset& QuerySession::products() const { return *core_->products; }
const Dataset& QuerySession::customers() const {
  return core_->customer_dataset();
}
bool QuerySession::shared_relation() const { return core_->shared_relation; }
const CostModel& QuerySession::cost_model() const {
  return core_->cost_model;
}
const Rectangle& QuerySession::universe() const { return core_->universe; }
bool QuerySession::HasApproxDsls() const { return core_->HasApproxDsls(); }
size_t QuerySession::approx_k() const { return core_->approx_k; }
bool QuerySession::IsLiveProduct(size_t id) const {
  return core_->IsLiveProduct(id);
}

std::vector<size_t> QuerySession::ReverseSkyline(const Point& q) const {
  return core_->ReverseSkyline(q);
}
bool QuerySession::IsReverseSkylineMember(size_t c, const Point& q) const {
  return core_->IsReverseSkylineMember(c, q);
}
WhyNotExplanation QuerySession::Explain(size_t c, const Point& q) const {
  return core_->Explain(c, q);
}
MwpResult QuerySession::ModifyWhyNot(size_t c, const Point& q,
                                     Semantics semantics) const {
  return core_->ModifyWhyNot(c, q, semantics);
}
MqpResult QuerySession::ModifyQuery(size_t c, const Point& q,
                                    Semantics semantics) const {
  return core_->ModifyQuery(c, q, semantics);
}
std::shared_ptr<const SafeRegionResult> QuerySession::SafeRegion(
    const Point& q) const {
  return core_->SafeRegion(q);
}
std::shared_ptr<const SafeRegionResult> QuerySession::ApproxSafeRegion(
    const Point& q) const {
  return core_->ApproxSafeRegion(q);
}
MwqResult QuerySession::ModifyBoth(size_t c, const Point& q,
                                   Semantics semantics) const {
  return core_->ModifyBoth(c, q, semantics);
}
MwqResult QuerySession::ModifyBothApprox(size_t c, const Point& q,
                                         Semantics semantics) const {
  return core_->ModifyBothApprox(c, q, semantics);
}
std::vector<MwqResult> QuerySession::ModifyBothBatch(
    const std::vector<size_t>& whos, const Point& q, bool use_approx,
    Semantics semantics) const {
  return core_->ModifyBothBatch(whos, q, use_approx, semantics);
}

Result<std::vector<size_t>> QuerySession::TryReverseSkyline(
    const Point& q) const {
  WNRS_RETURN_IF_ERROR(core_->ValidateQuery(q));
  return core_->ReverseSkyline(q);
}
Result<WhyNotExplanation> QuerySession::TryExplain(size_t c,
                                                   const Point& q) const {
  WNRS_RETURN_IF_ERROR(core_->ValidateQuery(q));
  WNRS_RETURN_IF_ERROR(core_->ValidateCustomer(c));
  return core_->Explain(c, q);
}
Result<MwpResult> QuerySession::TryModifyWhyNot(size_t c, const Point& q,
                                                Semantics semantics) const {
  WNRS_RETURN_IF_ERROR(core_->ValidateQuery(q));
  WNRS_RETURN_IF_ERROR(core_->ValidateCustomer(c));
  return core_->ModifyWhyNot(c, q, semantics);
}
Result<MqpResult> QuerySession::TryModifyQuery(size_t c, const Point& q,
                                               Semantics semantics) const {
  WNRS_RETURN_IF_ERROR(core_->ValidateQuery(q));
  WNRS_RETURN_IF_ERROR(core_->ValidateCustomer(c));
  return core_->ModifyQuery(c, q, semantics);
}
Result<std::shared_ptr<const SafeRegionResult>> QuerySession::TrySafeRegion(
    const Point& q) const {
  WNRS_RETURN_IF_ERROR(core_->ValidateQuery(q));
  return core_->SafeRegion(q);
}
Result<std::shared_ptr<const SafeRegionResult>>
QuerySession::TryApproxSafeRegion(const Point& q) const {
  WNRS_RETURN_IF_ERROR(core_->ValidateQuery(q));
  WNRS_RETURN_IF_ERROR(core_->ValidateApproxStore());
  return core_->ApproxSafeRegion(q);
}
Result<MwqResult> QuerySession::TryModifyBoth(size_t c, const Point& q,
                                              Semantics semantics) const {
  WNRS_RETURN_IF_ERROR(core_->ValidateQuery(q));
  WNRS_RETURN_IF_ERROR(core_->ValidateCustomer(c));
  return core_->ModifyBoth(c, q, semantics);
}
Result<MwqResult> QuerySession::TryModifyBothApprox(
    size_t c, const Point& q, Semantics semantics) const {
  WNRS_RETURN_IF_ERROR(core_->ValidateQuery(q));
  WNRS_RETURN_IF_ERROR(core_->ValidateCustomer(c));
  WNRS_RETURN_IF_ERROR(core_->ValidateApproxStore());
  return core_->ModifyBothApprox(c, q, semantics);
}
Result<std::vector<MwqResult>> QuerySession::TryModifyBothBatch(
    const std::vector<size_t>& whos, const Point& q, bool use_approx,
    Semantics semantics) const {
  WNRS_RETURN_IF_ERROR(core_->ValidateQuery(q));
  for (size_t c : whos) {
    WNRS_RETURN_IF_ERROR(core_->ValidateCustomer(c));
  }
  if (use_approx) {
    WNRS_RETURN_IF_ERROR(core_->ValidateApproxStore());
  }
  return core_->ModifyBothBatch(whos, q, use_approx, semantics);
}

}  // namespace wnrs
