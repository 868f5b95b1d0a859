// Differential testing of the sharded engine: every request kind, at
// several shard counts, must answer bit-identically to the single-core
// engine over the same data — values, orderings, costs, and error
// strings. The sharded engine's whole correctness story is "same answer,
// different execution layout", so the assertions here are exact
// (EXPECT_EQ on doubles included: the merges must reproduce the same
// arithmetic, not an approximation of it).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "core/engine.h"
#include "data/generators.h"
#include "index/bulk_load.h"
#include "reverse_skyline/window_query.h"
#include "serve/backend.h"
#include "shard/sharded_backend.h"
#include "shard/sharded_engine.h"

namespace wnrs {
namespace {

using shard::ShardedBackend;
using shard::ShardedEngine;
using shard::ShardedEngineOptions;

void ExpectPointEq(const Point& a, const Point& b, const char* what) {
  ASSERT_EQ(a.dims(), b.dims()) << what;
  for (size_t i = 0; i < a.dims(); ++i) {
    EXPECT_EQ(a[i], b[i]) << what << " dim " << i;
  }
}

void ExpectCandidatesEq(const std::vector<Candidate>& a,
                        const std::vector<Candidate>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cost, b[i].cost) << what << " candidate " << i;
    ExpectPointEq(a[i].point, b[i].point, what);
  }
}

void ExpectExplanationEq(const WhyNotExplanation& a,
                         const WhyNotExplanation& b) {
  EXPECT_EQ(a.already_member, b.already_member);
  EXPECT_EQ(a.culprits, b.culprits);
  EXPECT_EQ(a.frontier, b.frontier);
}

void ExpectMwpEq(const MwpResult& a, const MwpResult& b) {
  EXPECT_EQ(a.already_member, b.already_member);
  EXPECT_EQ(a.culprits, b.culprits);
  ExpectCandidatesEq(a.candidates, b.candidates, "mwp");
}

void ExpectMqpEq(const MqpResult& a, const MqpResult& b) {
  EXPECT_EQ(a.already_member, b.already_member);
  EXPECT_EQ(a.culprits, b.culprits);
  ExpectCandidatesEq(a.candidates, b.candidates, "mqp");
}

void ExpectSafeRegionEq(const SafeRegionResult& a, const SafeRegionResult& b) {
  EXPECT_EQ(a.customers_processed, b.customers_processed);
  EXPECT_EQ(a.truncated, b.truncated);
  ASSERT_EQ(a.region.size(), b.region.size());
  for (size_t i = 0; i < a.region.size(); ++i) {
    ExpectPointEq(a.region.rects()[i].lo(), b.region.rects()[i].lo(), "sr lo");
    ExpectPointEq(a.region.rects()[i].hi(), b.region.rects()[i].hi(), "sr hi");
  }
}

void ExpectMwqEq(const MwqResult& a, const MwqResult& b) {
  EXPECT_EQ(a.already_member, b.already_member);
  EXPECT_EQ(a.overlap, b.overlap);
  EXPECT_EQ(a.best_cost, b.best_cost);
  ExpectCandidatesEq(a.query_candidates, b.query_candidates, "mwq query");
  ExpectCandidatesEq(a.why_not_candidates, b.why_not_candidates,
                     "mwq why-not");
}

/// Asserts every request kind agrees between the two engines for (c, q),
/// under both answer semantics.
void ExpectAllKindsAgree(const WhyNotEngine& single, const ShardedEngine& shd,
                         size_t c, const Point& q) {
  SCOPED_TRACE(::testing::Message() << "c=" << c << " q=" << q.ToString());
  EXPECT_EQ(single.ReverseSkyline(q), shd.ReverseSkyline(q));
  EXPECT_EQ(single.IsReverseSkylineMember(c, q),
            shd.IsReverseSkylineMember(c, q));
  ExpectExplanationEq(single.Explain(c, q), shd.Explain(c, q));
  for (const Semantics semantics : {Semantics::kBoundary, Semantics::kStrict}) {
    ExpectMwpEq(single.ModifyWhyNot(c, q, semantics),
                shd.ModifyWhyNot(c, q, semantics));
    ExpectMqpEq(single.ModifyQuery(c, q, semantics),
                shd.ModifyQuery(c, q, semantics));
    ExpectMwqEq(single.ModifyBoth(c, q, semantics),
                shd.ModifyBoth(c, q, semantics));
  }
  ExpectSafeRegionEq(*single.Snapshot().SafeRegion(q), *shd.SafeRegion(q));
}

class ShardParityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ShardParityTest, SharedRelationAllKindsMatchSingleEngine) {
  const size_t num_shards = GetParam();
  const Dataset ds = GenerateCarDb(160, 7);
  WhyNotEngine single{Dataset(ds)};
  ShardedEngineOptions options;
  options.num_shards = num_shards;
  ShardedEngine shd{Dataset(ds), options};
  EXPECT_EQ(shd.num_shards(), num_shards);

  Rng rng(1000 + num_shards);
  for (int trial = 0; trial < 6; ++trial) {
    Point q = ds.points[rng.NextUint64(ds.points.size())];
    q[0] += rng.NextGaussian(0.0, 300.0);
    q[1] += rng.NextGaussian(0.0, 1500.0);
    const size_t c = rng.NextUint64(ds.points.size());
    ExpectAllKindsAgree(single, shd, c, q);
  }

  // Batch answers merge per-customer in request order.
  const Point q = ds.points[3];
  const std::vector<size_t> whos = {2, 17, 80, 159};
  const std::vector<MwqResult> a = single.ModifyBothBatch(whos, q);
  const std::vector<MwqResult> b = shd.ModifyBothBatch(whos, q);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) ExpectMwqEq(a[i], b[i]);
}

TEST_P(ShardParityTest, BichromaticReverseSkylineIsShardIntersection) {
  const size_t num_shards = GetParam();
  const Dataset products = GenerateCarDb(140, 11);
  const Dataset customers = GenerateCarDb(60, 12);
  WhyNotEngine single{Dataset(products), Dataset(customers)};
  ShardedEngineOptions options;
  options.num_shards = num_shards;
  ShardedEngine shd{Dataset(products), Dataset(customers), options};
  EXPECT_FALSE(shd.shared_relation());

  Rng rng(2000 + num_shards);
  for (int trial = 0; trial < 6; ++trial) {
    Point q = products.points[rng.NextUint64(products.points.size())];
    q[0] += rng.NextGaussian(0.0, 300.0);
    q[1] += rng.NextGaussian(0.0, 1500.0);
    const size_t c = rng.NextUint64(customers.points.size());
    ExpectAllKindsAgree(single, shd, c, q);
  }
}

TEST_P(ShardParityTest, ApproxPipelineMatchesSingleEngine) {
  const size_t num_shards = GetParam();
  const Dataset ds = GenerateCarDb(120, 21);
  WhyNotEngine single{Dataset(ds)};
  ShardedEngineOptions options;
  options.num_shards = num_shards;
  ShardedEngine shd{Dataset(ds), options};
  single.PrecomputeApproxDsls(4);
  shd.PrecomputeApproxDsls(4);
  ASSERT_TRUE(shd.HasApproxDsls());
  EXPECT_EQ(shd.approx_k(), 4u);

  // The stored samples are query-equivalent, not byte-equivalent (for
  // DSLs of <= k points the in-store order may differ; see
  // ShardedEngine::PrecomputeApproxDsls) — so compare what consumers
  // observe: the approximated safe region and Algorithm 4 over it.
  Rng rng(3000 + num_shards);
  for (int trial = 0; trial < 4; ++trial) {
    Point q = ds.points[rng.NextUint64(ds.points.size())];
    q[0] += rng.NextGaussian(0.0, 300.0);
    q[1] += rng.NextGaussian(0.0, 1500.0);
    const size_t c = rng.NextUint64(ds.points.size());
    SCOPED_TRACE(::testing::Message() << "c=" << c << " q=" << q.ToString());
    ExpectSafeRegionEq(*single.Snapshot().ApproxSafeRegion(q),
                       *shd.ApproxSafeRegion(q));
    for (const Semantics semantics :
         {Semantics::kBoundary, Semantics::kStrict}) {
      ExpectMwqEq(single.ModifyBothApprox(c, q, semantics),
                  shd.ModifyBothApprox(c, q, semantics));
    }
    const std::vector<size_t> whos = {c, (c + 7) % ds.points.size()};
    const std::vector<MwqResult> a =
        single.ModifyBothBatch(whos, q, /*use_approx=*/true);
    const std::vector<MwqResult> b =
        shd.ModifyBothBatch(whos, q, /*use_approx=*/true);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) ExpectMwqEq(a[i], b[i]);
  }
}

// Tie-prone grid coordinates: duplicated points and equal-coordinate
// culprits land on shard boundaries, where a wrong merge (dropping
// duplicates, reordering equal-cost candidates) would first show up.
TEST_P(ShardParityTest, GridTiesSurviveShardBoundaries) {
  const size_t num_shards = GetParam();
  Dataset ds;
  ds.name = "grid";
  ds.dims = 2;
  for (int x = 0; x < 6; ++x) {
    for (int y = 0; y < 6; ++y) {
      ds.points.push_back(Point({static_cast<double>(x) * 10.0,
                                 static_cast<double>(y) * 10.0}));
    }
  }
  // Exact duplicates: both must be reported everywhere one is.
  ds.points.push_back(Point({20.0, 30.0}));
  ds.points.push_back(Point({40.0, 10.0}));
  WhyNotEngine single{Dataset(ds)};
  ShardedEngineOptions options;
  options.num_shards = num_shards;
  ShardedEngine shd{Dataset(ds), options};

  for (const double qx : {0.0, 15.0, 25.0, 30.0, 55.0}) {
    const Point q({qx, 65.0 - qx});
    for (const size_t c : {size_t{0}, size_t{14}, size_t{21}, size_t{36},
                           size_t{37}}) {
      ExpectAllKindsAgree(single, shd, c, q);
    }
  }
}

// Explain's frontier comes from a window-skyline traversal (origin q);
// the reference is index-free: a linear-scan Λ and Algorithm 1's
// definition of F, the BNL skyline of the q-transformed culprits
// (ExplainWhyNotFromCulprits). Small integer
// coordinates and 20% duplicate points put ties on every axis, between
// culprits and against q, for both engines and both read paths.
TEST_P(ShardParityTest, ExplainFrontierMatchesBnlReference) {
  const size_t num_shards = GetParam();
  for (const size_t dims : {size_t{2}, size_t{3}, size_t{5}}) {
    Rng rng(4000 + 10 * num_shards + dims);
    Dataset ds;
    ds.name = "ties";
    ds.dims = dims;
    while (ds.points.size() < 150) {
      if (!ds.points.empty() && rng.NextBool(0.2)) {
        ds.points.push_back(ds.points[rng.NextUint64(ds.points.size())]);
        continue;
      }
      Point p(dims);
      for (size_t i = 0; i < dims; ++i) {
        p[i] = static_cast<double>(rng.NextUint64(6));
      }
      ds.points.push_back(std::move(p));
    }
    WhyNotEngineOptions dynamic_options;
    dynamic_options.use_packed_read_path = false;
    const WhyNotEngine packed{Dataset(ds)};
    const WhyNotEngine dynamic{Dataset(ds), dynamic_options};
    ShardedEngineOptions options;
    options.num_shards = num_shards;
    const ShardedEngine shd{Dataset(ds), options};

    for (int trial = 0; trial < 40; ++trial) {
      Point q(dims);
      for (size_t i = 0; i < dims; ++i) {
        q[i] = 0.5 * static_cast<double>(rng.NextUint64(11));
      }
      const size_t c = rng.NextUint64(ds.points.size());
      SCOPED_TRACE(::testing::Message()
                   << "d=" << dims << " c=" << c << " q=" << q.ToString());
      const std::vector<size_t> lambda =
          WindowQueryBrute(ds.points, ds.points[c], q, c);
      const WhyNotExplanation want = ExplainWhyNotFromCulprits(
          ds.points, std::vector<RStarTree::Id>(lambda.begin(), lambda.end()),
          q);
      ExpectExplanationEq(packed.Explain(c, q), want);
      ExpectExplanationEq(dynamic.Explain(c, q), want);
      ExpectExplanationEq(shd.Explain(c, q), want);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardParityTest,
                         ::testing::Values(1, 2, 4, 7));

// Interleaved mutations: both engines absorb the same add/remove stream
// (same global ids) and must stay in lockstep. The sharded engine
// re-freezes only the touched tile per mutation; parity across a long
// random stream is what proves the untouched snapshots stay valid.
TEST(ShardMutationTest, RandomMutationStreamKeepsParity) {
  const uint64_t seed = 42;
  Rng rng(seed);
  const Dataset ds = GenerateCarDb(150, seed);
  WhyNotEngine single{Dataset(ds)};
  ShardedEngineOptions options;
  options.num_shards = 4;
  ShardedEngine shd{Dataset(ds), options};

  std::vector<bool> live(ds.points.size(), true);
  size_t next_id = ds.points.size();
  for (int round = 0; round < 6; ++round) {
    for (int m = 0; m < 6; ++m) {
      if (rng.NextBool(0.5)) {
        const Point p(
            {rng.NextDouble(1000, 60000), rng.NextDouble(0, 200000)});
        const size_t a = single.AddProduct(p);
        const size_t b = shd.AddProduct(p);
        ASSERT_EQ(a, next_id);
        ASSERT_EQ(b, next_id);
        ++next_id;
        live.push_back(true);
      } else {
        size_t victim = rng.NextUint64(live.size());
        for (size_t probe = 0; probe < live.size(); ++probe) {
          const size_t id = (victim + probe) % live.size();
          if (live[id]) {
            victim = id;
            break;
          }
        }
        if (!live[victim]) continue;
        ASSERT_TRUE(single.RemoveProduct(victim));
        ASSERT_TRUE(shd.RemoveProduct(victim));
        live[victim] = false;
        EXPECT_FALSE(shd.IsLiveProduct(victim));
      }
    }
    for (int trial = 0; trial < 3; ++trial) {
      Point q = ds.points[rng.NextUint64(ds.points.size())];
      q[0] += rng.NextGaussian(0.0, 300.0);
      q[1] += rng.NextGaussian(0.0, 1500.0);
      size_t c = rng.NextUint64(live.size());
      while (!live[c]) c = (c + 1) % live.size();
      ExpectAllKindsAgree(single, shd, c, q);
    }
  }
}

// A snapshot taken before a mutation answers from the pre-mutation state.
TEST(ShardMutationTest, SnapshotsAreIsolatedFromMutations) {
  const Dataset ds = GenerateCarDb(80, 5);
  ShardedEngineOptions options;
  options.num_shards = 4;
  ShardedEngine shd{Dataset(ds), options};
  const Point q = ds.points[10];
  const ShardedEngine::Session before = shd.Snapshot();
  const std::vector<size_t> rsl_before = before.ReverseSkyline(q);
  for (size_t id : rsl_before) {
    ASSERT_TRUE(shd.RemoveProduct(id));
  }
  EXPECT_EQ(before.ReverseSkyline(q), rsl_before);
  EXPECT_NE(shd.ReverseSkyline(q), rsl_before);
}

// Error parity: the Try* layer must return the same Status codes and the
// same messages as the single engine, so the wire protocol is
// indistinguishable across execution layouts.
TEST(ShardErrorTest, TryLayerMatchesSingleEngineStatusStrings) {
  const Dataset ds = GenerateCarDb(50, 9);
  WhyNotEngine single{Dataset(ds)};
  ShardedEngineOptions options;
  options.num_shards = 4;
  ShardedEngine shd{Dataset(ds), options};
  const auto ssnap = single.Snapshot();
  const auto dsnap = shd.Snapshot();
  const Point good = ds.points[0];

  const Point wrong_dims({1.0, 2.0, 3.0});
  const Point non_finite({std::nan(""), 2.0});
  for (const Point& bad : {wrong_dims, non_finite}) {
    const auto a = ssnap.TryReverseSkyline(bad);
    const auto b = dsnap.TryReverseSkyline(bad);
    ASSERT_FALSE(a.ok());
    ASSERT_FALSE(b.ok());
    EXPECT_EQ(a.status().ToString(), b.status().ToString());
  }
  {
    const auto a = ssnap.TryExplain(9999, good);
    const auto b = dsnap.TryExplain(9999, good);
    ASSERT_FALSE(b.ok());
    EXPECT_EQ(a.status().ToString(), b.status().ToString());
  }
  {
    const auto a = ssnap.TryApproxSafeRegion(good);
    const auto b = dsnap.TryApproxSafeRegion(good);
    ASSERT_FALSE(b.ok());
    EXPECT_EQ(a.status().ToString(), b.status().ToString());
  }
  {
    const auto a = single.TryRemoveProduct(9999);
    const auto b = shd.TryRemoveProduct(9999);
    ASSERT_FALSE(b.ok());
    EXPECT_EQ(a.ToString(), b.ToString());
  }
  ASSERT_TRUE(single.RemoveProduct(3));
  ASSERT_TRUE(shd.RemoveProduct(3));
  {
    const auto a = single.TryRemoveProduct(3);
    const auto b = shd.TryRemoveProduct(3);
    ASSERT_FALSE(b.ok());
    EXPECT_EQ(a.ToString(), b.ToString());
  }
  {
    const auto a = single.Snapshot().TryModifyBoth(3, good,
                                                   Semantics::kBoundary);
    const auto b = shd.Snapshot().TryModifyBoth(3, good, Semantics::kBoundary);
    ASSERT_FALSE(b.ok());
    EXPECT_EQ(a.status().ToString(), b.status().ToString());
  }
  {
    const auto a = single.TryAddProduct(non_finite);
    const auto b = shd.TryAddProduct(non_finite);
    ASSERT_FALSE(b.ok());
    EXPECT_EQ(a.status().ToString(), b.status().ToString());
  }
}

template <typename T>
T ValueOrFail(Result<T> result) {
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value() : T();
}

// The one serve adapter answers every Try* call exactly as the session it
// wraps does, for both backends.
TEST(ShardBackendTest, BackendSnapshotMatchesEngine) {
  const Dataset ds = GenerateCarDb(60, 4);
  WhyNotEngine single{Dataset(ds)};
  single.PrecomputeApproxDsls(4);
  ShardedEngineOptions options;
  options.num_shards = 4;
  ShardedEngine shd{Dataset(ds), options};
  shd.PrecomputeApproxDsls(4);
  const Point q = ds.points[7];
  const size_t c = 5;
  const std::vector<size_t> whos = {5, 11, 23};
  auto expect_matches = [&](const serve::QueryBackend& backend,
                            const QuerySession& direct) {
    const auto snapshot = backend.Snapshot();
    EXPECT_EQ(ValueOrFail(snapshot->TryReverseSkyline(q)),
              direct.ReverseSkyline(q));
    ExpectExplanationEq(ValueOrFail(snapshot->TryExplain(c, q)),
                        direct.Explain(c, q));
    for (const Semantics semantics :
         {Semantics::kBoundary, Semantics::kStrict}) {
      ExpectMwpEq(ValueOrFail(snapshot->TryModifyWhyNot(c, q, semantics)),
                  direct.ModifyWhyNot(c, q, semantics));
      ExpectMqpEq(ValueOrFail(snapshot->TryModifyQuery(c, q, semantics)),
                  direct.ModifyQuery(c, q, semantics));
      ExpectMwqEq(ValueOrFail(snapshot->TryModifyBoth(c, q, semantics)),
                  direct.ModifyBoth(c, q, semantics));
      ExpectMwqEq(
          ValueOrFail(snapshot->TryModifyBothApprox(c, q, semantics)),
          direct.ModifyBothApprox(c, q, semantics));
    }
    const auto sr = ValueOrFail(snapshot->TrySafeRegion(q));
    ASSERT_NE(sr, nullptr);
    ExpectSafeRegionEq(*sr, *direct.SafeRegion(q));
    const auto approx_sr = ValueOrFail(snapshot->TryApproxSafeRegion(q));
    ASSERT_NE(approx_sr, nullptr);
    ExpectSafeRegionEq(*approx_sr, *direct.ApproxSafeRegion(q));
    for (const bool use_approx : {false, true}) {
      const std::vector<MwqResult> got = ValueOrFail(
          snapshot->TryModifyBothBatch(whos, q, use_approx,
                                       Semantics::kBoundary));
      const std::vector<MwqResult> want =
          direct.ModifyBothBatch(whos, q, use_approx);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) ExpectMwqEq(got[i], want[i]);
    }
  };
  {
    SCOPED_TRACE("EngineBackend");
    expect_matches(serve::EngineBackend(&single), single.Snapshot());
  }
  {
    SCOPED_TRACE("ShardedBackend");
    expect_matches(ShardedBackend(&shd), shd.Snapshot());
  }
}

// The sharded coordinator's RSL memo is the single engine's, metrics
// included: a miss, then a hit.
TEST(ShardMetricsTest, ReverseSkylineMemoCountsLikeSingleEngine) {
  const Dataset ds = GenerateCarDb(80, 6);
  WhyNotEngine single{Dataset(ds)};
  ShardedEngineOptions options;
  options.num_shards = 4;
  ShardedEngine shd{Dataset(ds), options};
  const Point q = ds.points[3];
  for (const QuerySession& snapshot :
       {QuerySession(single.Snapshot()), QuerySession(shd.Snapshot())}) {
    const MetricsRegistry& registry = MetricsRegistry::Default();
    const QueryStats start = registry.CaptureQueryStats();
    ASSERT_TRUE(snapshot.TryReverseSkyline(q).ok());
    const QueryStats first = registry.CaptureQueryStats() - start;
    EXPECT_EQ(first.rsl_cache_misses, 1u);
    EXPECT_EQ(first.rsl_cache_hits, 0u);
    ASSERT_TRUE(snapshot.TryReverseSkyline(q).ok());
    const QueryStats second = registry.CaptureQueryStats() - start;
    EXPECT_EQ(second.rsl_cache_misses, 1u);
    EXPECT_EQ(second.rsl_cache_hits, 1u);
  }
}

// StrTiles is the partitioner the sharded engine is built on; pin its
// contract (exact tile count, balanced sizes, ascending ids, an exact
// partition, determinism) independently of the engine tests above.
TEST(ShardTilingTest, StrTilesFormBalancedDeterministicPartition) {
  const Dataset ds = GenerateCarDb(103, 31);
  for (const size_t want : {size_t{1}, size_t{4}, size_t{7}, size_t{200}}) {
    const auto tiles = StrTiles(ds.dims, ds.points, want);
    const auto again = StrTiles(ds.dims, ds.points, want);
    EXPECT_EQ(tiles, again);
    ASSERT_EQ(tiles.size(), std::min(want, ds.points.size()));
    size_t lo = ds.points.size();
    size_t hi = 0;
    std::vector<bool> seen(ds.points.size(), false);
    for (const std::vector<size_t>& tile : tiles) {
      ASSERT_FALSE(tile.empty());
      lo = std::min(lo, tile.size());
      hi = std::max(hi, tile.size());
      EXPECT_TRUE(std::is_sorted(tile.begin(), tile.end()));
      for (size_t id : tile) {
        ASSERT_LT(id, seen.size());
        EXPECT_FALSE(seen[id]) << "id " << id << " in two tiles";
        seen[id] = true;
      }
    }
    EXPECT_LE(hi - lo, 1u) << "tile sizes must differ by at most one";
    EXPECT_TRUE(
        std::all_of(seen.begin(), seen.end(), [](bool s) { return s; }));
  }
}

}  // namespace
}  // namespace wnrs
