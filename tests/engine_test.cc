#include "core/engine.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "common/random.h"
#include "data/generators.h"
#include "reverse_skyline/window_query.h"

namespace wnrs {
namespace {

TEST(EngineTest, SharedRelationAccessors) {
  WhyNotEngine engine(PaperExampleDataset());
  EXPECT_TRUE(engine.shared_relation());
  EXPECT_EQ(engine.products().size(), 8u);
  EXPECT_EQ(&engine.products(), &engine.customers());
  EXPECT_EQ(engine.universe().lo(), Point({2.5, 20.0}));
  EXPECT_EQ(engine.universe().hi(), Point({26.0, 90.0}));
}

TEST(EngineTest, BichromaticMode) {
  WhyNotEngine engine(GenerateUniform(200, 2, 1),
                      GenerateUniform(50, 2, 2));
  EXPECT_FALSE(engine.shared_relation());
  EXPECT_EQ(engine.products().size(), 200u);
  EXPECT_EQ(engine.customers().size(), 50u);
  Rng rng(3);
  const Point q({rng.NextDouble(), rng.NextDouble()});
  const std::vector<size_t> rsl = engine.ReverseSkyline(q);
  for (size_t c = 0; c < engine.customers().size(); ++c) {
    const bool member = engine.IsReverseSkylineMember(c, q);
    const bool listed =
        std::find(rsl.begin(), rsl.end(), c) != rsl.end();
    EXPECT_EQ(member, listed) << "customer " << c;
  }
}

TEST(EngineTest, SafeRegionIsCachedPerQuery) {
  WhyNotEngine engine(GenerateCarDb(300, 5));
  const Point q1 = engine.products().points[0];
  const SafeRegionResult& sr1 = engine.SafeRegion(q1);
  const SafeRegionResult& sr1_again = engine.SafeRegion(q1);
  EXPECT_EQ(&sr1, &sr1_again);  // Same cached object.
  const Point q2 = engine.products().points[1];
  engine.SafeRegion(q2);  // Evicts q1's entry.
  // Recompute for q1 still yields a region containing q1.
  EXPECT_TRUE(engine.SafeRegion(q1).region.Contains(q1));
}

TEST(EngineTest, ApproxRequiresPrecompute) {
  WhyNotEngine engine(GenerateCarDb(100, 6));
  EXPECT_FALSE(engine.HasApproxDsls());
  engine.PrecomputeApproxDsls(5);
  EXPECT_TRUE(engine.HasApproxDsls());
  const Point q = engine.products().points[0];
  const SafeRegionResult& sr = engine.ApproxSafeRegion(q);
  EXPECT_TRUE(sr.region.Contains(q));
}

TEST(EngineTest, ApproxMwqNeverBeatsMwpNorLosesToIt) {
  // Paper Tables V/VI: Approx-MWQ results are "no worse than MWP".
  WhyNotEngine engine(GenerateCarDb(400, 7));
  engine.PrecomputeApproxDsls(10);
  Rng rng(8);
  int exercised = 0;
  for (int trial = 0; trial < 30 && exercised < 10; ++trial) {
    const Point q =
        engine.products().points[rng.NextUint64(engine.products().size())];
    if (engine.ReverseSkyline(q).size() > 8) continue;
    const size_t c = rng.NextUint64(engine.customers().size());
    const MwqResult approx = engine.ModifyBothApprox(c, q);
    if (approx.already_member) continue;
    ++exercised;
    const MwpResult mwp = engine.ModifyWhyNot(c, q);
    ASSERT_FALSE(mwp.candidates.empty());
    const double approx_cost = approx.best_cost;
    EXPECT_LE(approx_cost, mwp.candidates.front().cost + 1e-9);
  }
  EXPECT_GE(exercised, 5);
}

TEST(EngineTest, MqpEvaluationCostChargesLostCustomers) {
  WhyNotEngine engine(PaperExampleDataset());
  const Point q = PaperExampleQuery();
  // Moving inside the safe region costs nothing.
  EXPECT_NEAR(engine.MqpEvaluationCost(q, Point({8.5, 56.0})), 0.0, 1e-9);
  // Moving far away both exits the region and loses customers.
  EXPECT_GT(engine.MqpEvaluationCost(q, Point({25.0, 20.0})), 0.1);
}

TEST(EngineTest, CustomWeightsBiasCosts) {
  WhyNotEngineOptions options;
  options.beta = {1.0, 0.0};  // Only price movement costs.
  WhyNotEngine engine(PaperExampleDataset(), options);
  const MwpResult r = engine.ModifyWhyNot(0, PaperExampleQuery());
  ASSERT_EQ(r.candidates.size(), 2u);
  // (5, 48.5) moves only mileage -> zero cost under beta = (1, 0).
  EXPECT_TRUE(r.candidates[0].point.ApproxEquals(Point({5.0, 48.5})));
  EXPECT_EQ(r.candidates[0].cost, 0.0);
}

TEST(EngineTest, NudgeToStrictMemberFixesBoundaryAnswers) {
  WhyNotEngine engine(PaperExampleDataset());
  const Point q = PaperExampleQuery();
  const MwpResult r = engine.ModifyWhyNot(0, q);
  for (const Candidate& cand : r.candidates) {
    const std::optional<Point> strict =
        engine.NudgeToStrictMember(cand.point, q, 0);
    ASSERT_TRUE(strict.has_value());
    // ... but the nudged point passes a real window probe.
    EXPECT_TRUE(strict->ApproxEquals(cand.point, 1e-3));
  }
}

TEST(EngineTest, ConstrainedSafeRegionIsClippedAndContainsQ) {
  WhyNotEngine engine(PaperExampleDataset());
  const Point q = PaperExampleQuery();
  // Only prices within [8, 12] allowed (Section V-B: "limiting certain
  // product feature").
  const Rectangle limits(Point({8.0, 20.0}), Point({12.0, 90.0}));
  const SafeRegionResult sr = engine.ConstrainedSafeRegion(q, limits);
  EXPECT_TRUE(sr.region.Contains(q));
  for (const Rectangle& r : sr.region.rects()) {
    EXPECT_TRUE(limits.ContainsRect(r)) << r.ToString();
  }
  // Unconstrained SR reaches price 7.5; constrained must not.
  EXPECT_FALSE(sr.region.Contains(Point({7.6, 52.0})));
  EXPECT_TRUE(engine.SafeRegion(q).region.Contains(Point({7.6, 52.0})));
}

TEST(EngineTest, ConstrainedSafeRegionKeepsQEvenOutsideLimits) {
  WhyNotEngine engine(PaperExampleDataset());
  const Point q = PaperExampleQuery();
  const Rectangle limits(Point({20.0, 20.0}), Point({26.0, 90.0}));
  const SafeRegionResult sr = engine.ConstrainedSafeRegion(q, limits);
  EXPECT_TRUE(sr.region.Contains(q));  // Degenerate {q} re-added.
}

TEST(EngineTest, ModifyBothConstrainedNeverBeatsUnconstrained) {
  WhyNotEngine engine(PaperExampleDataset());
  const Point q = PaperExampleQuery();
  const Rectangle limits(Point({8.0, 20.0}), Point({12.0, 90.0}));
  const MwqResult constrained = engine.ModifyBothConstrained(0, q, limits);
  const MwqResult free = engine.ModifyBoth(0, q);
  EXPECT_GE(constrained.best_cost, free.best_cost - 1e-12);
  // And the constrained q* honors the limits (up to the zero-move
  // fallback at q).
  ASSERT_FALSE(constrained.query_candidates.empty());
  const Point& q_star = constrained.query_candidates.front().point;
  EXPECT_TRUE(limits.Contains(q_star) || q_star.ApproxEquals(q, 1e-9))
      << q_star.ToString();
}

TEST(EngineTest, LostCustomersMatchesMembership) {
  WhyNotEngine engine(PaperExampleDataset());
  const Point q = PaperExampleQuery();
  // Inside the safe region: nothing lost.
  EXPECT_TRUE(engine.LostCustomers(q, Point({8.5, 56.0})).empty());
  // Far away: someone is lost.
  const std::vector<size_t> lost = engine.LostCustomers(q, Point({25.0, 21.0}));
  EXPECT_FALSE(lost.empty());
  for (size_t c : lost) {
    EXPECT_FALSE(engine.IsReverseSkylineMember(c, Point({25.0, 21.0})));
  }
}

TEST(EngineTest, BatchReusesSafeRegionAndMatchesSingles) {
  WhyNotEngine engine(PaperExampleDataset());
  const Point q = PaperExampleQuery();
  const std::vector<size_t> whos = {0, 4, 6};
  const std::vector<MwqResult> batch = engine.ModifyBothBatch(whos, q);
  ASSERT_EQ(batch.size(), whos.size());
  for (size_t i = 0; i < whos.size(); ++i) {
    const MwqResult single = engine.ModifyBoth(whos[i], q);
    EXPECT_EQ(batch[i].overlap, single.overlap);
    EXPECT_DOUBLE_EQ(batch[i].best_cost, single.best_cost);
  }
}

TEST(EngineTest, ApproxDslStoreRoundTrips) {
  WhyNotEngine engine(GenerateCarDb(300, 21));
  engine.PrecomputeApproxDsls(5);
  const std::string path = ::testing::TempDir() + "/approx_store.txt";
  ASSERT_TRUE(engine.SaveApproxDsls(path).ok());

  WhyNotEngine fresh(GenerateCarDb(300, 21));
  EXPECT_FALSE(fresh.HasApproxDsls());
  ASSERT_TRUE(fresh.LoadApproxDsls(path).ok());
  EXPECT_TRUE(fresh.HasApproxDsls());
  EXPECT_EQ(fresh.approx_k(), 5u);

  // Identical answers from the loaded store.
  Rng rng(22);
  for (int trial = 0; trial < 5; ++trial) {
    const Point q = engine.products().points[rng.NextUint64(300)];
    const size_t c = rng.NextUint64(300);
    const MwqResult a = engine.ModifyBothApprox(c, q);
    const MwqResult b = fresh.ModifyBothApprox(c, q);
    EXPECT_DOUBLE_EQ(a.best_cost, b.best_cost);
    EXPECT_EQ(a.overlap, b.overlap);
  }
  std::remove(path.c_str());
}

TEST(EngineTest, ApproxDslStoreRejectsMismatchedEngine) {
  WhyNotEngine engine(GenerateCarDb(300, 21));
  engine.PrecomputeApproxDsls(5);
  const std::string path = ::testing::TempDir() + "/approx_store2.txt";
  ASSERT_TRUE(engine.SaveApproxDsls(path).ok());
  WhyNotEngine other(GenerateCarDb(200, 21));  // Different cardinality.
  EXPECT_FALSE(other.LoadApproxDsls(path).ok());
  std::remove(path.c_str());
}

TEST(EngineTest, SaveWithoutPrecomputeFails) {
  WhyNotEngine engine(PaperExampleDataset());
  EXPECT_EQ(engine.SaveApproxDsls("/tmp/never.txt").code(),
            StatusCode::kFailedPrecondition);
}

TEST(EngineTest, AddProductChangesAnswers) {
  WhyNotEngine engine(PaperExampleDataset());
  const Point q = PaperExampleQuery();
  // c1 is blocked only by p2; add an even better-matching product and the
  // culprit set grows.
  ASSERT_FALSE(engine.IsReverseSkylineMember(0, q));
  const size_t new_id = engine.AddProduct(Point({6.0, 40.0}));
  EXPECT_EQ(new_id, 8u);
  EXPECT_TRUE(engine.IsLiveProduct(new_id));
  const WhyNotExplanation why = engine.Explain(0, q);
  EXPECT_EQ(why.culprits.size(), 2u);
}

TEST(EngineTest, RemoveProductCanAdmitTheCustomer) {
  WhyNotEngine engine(PaperExampleDataset());
  const Point q = PaperExampleQuery();
  // Deleting Λ admits c_t (Lemma 1): removing p2 puts c1 into RSL(q).
  ASSERT_FALSE(engine.IsReverseSkylineMember(0, q));
  ASSERT_TRUE(engine.RemoveProduct(1));
  EXPECT_FALSE(engine.IsLiveProduct(1));
  EXPECT_TRUE(engine.IsReverseSkylineMember(0, q));
  // Removal is idempotent-fail.
  EXPECT_FALSE(engine.RemoveProduct(1));
  EXPECT_FALSE(engine.RemoveProduct(999));
}

TEST(EngineTest, MutationInvalidatesApproxStoreAndCaches) {
  WhyNotEngine engine(GenerateCarDb(200, 31));
  engine.PrecomputeApproxDsls(5);
  ASSERT_TRUE(engine.HasApproxDsls());
  const Point q = engine.products().points[0];
  // wnrs-lint: allow-discard(warms the safe-region cache; the invalidation
  // below is the behavior under test)
  (void)engine.SafeRegion(q);
  // wnrs-lint: allow-discard(the new id is irrelevant — the test observes
  // the approx-store drop, not the product)
  (void)engine.AddProduct(Point({12345.0, 67890.0}));
  EXPECT_FALSE(engine.HasApproxDsls());
  // Safe region recomputes against the new market without error.
  EXPECT_TRUE(engine.SafeRegion(q).region.Contains(q));
}

TEST(EngineTest, AddProductOutsideUniverseExtendsIt) {
  WhyNotEngine engine(PaperExampleDataset());
  const Rectangle before = engine.universe();
  // wnrs-lint: allow-discard(only the universe extension is observed)
  (void)engine.AddProduct(Point({100.0, 300.0}));
  EXPECT_TRUE(engine.universe().ContainsRect(before));
  EXPECT_TRUE(engine.universe().Contains(Point({100.0, 300.0})));
}

TEST(EngineTest, ApproxPathForwardsFastFrontierOption) {
  // Regression: ModifyBothApprox used to drop options_.fast_frontier, so
  // fast_frontier = false silently still took the fast path. The two
  // paths return identical candidates; the observable difference is the
  // I/O work (the reference path materializes the culprit set Λ, the
  // fast path extracts only the window-skyline frontier).
  const Dataset data = GenerateCarDb(2000, 91);
  WhyNotEngineOptions slow_options;
  slow_options.fast_frontier = false;
  WhyNotEngine fast(data);  // fast_frontier = true by default.
  WhyNotEngine slow(data, slow_options);
  fast.PrecomputeApproxDsls(6);
  slow.PrecomputeApproxDsls(6);

  // Find a why-not case answered through C2 (corner MWP calls) — C1
  // never invokes the frontier machinery.
  const Point q = data.points[11];
  // wnrs-lint: allow-discard(warms both engines' caches so the deltas
  // below isolate the answer itself)
  (void)fast.ApproxSafeRegion(q);
  // wnrs-lint: allow-discard(cache warmup, as above)
  (void)slow.ApproxSafeRegion(q);
  // wnrs-lint: allow-discard(cache warmup, as above)
  (void)fast.ReverseSkyline(q);
  // wnrs-lint: allow-discard(cache warmup, as above)
  (void)slow.ReverseSkyline(q);
  bool exercised = false;
  for (size_t c = 0; c < data.points.size() && !exercised; ++c) {
    if (fast.IsReverseSkylineMember(c, q)) continue;
    const MwqResult fr = fast.ModifyBothApprox(c, q);
    const uint64_t fast_reads = fast.last_query_stats().rtree_node_reads;
    if (fr.overlap || fr.already_member) continue;  // C1: no MWP calls.
    const MwqResult sr = slow.ModifyBothApprox(c, q);
    const uint64_t slow_reads = slow.last_query_stats().rtree_node_reads;
    EXPECT_DOUBLE_EQ(fr.best_cost, sr.best_cost) << "customer " << c;
    // With the option forwarded, the reference path does strictly more
    // node reads than the pruned frontier extraction.
    EXPECT_GT(slow_reads, fast_reads) << "customer " << c;
    exercised = true;
  }
  EXPECT_TRUE(exercised) << "no C2 why-not case found; weaken the query";
}

TEST(EngineTest, LoadApproxDslsRejectsKBelowTwo) {
  WhyNotEngine engine(GenerateCarDb(3, 101));
  const std::string path = ::testing::TempDir() + "/approx_store_k0.txt";
  {
    std::ofstream out(path, std::ios::trunc);
    // A store claiming k=0 over 3 customers with one 2-D point each; the
    // k check runs before the engine-state digest (here 0) is compared.
    out << "wnrs-approx-dsl 2\n0 2 3 0\n";
    out << "1 0.5 0.5\n1 0.25 0.75\n1 0.75 0.25\n";
  }
  const Status status = engine.LoadApproxDsls(path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("k >= 2"), std::string::npos)
      << status.ToString();
  EXPECT_FALSE(engine.HasApproxDsls());
  std::remove(path.c_str());
}

TEST(EngineTest, LoadApproxDslsRejectsNonFiniteCoordinates) {
  WhyNotEngine engine(GenerateCarDb(2, 102));
  const std::string path = ::testing::TempDir() + "/approx_store_nan.txt";
  {
    std::ofstream out(path, std::ios::trunc);
    // The finite check runs before the engine-state digest (here 0).
    out << "wnrs-approx-dsl 2\n5 2 2 0\n";
    out << "1 0.5 nan\n1 0.25 0.75\n";
  }
  const Status status = engine.LoadApproxDsls(path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("non-finite"), std::string::npos)
      << status.ToString();
  EXPECT_FALSE(engine.HasApproxDsls());
  std::remove(path.c_str());
}

// ---- The approx store is bound to the market state it was computed from.

TEST(EngineTest, LoadApproxDslsRefusesStoreFromBeforeBichromaticAdds) {
  // Bichromatic AddProduct leaves the customer count unchanged, so only
  // the engine-state digest can tell the stale store apart.
  const Dataset products = GenerateUniform(400, 2, 111);
  const Dataset customers = GenerateUniform(150, 2, 112);
  WhyNotEngine engine(products, customers);
  engine.PrecomputeApproxDsls(5);
  const std::string path = ::testing::TempDir() + "/approx_stale_bi.txt";
  ASSERT_TRUE(engine.SaveApproxDsls(path).ok());
  ASSERT_TRUE(engine.LoadApproxDsls(path).ok());
  for (int i = 0; i < 3; ++i) {
    // wnrs-lint: allow-discard(the new id is not needed)
    (void)engine.AddProduct(Point({0.1 * i + 0.05, 0.5}));
  }
  const Status status = engine.LoadApproxDsls(path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("[approx-stale]"), std::string::npos)
      << status.ToString();
  EXPECT_FALSE(engine.HasApproxDsls());
  std::remove(path.c_str());
}

TEST(EngineTest, LoadApproxDslsRefusesStoreFromBeforeRemoval) {
  // A removal tombstones its slot, so the customer count stays as it was.
  WhyNotEngine engine(GenerateCarDb(300, 113));
  engine.PrecomputeApproxDsls(5);
  const std::string path = ::testing::TempDir() + "/approx_stale_rm.txt";
  ASSERT_TRUE(engine.SaveApproxDsls(path).ok());
  ASSERT_TRUE(engine.RemoveProduct(42));
  const Status status = engine.LoadApproxDsls(path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("[approx-stale]"), std::string::npos)
      << status.ToString();
  EXPECT_FALSE(engine.HasApproxDsls());
  std::remove(path.c_str());
}

TEST(EngineTest, LoadApproxDslsRefusesVersionOneStore) {
  WhyNotEngine engine(GenerateCarDb(2, 114));
  const std::string path = ::testing::TempDir() + "/approx_store_v1.txt";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "wnrs-approx-dsl 1\n5 2 2\n1 0.5 0.5\n1 0.25 0.75\n";
  }
  const Status status = engine.LoadApproxDsls(path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("[version]"), std::string::npos)
      << status.ToString();
  EXPECT_FALSE(engine.HasApproxDsls());
  std::remove(path.c_str());
}

// ---- Try* layer: non-aborting counterparts of the checked entry points.

TEST(EngineTest, TryVariantsReturnErrorsInsteadOfAborting) {
  WhyNotEngine engine(GenerateCarDb(200, 21));
  const Point q = engine.products().points[4];

  // Wrong-dimensional query.
  const Point bad_q(std::vector<double>{1.0, 2.0, 3.0});
  EXPECT_EQ(engine.TryReverseSkyline(bad_q).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.TrySafeRegion(bad_q).status().code(),
            StatusCode::kInvalidArgument);

  // Out-of-range why-not customer.
  const size_t bad_c = engine.customers().size();
  EXPECT_EQ(engine.TryModifyWhyNot(bad_c, q).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(engine.TryModifyQuery(bad_c, q).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(engine.TryModifyBoth(bad_c, q).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(engine.TryExplain(bad_c, q).status().code(),
            StatusCode::kOutOfRange);

  // Approx MWQ before PrecomputeApproxDsls.
  EXPECT_EQ(engine.TryModifyBothApprox(7, q).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.TryApproxSafeRegion(q).status().code(),
            StatusCode::kFailedPrecondition);

  // Valid input goes through and matches the aborting forms.
  const Result<std::vector<size_t>> rsl = engine.TryReverseSkyline(q);
  ASSERT_TRUE(rsl.ok()) << rsl.status().ToString();
  EXPECT_EQ(rsl.value(), engine.ReverseSkyline(q));
  const Result<MwqResult> mwq = engine.TryModifyBoth(7, q);
  ASSERT_TRUE(mwq.ok());
  EXPECT_EQ(mwq.value().best_cost, engine.ModifyBoth(7, q).best_cost);
}

TEST(EngineTest, TryAddAndRemoveProductValidate) {
  WhyNotEngine engine(GenerateCarDb(100, 22));
  const size_t before = engine.products().size();

  const Result<size_t> bad =
      engine.TryAddProduct(Point(std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.products().size(), before);

  const Result<size_t> added =
      engine.TryAddProduct(engine.products().points[0]);
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(engine.products().size(), before + 1);
  EXPECT_TRUE(engine.IsLiveProduct(added.value()));

  EXPECT_EQ(engine.TryRemoveProduct(before + 100).code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(engine.TryRemoveProduct(added.value()).ok());
  // Double-remove reports NotFound (tombstoned).
  EXPECT_EQ(engine.TryRemoveProduct(added.value()).code(),
            StatusCode::kNotFound);
}

// ---- Semantics::kStrict: candidates are nudged off the boundary into
// strict reverse-skyline membership.

TEST(EngineTest, StrictMwpCandidatesAreStrictMembers) {
  WhyNotEngine engine(GenerateCarDb(250, 23));
  bool exercised = false;
  for (size_t qi = 0; qi < 6 && !exercised; ++qi) {
    const Point& q = engine.products().points[qi];
    for (size_t c = 0; c < 40; ++c) {
      if (engine.IsReverseSkylineMember(c, q)) continue;
      const MwpResult boundary = engine.ModifyWhyNot(c, q);
      const MwpResult strict =
          engine.ModifyWhyNot(c, q, Semantics::kStrict);
      if (boundary.candidates.empty()) continue;
      ASSERT_EQ(strict.candidates.size(), boundary.candidates.size());
      for (const Candidate& cand : strict.candidates) {
        // Strict membership: the moved customer's window is empty.
        EXPECT_TRUE(WindowEmpty(engine.product_tree(), cand.point, q,
                                static_cast<RStarTree::Id>(c)))
            << "customer " << c;
      }
      // Nudging moves past the boundary, so cost never decreases.
      EXPECT_GE(strict.candidates.front().cost,
                boundary.candidates.front().cost - 1e-12);
      exercised = true;
      break;
    }
  }
  EXPECT_TRUE(exercised) << "no why-not case found; widen the scan";
}

TEST(EngineTest, StrictMqpCandidatesAreStrictMembers) {
  WhyNotEngine engine(GenerateCarDb(250, 24));
  bool exercised = false;
  for (size_t qi = 0; qi < 6 && !exercised; ++qi) {
    const Point& q = engine.products().points[qi];
    for (size_t c = 0; c < 40; ++c) {
      if (engine.IsReverseSkylineMember(c, q)) continue;
      const MqpResult strict = engine.ModifyQuery(c, q, Semantics::kStrict);
      if (strict.candidates.empty() || strict.already_member) continue;
      const Point& cp = engine.customers().points[c];
      for (const Candidate& cand : strict.candidates) {
        // Under the nudged query q*, customer c is a strict member.
        EXPECT_TRUE(WindowEmpty(engine.product_tree(), cp, cand.point,
                                static_cast<RStarTree::Id>(c)))
            << "customer " << c;
      }
      exercised = true;
      break;
    }
  }
  EXPECT_TRUE(exercised) << "no why-not case found; widen the scan";
}

TEST(EngineTest, StrictSemanticsDefaultsToBoundary) {
  WhyNotEngine engine(GenerateCarDb(150, 25));
  const Point& q = engine.products().points[2];
  const MwpResult defaulted = engine.ModifyWhyNot(9, q);
  const MwpResult boundary = engine.ModifyWhyNot(9, q, Semantics::kBoundary);
  ASSERT_EQ(defaulted.candidates.size(), boundary.candidates.size());
  for (size_t i = 0; i < defaulted.candidates.size(); ++i) {
    EXPECT_EQ(defaulted.candidates[i].point, boundary.candidates[i].point);
    EXPECT_EQ(defaulted.candidates[i].cost, boundary.candidates[i].cost);
  }
}

TEST(EngineTest, ReverseSkylineMatchesPerCustomerMembership) {
  WhyNotEngine engine(GenerateAnticorrelated(300, 2, 9));
  Rng rng(10);
  for (int trial = 0; trial < 5; ++trial) {
    const Point q =
        engine.products().points[rng.NextUint64(engine.products().size())];
    const std::vector<size_t> rsl = engine.ReverseSkyline(q);
    for (size_t c = 0; c < engine.customers().size(); ++c) {
      const bool listed = std::find(rsl.begin(), rsl.end(), c) != rsl.end();
      EXPECT_EQ(engine.IsReverseSkylineMember(c, q), listed);
    }
  }
}

}  // namespace
}  // namespace wnrs
