#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "data/generators.h"

namespace wnrs {
namespace {

WhyNotEngineOptions PackedOptions(bool packed) {
  WhyNotEngineOptions options;
  options.num_threads = 1;
  options.use_packed_read_path = packed;
  return options;
}

/// A mix of query points the engines have not memoized yet: dataset
/// points nudged off-grid so every call is an RSL-cache miss.
std::vector<Point> FreshQueries(const Dataset& data, size_t count,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> queries;
  queries.reserve(count);
  for (size_t k = 0; k < count; ++k) {
    Point q = data.points[rng.NextUint64(data.size())];
    for (size_t i = 0; i < q.dims(); ++i) {
      q[i] += rng.NextDouble(-0.01, 0.01) * (q[i] + 1.0);
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

void ExpectSameCandidates(const std::vector<Candidate>& a,
                          const std::vector<Candidate>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].point, b[i].point) << "candidate " << i;
    EXPECT_EQ(a[i].cost, b[i].cost) << "candidate " << i;
  }
}

void ExpectSameMwq(const MwqResult& a, const MwqResult& b) {
  EXPECT_EQ(a.already_member, b.already_member);
  EXPECT_EQ(a.overlap, b.overlap);
  EXPECT_EQ(a.best_cost, b.best_cost);
  ExpectSameCandidates(a.query_candidates, b.query_candidates);
  ExpectSameCandidates(a.why_not_candidates, b.why_not_candidates);
}

// The packed read path must be invisible in every answer: reverse
// skylines, membership probes, range queries, and the three modification
// algorithms agree bit for bit with the dynamic-tree engine.
TEST(PackedEngineTest, SharedRelationAnswersIdentical) {
  const Dataset data = GenerateCarDb(1200, 9001);
  WhyNotEngine packed_engine(GenerateCarDb(1200, 9001), PackedOptions(true));
  WhyNotEngine plain_engine(GenerateCarDb(1200, 9001), PackedOptions(false));
  Rng rng(9002);
  for (const Point& q : FreshQueries(data, 10, 9003)) {
    EXPECT_EQ(packed_engine.ReverseSkyline(q), plain_engine.ReverseSkyline(q));
    const size_t c = rng.NextUint64(data.size());
    EXPECT_EQ(packed_engine.IsReverseSkylineMember(c, q),
              plain_engine.IsReverseSkylineMember(c, q));
    const Rectangle window(Point({q[0] * 0.8, q[1] * 0.8}),
                           Point({q[0] * 1.2, q[1] * 1.2}));
    EXPECT_EQ(packed_engine.CustomersInRange(window),
              plain_engine.CustomersInRange(window));
  }
}

TEST(PackedEngineTest, WhyNotAlgorithmsIdentical) {
  const Dataset data = GenerateCarDb(800, 9101);
  WhyNotEngine packed_engine(GenerateCarDb(800, 9101), PackedOptions(true));
  WhyNotEngine plain_engine(GenerateCarDb(800, 9101), PackedOptions(false));
  packed_engine.PrecomputeApproxDsls(4);
  plain_engine.PrecomputeApproxDsls(4);
  Rng rng(9102);
  for (const Point& q : FreshQueries(data, 5, 9103)) {
    const size_t c = rng.NextUint64(data.size());
    const WhyNotExplanation why_a = packed_engine.Explain(c, q);
    const WhyNotExplanation why_b = plain_engine.Explain(c, q);
    EXPECT_EQ(why_a.already_member, why_b.already_member);
    EXPECT_EQ(why_a.culprits, why_b.culprits);
    EXPECT_EQ(why_a.frontier, why_b.frontier);

    // Copies: the facade's references are only pinned until this
    // thread's next SafeRegion call.
    const SafeRegionResult sr_a = packed_engine.SafeRegion(q);
    const SafeRegionResult sr_b = plain_engine.SafeRegion(q);
    EXPECT_EQ(sr_a.customers_processed, sr_b.customers_processed);
    EXPECT_EQ(sr_a.truncated, sr_b.truncated);
    EXPECT_EQ(sr_a.region.rects(), sr_b.region.rects());

    for (const Semantics semantics :
         {Semantics::kBoundary, Semantics::kStrict}) {
      const MwpResult mwp_a = packed_engine.ModifyWhyNot(c, q, semantics);
      const MwpResult mwp_b = plain_engine.ModifyWhyNot(c, q, semantics);
      EXPECT_EQ(mwp_a.already_member, mwp_b.already_member);
      EXPECT_EQ(mwp_a.culprits, mwp_b.culprits);
      ExpectSameCandidates(mwp_a.candidates, mwp_b.candidates);

      const MqpResult mqp_a = packed_engine.ModifyQuery(c, q, semantics);
      const MqpResult mqp_b = plain_engine.ModifyQuery(c, q, semantics);
      EXPECT_EQ(mqp_a.already_member, mqp_b.already_member);
      EXPECT_EQ(mqp_a.culprits, mqp_b.culprits);
      ExpectSameCandidates(mqp_a.candidates, mqp_b.candidates);

      ExpectSameMwq(packed_engine.ModifyBoth(c, q, semantics),
                    plain_engine.ModifyBoth(c, q, semantics));
      ExpectSameMwq(packed_engine.ModifyBothApprox(c, q, semantics),
                    plain_engine.ModifyBothApprox(c, q, semantics));
    }

    const Point q_star({q[0] * 1.1, q[1] * 0.9});
    EXPECT_EQ(packed_engine.LostCustomers(q, q_star),
              plain_engine.LostCustomers(q, q_star));
  }
}

TEST(PackedEngineTest, BichromaticAnswersIdentical) {
  const Dataset products = GenerateCarDb(700, 9201);
  const Dataset customers = GenerateCarDb(500, 9202);
  WhyNotEngine packed_engine(GenerateCarDb(700, 9201),
                             GenerateCarDb(500, 9202), PackedOptions(true));
  WhyNotEngine plain_engine(GenerateCarDb(700, 9201),
                            GenerateCarDb(500, 9202), PackedOptions(false));
  for (const Point& q : FreshQueries(products, 8, 9203)) {
    EXPECT_EQ(packed_engine.ReverseSkyline(q), plain_engine.ReverseSkyline(q));
  }
}

// Node-read counts are part of the parity contract: the packed path does
// the same traversal, so the shared rtree.node_reads counter moves by the
// same amount, and every one of those reads is attributed to
// packed.node_reads on the packed engine (and none on the dynamic one).
// That holds for every request kind: no kind reads the dynamic tree when
// the packed image exists.
TEST(PackedEngineTest, NodeReadParityAndAttribution) {
  const Dataset data = GenerateCarDb(1000, 9301);
  WhyNotEngine packed_engine(GenerateCarDb(1000, 9301), PackedOptions(true));
  WhyNotEngine plain_engine(GenerateCarDb(1000, 9301), PackedOptions(false));
  packed_engine.PrecomputeApproxDsls(4);
  plain_engine.PrecomputeApproxDsls(4);
  Rng rng(9303);
  for (const Point& q : FreshQueries(data, 6, 9302)) {
    packed_engine.ResetStats();
    plain_engine.ResetStats();
    ASSERT_EQ(packed_engine.ReverseSkyline(q), plain_engine.ReverseSkyline(q));
    const QueryStats packed_stats = packed_engine.stats();
    const QueryStats plain_stats = plain_engine.stats();
    EXPECT_EQ(packed_stats.rtree_node_reads, plain_stats.rtree_node_reads);
    EXPECT_GT(packed_stats.rtree_node_reads, 0u);
    EXPECT_EQ(packed_stats.packed_node_reads, packed_stats.rtree_node_reads);
    EXPECT_EQ(plain_stats.packed_node_reads, 0u);
    // BBRS work counters match too (the packed global-skyline scan keeps
    // exact dominance-test parity).
    EXPECT_EQ(packed_stats.bbrs_heap_pops, plain_stats.bbrs_heap_pops);
    EXPECT_EQ(packed_stats.bbrs_dominance_tests,
              plain_stats.bbrs_dominance_tests);
    EXPECT_EQ(packed_stats.bbrs_pruned_entries,
              plain_stats.bbrs_pruned_entries);

    // The why-not kinds, each checked on its own call's stats (RSL(q) is
    // memoized by now, so SR and MWQ read only for DSLs and probes).
    const size_t c = rng.NextUint64(data.size());
    auto expect_kind_parity = [&](const char* kind, const auto& run) {
      run(packed_engine);
      run(plain_engine);
      const QueryStats a = packed_engine.last_query_stats();
      const QueryStats b = plain_engine.last_query_stats();
      EXPECT_EQ(a.rtree_node_reads, b.rtree_node_reads) << kind;
      EXPECT_GT(a.rtree_node_reads, 0u) << kind;
      EXPECT_EQ(a.packed_node_reads, a.rtree_node_reads) << kind;
      EXPECT_EQ(b.packed_node_reads, 0u) << kind;
      EXPECT_EQ(a.window_probes, b.window_probes) << kind;
      EXPECT_EQ(a.window_heap_pops, b.window_heap_pops) << kind;
      EXPECT_EQ(a.window_dominance_tests, b.window_dominance_tests) << kind;
    };
    expect_kind_parity("explain", [&](WhyNotEngine& e) { e.Explain(c, q); });
    expect_kind_parity("mwp",
                       [&](WhyNotEngine& e) { e.ModifyWhyNot(c, q); });
    expect_kind_parity("mqp", [&](WhyNotEngine& e) { e.ModifyQuery(c, q); });
    expect_kind_parity("sr", [&](WhyNotEngine& e) { e.SafeRegion(q); });
    expect_kind_parity("mwq", [&](WhyNotEngine& e) { e.ModifyBoth(c, q); });
    expect_kind_parity("mwq_approx",
                       [&](WhyNotEngine& e) { e.ModifyBothApprox(c, q); });
  }
}

// Each snapshot publish (construction, AddProduct, RemoveProduct) freezes
// exactly one packed image per tree it rebuilds; the dynamic-only engine
// never freezes.
TEST(PackedEngineTest, FreezeAccounting) {
  const Dataset data = GenerateCarDb(400, 9401);
  MetricsRegistry& registry = MetricsRegistry::Default();

  QueryStats before = registry.CaptureQueryStats();
  WhyNotEngine packed_engine(GenerateCarDb(400, 9401), PackedOptions(true));
  EXPECT_EQ((registry.CaptureQueryStats() - before).packed_freezes, 1u);

  before = registry.CaptureQueryStats();
  const size_t new_id = packed_engine.AddProduct(data.points[0]);
  EXPECT_EQ((registry.CaptureQueryStats() - before).packed_freezes, 1u);

  before = registry.CaptureQueryStats();
  EXPECT_TRUE(packed_engine.RemoveProduct(new_id));
  EXPECT_EQ((registry.CaptureQueryStats() - before).packed_freezes, 1u);

  before = registry.CaptureQueryStats();
  WhyNotEngine bichromatic(GenerateCarDb(300, 9402), GenerateCarDb(200, 9403),
                           PackedOptions(true));
  EXPECT_EQ((registry.CaptureQueryStats() - before).packed_freezes, 2u);

  before = registry.CaptureQueryStats();
  WhyNotEngine plain_engine(GenerateCarDb(400, 9401), PackedOptions(false));
  plain_engine.ReverseSkyline(data.points[1]);
  const QueryStats plain_delta = registry.CaptureQueryStats() - before;
  EXPECT_EQ(plain_delta.packed_freezes, 0u);
  EXPECT_EQ(plain_delta.packed_node_reads, 0u);
}

// Mutations re-freeze the packed image, so answers stay identical across
// an add/remove cycle.
TEST(PackedEngineTest, MutationsKeepParity) {
  const Dataset data = GenerateCarDb(500, 9501);
  WhyNotEngine packed_engine(GenerateCarDb(500, 9501), PackedOptions(true));
  WhyNotEngine plain_engine(GenerateCarDb(500, 9501), PackedOptions(false));
  const std::vector<Point> queries = FreshQueries(data, 5, 9502);
  auto expect_parity = [&] {
    for (const Point& q : queries) {
      EXPECT_EQ(packed_engine.ReverseSkyline(q),
                plain_engine.ReverseSkyline(q));
    }
  };
  expect_parity();

  Point added = data.points[3];
  added[0] *= 0.97;
  added[1] *= 1.03;
  const size_t id_a = packed_engine.AddProduct(added);
  const size_t id_b = plain_engine.AddProduct(added);
  ASSERT_EQ(id_a, id_b);
  expect_parity();

  ASSERT_TRUE(packed_engine.RemoveProduct(7));
  ASSERT_TRUE(plain_engine.RemoveProduct(7));
  expect_parity();
}

// Eight threads hammer a packed snapshot while the engine mutates
// underneath; every answer must match the dynamic-path engine's answer
// for the pre-mutation state (snapshot isolation + read-path parity).
TEST(PackedEngineTest, ConcurrentSnapshotQueriesMatch) {
  const Dataset data = GenerateCarDb(600, 9601);
  WhyNotEngineOptions packed_options = PackedOptions(true);
  packed_options.num_threads = 2;
  WhyNotEngine packed_engine(GenerateCarDb(600, 9601), packed_options);
  WhyNotEngine plain_engine(GenerateCarDb(600, 9601), PackedOptions(false));

  const std::vector<Point> queries = FreshQueries(data, 24, 9602);
  std::vector<std::vector<size_t>> expected;
  expected.reserve(queries.size());
  for (const Point& q : queries) {
    expected.push_back(plain_engine.ReverseSkyline(q));
  }

  const EngineSnapshot snapshot = packed_engine.Snapshot();
  // Mutate after taking the snapshot: the snapshot must keep answering
  // against the frozen pre-mutation image.
  // wnrs-lint: allow-discard(the mutation itself is the point; the
  // snapshot under test must not observe it)
  (void)packed_engine.AddProduct(data.points[11]);

  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < queries.size();
           i += kThreads) {
        if (snapshot.ReverseSkyline(queries[i]) != expected[i]) {
          mismatches.fetch_add(1);
        }
        const size_t c = (i * 131) % 600;
        if (snapshot.IsReverseSkylineMember(c, queries[i]) !=
            plain_engine.IsReverseSkylineMember(c, queries[i])) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace wnrs
