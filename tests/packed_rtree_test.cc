#include "index/packed_rtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "data/generators.h"
#include "geometry/point.h"
#include "geometry/rectangle.h"
#include "index/bulk_load.h"
#include "index/rtree.h"
#include "reverse_skyline/bbrs.h"
#include "reverse_skyline/window_query.h"
#include "skyline/bbs.h"

namespace wnrs {
namespace {

std::vector<Point> RandomPoints(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  points.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    Point p(dims);
    for (size_t i = 0; i < dims; ++i) p[i] = rng.NextDouble(0, 100);
    points.push_back(std::move(p));
  }
  return points;
}

RStarTree BuildTree(const std::vector<Point>& points, size_t dims) {
  RStarTree tree(dims);
  for (size_t i = 0; i < points.size(); ++i) {
    tree.Insert(points[i], static_cast<RStarTree::Id>(i));
  }
  return tree;
}

/// Runs the dynamic and packed form of one query and asserts bit-identical
/// results AND identical node-read counts — the freeze contract.
template <typename DynFn, typename PackFn>
void ExpectParity(RStarTree& tree, PackedRTree& packed, const DynFn& dyn,
                  const PackFn& pack, const std::string& what) {
  tree.ResetStats();
  packed.ResetStats();
  const auto dyn_out = dyn();
  const uint64_t dyn_reads = tree.stats().node_reads;
  const auto packed_out = pack();
  const uint64_t packed_reads = packed.stats().node_reads;
  EXPECT_EQ(dyn_out, packed_out) << what;
  EXPECT_EQ(dyn_reads, packed_reads) << what << " node reads";
}

/// WindowSkyline on both trees: ExpectParity's ids and node reads, plus
/// identical window.* work counters. The packed frontier scan counts a
/// dominance test per frontier point up to the first dominator, exactly
/// like the dynamic scan.
void ExpectWindowSkylineParity(RStarTree& tree, PackedRTree& packed,
                               const Point& c, const Point& q,
                               const Point& origin,
                               std::optional<RStarTree::Id> exclude,
                               const std::string& what) {
  MetricsRegistry& registry = MetricsRegistry::Default();
  QueryStats before;
  QueryStats dyn;
  QueryStats pack;
  ExpectParity(
      tree, packed,
      [&] {
        before = registry.CaptureQueryStats();
        std::vector<RStarTree::Id> out =
            WindowSkyline(tree, c, q, origin, exclude);
        dyn = registry.CaptureQueryStats() - before;
        return out;
      },
      [&] {
        before = registry.CaptureQueryStats();
        std::vector<RStarTree::Id> out =
            WindowSkyline(packed, c, q, origin, exclude);
        pack = registry.CaptureQueryStats() - before;
        return out;
      },
      what);
  EXPECT_EQ(dyn.window_dominance_tests, pack.window_dominance_tests) << what;
  EXPECT_EQ(dyn.window_heap_pops, pack.window_heap_pops) << what;
  EXPECT_EQ(dyn.window_pruned_entries, pack.window_pruned_entries) << what;
}

TEST(PackedRTreeTest, EmptyTreeFreezes) {
  RStarTree tree(2);
  PackedRTree packed = PackedRTree::Freeze(tree);
  EXPECT_EQ(packed.dims(), 2u);
  EXPECT_EQ(packed.size(), 0u);
  EXPECT_EQ(packed.height(), 1u);
  // Mirrors the dynamic root: one empty leaf always exists.
  EXPECT_EQ(packed.num_nodes(), 1u);
  EXPECT_EQ(packed.num_entries(), 0u);
  EXPECT_TRUE(packed.node(packed.root()).is_leaf);
  EXPECT_TRUE(packed.CheckInvariants().ok())
      << packed.CheckInvariants().ToString();
  EXPECT_TRUE(
      packed.RangeQueryIds(Rectangle(Point({0, 0}), Point({1, 1}))).empty());
  EXPECT_TRUE(BbsSkyline(packed).empty());
}

TEST(PackedRTreeTest, SingleLeafMatchesDynamic) {
  const std::vector<Point> points = RandomPoints(5, 2, 11);
  RStarTree tree = BuildTree(points, 2);
  ASSERT_EQ(tree.height(), 1u);
  PackedRTree packed = PackedRTree::Freeze(tree);
  EXPECT_EQ(packed.size(), 5u);
  EXPECT_EQ(packed.num_nodes(), 1u);
  EXPECT_TRUE(packed.CheckInvariants().ok())
      << packed.CheckInvariants().ToString();
  const Rectangle all(Point({-1, -1}), Point({101, 101}));
  EXPECT_EQ(packed.RangeQueryIds(all), tree.RangeQueryIds(all));
  EXPECT_EQ(BbsSkyline(packed), BbsSkyline(tree));
}

TEST(PackedRTreeTest, FreezePreservesShape) {
  const std::vector<Point> points = RandomPoints(2000, 2, 21);
  RStarTree tree = BuildTree(points, 2);
  PackedRTree packed = PackedRTree::Freeze(tree);
  EXPECT_EQ(packed.dims(), tree.dims());
  EXPECT_EQ(packed.size(), tree.size());
  EXPECT_EQ(packed.height(), tree.height());
  EXPECT_GE(packed.num_entries(), packed.size());
  ASSERT_TRUE(packed.CheckInvariants().ok())
      << packed.CheckInvariants().ToString();
}

TEST(PackedRTreeTest, MoveSemantics) {
  RStarTree tree = BuildTree(RandomPoints(300, 2, 31), 2);
  PackedRTree packed = PackedRTree::Freeze(tree);
  const Rectangle window(Point({10, 10}), Point({60, 60}));
  const std::vector<PackedRTree::Id> expected = packed.RangeQueryIds(window);
  PackedRTree moved = std::move(packed);
  EXPECT_EQ(moved.size(), 300u);
  EXPECT_EQ(moved.RangeQueryIds(window), expected);
  EXPECT_TRUE(moved.CheckInvariants().ok());
}

// Pins the RangeQueryIds sorted-output contract on both paths — the
// engine's CustomersInRange relies on it instead of re-sorting.
TEST(PackedRTreeTest, RangeQueryIdsSortedAndEquivalent) {
  const std::vector<Point> points = RandomPoints(1500, 2, 41);
  RStarTree tree = BuildTree(points, 2);
  PackedRTree packed = PackedRTree::Freeze(tree);
  Rng rng(42);
  for (int trial = 0; trial < 40; ++trial) {
    const double x0 = rng.NextDouble(0, 90);
    const double y0 = rng.NextDouble(0, 90);
    const Rectangle window(Point({x0, y0}),
                           Point({x0 + rng.NextDouble(1, 30),
                                  y0 + rng.NextDouble(1, 30)}));
    ExpectParity(
        tree, packed, [&] { return tree.RangeQueryIds(window); },
        [&] { return packed.RangeQueryIds(window); }, "range query");
    const std::vector<RStarTree::Id> ids = tree.RangeQueryIds(window);
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  }
}

class PackedBbsParityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PackedBbsParityTest, SkylineIdsAndNodeReadsMatch) {
  const size_t n = GetParam();
  const std::vector<Point> points = RandomPoints(n, 2, 100 + n);
  RStarTree tree = BuildTree(points, 2);
  PackedRTree packed = PackedRTree::Freeze(tree);
  ExpectParity(
      tree, packed, [&] { return BbsSkyline(tree); },
      [&] { return BbsSkyline(packed); }, "bbs skyline");
}

INSTANTIATE_TEST_SUITE_P(Sizes, PackedBbsParityTest,
                         ::testing::Values(1, 10, 100, 1000, 5000));

TEST(PackedRTreeTest, DynamicSkylineParityFuzzed) {
  const std::vector<Point> points = RandomPoints(1200, 2, 51);
  RStarTree tree = BuildTree(points, 2);
  PackedRTree packed = PackedRTree::Freeze(tree);
  Rng rng(52);
  for (int trial = 0; trial < 25; ++trial) {
    const Point origin(
        {rng.NextDouble(0, 100), rng.NextDouble(0, 100)});
    std::optional<RStarTree::Id> exclude;
    if (trial % 3 == 0) {
      exclude = static_cast<RStarTree::Id>(rng.NextUint64(points.size()));
    }
    ExpectParity(
        tree, packed,
        [&] { return BbsDynamicSkyline(tree, origin, exclude); },
        [&] { return BbsDynamicSkyline(packed, origin, exclude); },
        "dynamic skyline");
  }
}

TEST(PackedRTreeTest, WindowProbesParityFuzzed) {
  const std::vector<Point> points = RandomPoints(1000, 2, 61);
  RStarTree tree = BuildTree(points, 2);
  PackedRTree packed = PackedRTree::Freeze(tree);
  Rng rng(62);
  for (int trial = 0; trial < 30; ++trial) {
    const Point& c = points[rng.NextUint64(points.size())];
    const Point q({rng.NextDouble(0, 100), rng.NextDouble(0, 100)});
    std::optional<RStarTree::Id> exclude;
    if (trial % 2 == 0) {
      exclude = static_cast<RStarTree::Id>(rng.NextUint64(points.size()));
    }
    // WindowQuery emits in traversal order; the structure-preserving
    // freeze makes even that order identical.
    ExpectParity(
        tree, packed, [&] { return WindowQuery(tree, c, q, exclude); },
        [&] { return WindowQuery(packed, c, q, exclude); }, "window query");
    tree.ResetStats();
    packed.ResetStats();
    const bool dyn_empty = WindowEmpty(tree, c, q, exclude);
    const uint64_t dyn_reads = tree.stats().node_reads;
    const bool packed_empty = WindowEmpty(packed, c, q, exclude);
    EXPECT_EQ(dyn_empty, packed_empty);
    EXPECT_EQ(dyn_reads, packed.stats().node_reads) << "window empty reads";
    ExpectWindowSkylineParity(tree, packed, c, q, /*origin=*/q, exclude,
                              "window skyline (origin q)");
    ExpectWindowSkylineParity(tree, packed, c, q, /*origin=*/c, exclude,
                              "window skyline (origin c)");
  }
}

TEST(PackedRTreeTest, GlobalSkylineAndBbrsParityFuzzed) {
  const Dataset data = GenerateCarDb(1500, 71);
  RStarTree tree = BuildTree(data.points, data.dims);
  PackedRTree packed = PackedRTree::Freeze(tree);
  Rng rng(72);
  for (int trial = 0; trial < 12; ++trial) {
    const Point& q = data.points[rng.NextUint64(data.size())];
    std::optional<RStarTree::Id> exclude;
    if (trial % 2 == 0) {
      exclude = static_cast<RStarTree::Id>(rng.NextUint64(data.size()));
    }
    ExpectParity(
        tree, packed,
        [&] { return GlobalSkylineCandidates(tree, q, exclude); },
        [&] { return GlobalSkylineCandidates(packed, q, exclude); },
        "global skyline");
    ExpectParity(
        tree, packed, [&] { return BbrsReverseSkyline(tree, q); },
        [&] { return BbrsReverseSkyline(packed, q); }, "bbrs");
  }
}

TEST(PackedRTreeTest, BichromaticBbrsParityFuzzed) {
  const Dataset customers = GenerateCarDb(900, 81);
  const Dataset products = GenerateCarDb(1100, 82);
  RStarTree ctree = BuildTree(customers.points, customers.dims);
  RStarTree ptree = BuildTree(products.points, products.dims);
  PackedRTree cpacked = PackedRTree::Freeze(ctree);
  PackedRTree ppacked = PackedRTree::Freeze(ptree);
  Rng rng(83);
  for (int trial = 0; trial < 8; ++trial) {
    const Point& q = products.points[rng.NextUint64(products.size())];
    ctree.ResetStats();
    ptree.ResetStats();
    cpacked.ResetStats();
    ppacked.ResetStats();
    const auto dyn = BbrsReverseSkylineBichromatic(ctree, ptree, q);
    const uint64_t dyn_reads =
        ctree.stats().node_reads + ptree.stats().node_reads;
    const auto pck = BbrsReverseSkylineBichromatic(cpacked, ppacked, q);
    const uint64_t pck_reads =
        cpacked.stats().node_reads + ppacked.stats().node_reads;
    EXPECT_EQ(dyn, pck);
    EXPECT_EQ(dyn_reads, pck_reads);
  }
}

TEST(PackedRTreeTest, BichromaticSharedRelationParity) {
  const Dataset data = GenerateCarDb(800, 91);
  RStarTree ctree = BuildTree(data.points, data.dims);
  RStarTree ptree = BuildTree(data.points, data.dims);
  PackedRTree cpacked = PackedRTree::Freeze(ctree);
  PackedRTree ppacked = PackedRTree::Freeze(ptree);
  Rng rng(92);
  for (int trial = 0; trial < 6; ++trial) {
    const Point& q = data.points[rng.NextUint64(data.size())];
    const auto dyn = BbrsReverseSkylineBichromatic(
        ctree, ptree, q, /*shared_relation=*/true);
    const auto pck = BbrsReverseSkylineBichromatic(
        cpacked, ppacked, q, /*shared_relation=*/true);
    EXPECT_EQ(dyn, pck);
    // Shared-relation bichromatic agrees with monochromatic BBRS.
    EXPECT_EQ(pck, BbrsReverseSkyline(ppacked, q));
  }
}

// Clone() is structure-preserving, so a freeze of the clone must be
// indistinguishable from a freeze of the original — the property the
// engine's copy-on-write mutations lean on.
TEST(PackedRTreeTest, PostCloneFreezeParity) {
  const std::vector<Point> points = RandomPoints(1000, 2, 101);
  RStarTree tree = BuildTree(points, 2);
  RStarTree clone = tree.Clone();
  PackedRTree packed = PackedRTree::Freeze(tree);
  PackedRTree packed_clone = PackedRTree::Freeze(clone);
  EXPECT_EQ(packed.num_nodes(), packed_clone.num_nodes());
  EXPECT_EQ(packed.num_entries(), packed_clone.num_entries());
  Rng rng(102);
  for (int trial = 0; trial < 10; ++trial) {
    const Point q({rng.NextDouble(0, 100), rng.NextDouble(0, 100)});
    packed.ResetStats();
    packed_clone.ResetStats();
    EXPECT_EQ(BbsDynamicSkyline(packed, q), BbsDynamicSkyline(packed_clone, q));
    EXPECT_EQ(packed.stats().node_reads, packed_clone.stats().node_reads);
  }
  // A mutation of the clone does not disturb the frozen image.
  clone.Insert(Point({50, 50}), 7777);
  EXPECT_EQ(packed_clone.size(), 1000u);
  EXPECT_TRUE(packed_clone.CheckInvariants().ok());
}

class PackedDimsParityTest : public ::testing::TestWithParam<size_t> {};

// Exercises the dimension-templated kernel fast paths (d = 2, 3, 4) and
// the generic fallback (d = 5).
TEST_P(PackedDimsParityTest, ParityAcrossDimensionalities) {
  const size_t dims = GetParam();
  const Dataset data = GenerateAnticorrelated(700, dims, 200 + dims);
  RStarTree tree = BuildTree(data.points, dims);
  PackedRTree packed = PackedRTree::Freeze(tree);
  ASSERT_TRUE(packed.CheckInvariants().ok())
      << packed.CheckInvariants().ToString();
  ExpectParity(
      tree, packed, [&] { return BbsSkyline(tree); },
      [&] { return BbsSkyline(packed); }, "bbs skyline");
  Rng rng(300 + dims);
  for (int trial = 0; trial < 8; ++trial) {
    const Point& q = data.points[rng.NextUint64(data.size())];
    ExpectParity(
        tree, packed, [&] { return BbsDynamicSkyline(tree, q); },
        [&] { return BbsDynamicSkyline(packed, q); }, "dynamic skyline");
    ExpectParity(
        tree, packed, [&] { return BbrsReverseSkyline(tree, q); },
        [&] { return BbrsReverseSkyline(packed, q); }, "bbrs");
    // Anticorrelated windows hold frontiers wider than one kScanBlock, so
    // first hits land past the first block and inside later ones.
    const Point& c = data.points[rng.NextUint64(data.size())];
    ExpectWindowSkylineParity(tree, packed, c, q, /*origin=*/q, std::nullopt,
                              "window skyline (origin q)");
    ExpectWindowSkylineParity(tree, packed, c, q, /*origin=*/c, std::nullopt,
                              "window skyline (origin c)");
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, PackedDimsParityTest,
                         ::testing::Values(2, 3, 4, 5));

TEST(PackedRTreeTest, DuplicateAndDegenerateData) {
  RStarTree tree(2);
  for (int i = 0; i < 120; ++i) tree.Insert(Point({1.0, 1.0}), i);
  PackedRTree packed = PackedRTree::Freeze(tree);
  ASSERT_TRUE(packed.CheckInvariants().ok());
  const Rectangle window(Point({1, 1}), Point({1, 1}));
  EXPECT_EQ(packed.RangeQueryIds(window), tree.RangeQueryIds(window));
  EXPECT_EQ(BbsSkyline(packed), BbsSkyline(tree));
}

TEST(PackedRTreeTest, FreezeRecordsMetrics) {
  RStarTree tree = BuildTree(RandomPoints(500, 2, 111), 2);
  const QueryStats before = MetricsRegistry::Default().CaptureQueryStats();
  PackedRTree packed = PackedRTree::Freeze(tree);
  const QueryStats delta =
      MetricsRegistry::Default().CaptureQueryStats() - before;
  EXPECT_EQ(delta.packed_freezes, 1u);
  EXPECT_GT(delta.packed_freeze_ns, 0u);
  packed.ResetStats();
  const QueryStats q0 = MetricsRegistry::Default().CaptureQueryStats();
  BbsSkyline(packed);
  const QueryStats q1 = MetricsRegistry::Default().CaptureQueryStats() - q0;
  // Packed node reads feed both the shared rtree counter and their own.
  EXPECT_EQ(q1.packed_node_reads, packed.stats().node_reads);
  EXPECT_EQ(q1.rtree_node_reads, packed.stats().node_reads);
}

// ---------------------------------------------------------------------------
// Thaw: the inverse of Freeze.

/// Byte-level equality of two packed images: shape scalars, then the
/// node arena, the coordinate planes (NaN padding included) and the refs
/// slab compared as raw bytes.
void ExpectSlabBytesIdentical(const PackedRTree& a, const PackedRTree& b) {
  ASSERT_EQ(a.dims(), b.dims());
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.height(), b.height());
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_entries(), b.num_entries());
  ASSERT_EQ(a.max_node_entries(), b.max_node_entries());
  ASSERT_EQ(a.plane_stride(), b.plane_stride());
  EXPECT_EQ(std::memcmp(a.nodes_data(), b.nodes_data(),
                        a.num_nodes() * sizeof(PackedRTree::Node)),
            0)
      << "node arena";
  EXPECT_EQ(std::memcmp(a.planes_data(), b.planes_data(),
                        2 * a.dims() * a.plane_stride() * sizeof(double)),
            0)
      << "coordinate planes";
  if (a.num_entries() != 0) {
    EXPECT_EQ(std::memcmp(a.refs_data(), b.refs_data(),
                          a.num_entries() * sizeof(int64_t)),
              0)
        << "refs slab";
  }
}

/// Thaws `tree`'s frozen image under the tree's own knobs and requires
/// the thaw to refreeze to the same bytes with the same fan-out.
void ExpectThawRoundTrips(const RStarTree& tree, const std::string& what) {
  SCOPED_TRACE(what);
  const PackedRTree packed = PackedRTree::Freeze(tree);
  Result<RStarTree> thawed = packed.Thaw(tree.options());
  ASSERT_TRUE(thawed.ok()) << thawed.status().ToString();
  EXPECT_EQ(thawed->size(), tree.size());
  EXPECT_EQ(thawed->height(), tree.height());
  EXPECT_EQ(thawed->max_entries(), tree.max_entries());
  EXPECT_EQ(thawed->min_entries(), tree.min_entries());
  ASSERT_TRUE(thawed->CheckInvariants().ok());
  ExpectSlabBytesIdentical(PackedRTree::Freeze(*thawed), packed);
}

class PackedThawTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PackedThawTest, FreezeOfThawIsByteIdentical) {
  const size_t dims = GetParam();
  const std::vector<Point> points = RandomPoints(1500, dims, 400 + dims);

  ExpectThawRoundTrips(RStarTree(dims), "empty");
  ExpectThawRoundTrips(BuildTree(RandomPoints(3, dims, 401), dims),
                       "single leaf");
  ExpectThawRoundTrips(BulkLoadPoints(dims, points), "bulk-loaded");

  // Insertion past the first overflow exercises both the R* split and
  // forced reinsertion; the counters prove they ran.
  const QueryStats before = MetricsRegistry::Default().CaptureQueryStats();
  RStarTree inserted = BuildTree(points, dims);
  const QueryStats built =
      MetricsRegistry::Default().CaptureQueryStats() - before;
  EXPECT_GT(built.rtree_splits, 0u);
  EXPECT_GT(built.rtree_reinserts, 0u);
  ExpectThawRoundTrips(inserted, "insertion-built");

  // Deleting most entries condenses nodes and shrinks the tree.
  for (size_t i = 0; i < points.size(); i += 10) {
    for (size_t k = i; k < i + 9 && k < points.size(); ++k) {
      ASSERT_TRUE(inserted.Delete(Rectangle::FromPoint(points[k]),
                                  static_cast<RStarTree::Id>(k)));
    }
  }
  ExpectThawRoundTrips(inserted, "delete-condensed");
}

TEST_P(PackedThawTest, ThawMutatesLikeTheSourceTree) {
  const size_t dims = GetParam();
  const std::vector<Point> points = RandomPoints(1200, dims, 500 + dims);
  RStarTree source = BulkLoadPoints(dims, points);
  Result<RStarTree> thawed =
      PackedRTree::Freeze(source).Thaw(source.options());
  ASSERT_TRUE(thawed.ok()) << thawed.status().ToString();

  // The same interleaving of inserts and deletes on both trees; the
  // trees must split, reinsert and condense identically.
  const std::vector<Point> extra = RandomPoints(600, dims, 600 + dims);
  Rng rng(700 + dims);
  for (size_t k = 0; k < extra.size(); ++k) {
    const auto id = static_cast<RStarTree::Id>(points.size() + k);
    source.Insert(extra[k], id);
    thawed->Insert(extra[k], id);
    if (k % 2 == 0) {
      const size_t victim = rng.NextUint64(points.size());
      const Rectangle mbr = Rectangle::FromPoint(points[victim]);
      const auto vid = static_cast<RStarTree::Id>(victim);
      EXPECT_EQ(source.Delete(mbr, vid), thawed->Delete(mbr, vid));
    }
  }
  ASSERT_TRUE(thawed->CheckInvariants().ok());
  ExpectSlabBytesIdentical(PackedRTree::Freeze(*thawed),
                           PackedRTree::Freeze(source));
}

INSTANTIATE_TEST_SUITE_P(Dims, PackedThawTest,
                         ::testing::Values(1, 2, 3, 5));

TEST(PackedRTreeTest, ThawRejectsShapesTheKnobsCannotHold) {
  const std::vector<Point> points = RandomPoints(2000, 2, 801);
  const RStarTree tree = BulkLoadPoints(2, points);
  const PackedRTree packed = PackedRTree::Freeze(tree);

  // The same image thawed under a smaller page holds over-full nodes.
  RTreeOptions small = tree.options();
  small.page_size_bytes = 512;
  Result<RStarTree> r = packed.Thaw(small);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("[tree-shape]"), std::string::npos)
      << r.status().ToString();

  // A slab frozen from a tree with larger pages has nodes over the
  // default fan-out.
  RTreeOptions big;
  big.page_size_bytes = 4096;
  const PackedRTree wide =
      PackedRTree::Freeze(BulkLoadPoints(2, points, big));
  r = wide.Thaw(RTreeOptions());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("overfull"), std::string::npos)
      << r.status().ToString();

  // Knobs the RStarTree constructor would abort on come back as a
  // status instead.
  RTreeOptions bad_fill = tree.options();
  bad_fill.min_fill_ratio = 0.9;
  r = packed.Thaw(bad_fill);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("[tree-shape]"), std::string::npos);
}

}  // namespace
}  // namespace wnrs
