// Seeded-corruption tests for the deep invariant validators: every
// deliberately corrupted structure or answer must be rejected with a
// Status whose message names the violated invariant in [brackets], and
// every healthy one must pass. These pin the contract that
// WhyNotEngineOptions::paranoid_checks relies on — a validator that stays
// silent on corruption would turn paranoid mode into a no-op.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/validate.h"
#include "data/generators.h"
#include "geometry/point.h"
#include "geometry/rectangle.h"
#include "index/packed_rtree.h"
#include "index/rtree.h"
#include "index/validate.h"

namespace wnrs {
namespace {

testing::AssertionResult MessageNames(const Status& s,
                                      const std::string& invariant) {
  if (s.ok()) {
    return testing::AssertionFailure()
           << "status is OK but corruption should have been rejected with "
           << invariant;
  }
  if (s.message().find(invariant) == std::string::npos) {
    return testing::AssertionFailure()
           << "status does not name " << invariant << ": " << s.ToString();
  }
  return testing::AssertionSuccess();
}

RStarTree BuildCarDbTree(size_t n, uint64_t seed) {
  const Dataset ds = GenerateCarDb(n, seed);
  RStarTree tree(2);
  for (size_t id = 0; id < ds.points.size(); ++id) {
    tree.Insert(ds.points[id], static_cast<RStarTree::Id>(id));
  }
  return tree;
}

RStarTree::Node* MutableRoot(const RStarTree& tree) {
  return const_cast<RStarTree::Node*>(tree.root());
}

/// First leaf on the leftmost path; the tests corrupt leaves so no child
/// subtrees are orphaned when entries are duplicated or erased.
RStarTree::Node* LeftmostLeaf(const RStarTree& tree) {
  RStarTree::Node* node = MutableRoot(tree);
  while (!node->is_leaf) node = node->entries.front().child;
  return node;
}

Rectangle UnionOfEntries(const RStarTree::Node& node) {
  Rectangle mbr = node.entries.front().mbr;
  for (size_t i = 1; i < node.entries.size(); ++i) {
    mbr = mbr.BoundingUnion(node.entries[i].mbr);
  }
  return mbr;
}

/// After shrinking a node, re-tighten every ancestor entry MBR so the
/// only violated invariant is the one the test intends to seed.
void RetightenAncestors(RStarTree::Node* node) {
  while (node->parent != nullptr) {
    RStarTree::Node* parent = node->parent;
    for (RStarTree::Entry& e : parent->entries) {
      if (e.child == node) {
        e.mbr = UnionOfEntries(*node);
        break;
      }
    }
    node = parent;
  }
}

AnswerValidationInput MakeInput(const EngineSnapshot& snap) {
  AnswerValidationInput in;
  in.products_tree = &snap.product_tree();
  in.customers = &snap.customers().points;
  in.shared_relation = snap.shared_relation();
  in.universe = snap.universe();
  in.cost_model = &snap.cost_model();
  return in;
}

// ---------------------------------------------------------------------------
// Index-layer validators.

TEST(ValidateTreeTest, HealthyTreeAndPackedImagePass) {
  const RStarTree tree = BuildCarDbTree(400, 7);
  ASSERT_GE(tree.height(), 2u);
  EXPECT_TRUE(ValidateTree(tree).ok()) << ValidateTree(tree).ToString();

  const PackedRTree packed = PackedRTree::Freeze(tree);
  EXPECT_TRUE(ValidatePacked(packed).ok())
      << ValidatePacked(packed).ToString();
  EXPECT_TRUE(ValidatePackedMatchesDynamic(packed, tree).ok())
      << ValidatePackedMatchesDynamic(packed, tree).ToString();
}

TEST(ValidateTreeTest, EmptyTreePasses) {
  const RStarTree tree(2);
  EXPECT_TRUE(ValidateTree(tree).ok()) << ValidateTree(tree).ToString();
}

TEST(ValidateTreeTest, InflatedChildMbrIsRejected) {
  RStarTree tree = BuildCarDbTree(400, 7);
  RStarTree::Node* root = MutableRoot(tree);
  ASSERT_FALSE(root->is_leaf);

  const Rectangle original = root->entries.front().mbr;
  Point inflated_hi = original.hi();
  inflated_hi[0] += 1000.0;
  root->entries.front().mbr = Rectangle(original.lo(), inflated_hi);

  const Status s = ValidateTree(tree);
  EXPECT_TRUE(MessageNames(s, "[mbr-containment]"));
  EXPECT_NE(s.message().find("inflated"), std::string::npos) << s.ToString();

  root->entries.front().mbr = original;
  EXPECT_TRUE(ValidateTree(tree).ok());
}

TEST(ValidateTreeTest, ShrunkenChildMbrIsRejected) {
  RStarTree tree = BuildCarDbTree(400, 7);
  RStarTree::Node* root = MutableRoot(tree);
  ASSERT_FALSE(root->is_leaf);

  const Rectangle original = root->entries.front().mbr;
  root->entries.front().mbr =
      Rectangle::FromPoint(original.Center());

  EXPECT_TRUE(MessageNames(ValidateTree(tree), "[mbr-containment]"));

  root->entries.front().mbr = original;
  EXPECT_TRUE(ValidateTree(tree).ok());
}

TEST(ValidateTreeTest, OverfullNodeIsRejected) {
  RStarTree tree = BuildCarDbTree(400, 7);
  RStarTree::Node* leaf = LeftmostLeaf(tree);
  const size_t original_size = leaf->entries.size();

  // Duplicating an existing entry keeps every ancestor MBR tight, so the
  // fan-out bound is the first (and only) structural check to fire.
  while (leaf->entries.size() <= tree.max_entries()) {
    leaf->entries.push_back(leaf->entries.front());
  }

  const Status s = ValidateTree(tree);
  EXPECT_TRUE(MessageNames(s, "[fanout-bounds]"));
  EXPECT_NE(s.message().find("overfull"), std::string::npos) << s.ToString();

  leaf->entries.resize(original_size);
  EXPECT_TRUE(ValidateTree(tree).ok());
}

TEST(ValidateTreeTest, UnderfullNodeIsRejected) {
  RStarTree tree = BuildCarDbTree(400, 7);
  RStarTree::Node* leaf = LeftmostLeaf(tree);
  ASSERT_NE(leaf->parent, nullptr) << "need height >= 2 for a non-root leaf";
  ASSERT_GE(tree.min_entries(), 2u);

  leaf->entries.resize(tree.min_entries() - 1);
  RetightenAncestors(leaf);

  const Status s = ValidateTree(tree);
  EXPECT_TRUE(MessageNames(s, "[fanout-bounds]"));
  EXPECT_NE(s.message().find("underfull"), std::string::npos) << s.ToString();
}

TEST(ValidateTreeTest, BrokenParentLinkIsRejected) {
  RStarTree tree = BuildCarDbTree(400, 7);
  RStarTree::Node* leaf = LeftmostLeaf(tree);
  RStarTree::Node* real_parent = leaf->parent;
  ASSERT_NE(real_parent, nullptr);

  leaf->parent = leaf;  // Any wrong pointer will do.
  EXPECT_TRUE(MessageNames(ValidateTree(tree), "[parent-links]"));

  leaf->parent = real_parent;
  EXPECT_TRUE(ValidateTree(tree).ok());
}

TEST(ValidatePackedTest, MismatchedSlabIsRejected) {
  RStarTree tree = BuildCarDbTree(400, 7);
  const PackedRTree packed = PackedRTree::Freeze(tree);
  ASSERT_TRUE(ValidatePackedMatchesDynamic(packed, tree).ok());

  // The image was frozen from an earlier tree state; any later mutation
  // must be detected.
  tree.Insert(Point({12345.0, 54321.0}), 400);
  EXPECT_TRUE(
      MessageNames(ValidatePackedMatchesDynamic(packed, tree),
                   "[packed-parity]"));
}

TEST(ValidatePackedTest, BitLevelMbrDriftIsRejected) {
  RStarTree tree = BuildCarDbTree(400, 7);
  const PackedRTree packed = PackedRTree::Freeze(tree);

  // Same shape, same size — one leaf MBR nudged by half a unit. Parity is
  // bit-identical doubles, so even a tiny drift must be rejected.
  RStarTree::Node* leaf = LeftmostLeaf(tree);
  const Rectangle original = leaf->entries.front().mbr;
  Point shifted_lo = original.lo();
  shifted_lo[0] += 0.5;
  leaf->entries.front().mbr = Rectangle(shifted_lo, original.hi());

  EXPECT_TRUE(
      MessageNames(ValidatePackedMatchesDynamic(packed, tree),
                   "[packed-parity]"));

  leaf->entries.front().mbr = original;
  EXPECT_TRUE(ValidatePackedMatchesDynamic(packed, tree).ok());
}

TEST(ValidatePackedTest, SlabMustIndexExactlyTheLivePoints) {
  const std::vector<Point> points = {Point({1, 1}), Point({2, 3}),
                                     Point({4, 2})};
  auto freeze = [](const std::vector<std::pair<Point, RStarTree::Id>>& es) {
    RStarTree tree(2);
    for (const auto& [p, id] : es) tree.Insert(p, id);
    return PackedRTree::Freeze(tree);
  };
  const PackedRTree all =
      freeze({{points[0], 0}, {points[1], 1}, {points[2], 2}});
  EXPECT_TRUE(ValidatePackedMatchesPoints(all, points, {}).ok());

  // One entry too many for the live count, and the wrong dimensionality.
  EXPECT_TRUE(MessageNames(
      ValidatePackedMatchesPoints(all, points, {false, true}), "[tree-shape]"));
  EXPECT_TRUE(MessageNames(
      ValidatePackedMatchesPoints(all, {Point({1}), Point({2}), Point({4})},
                                  {}),
      "[tree-shape]"));

  // Right count, wrong ids: a tombstoned id, an id past the data, an id
  // indexed twice, and an MBR that is not its point.
  const std::vector<bool> third_removed = {false, false, true};
  EXPECT_TRUE(MessageNames(
      ValidatePackedMatchesPoints(freeze({{points[0], 0}, {points[2], 2}}),
                                  points, third_removed),
      "[packed-parity]"));
  EXPECT_TRUE(MessageNames(
      ValidatePackedMatchesPoints(freeze({{points[0], 0}, {points[1], 7}}),
                                  points, third_removed),
      "[packed-parity]"));
  EXPECT_TRUE(MessageNames(
      ValidatePackedMatchesPoints(freeze({{points[0], 0}, {points[0], 0}}),
                                  points, third_removed),
      "[packed-parity]"));
  EXPECT_TRUE(MessageNames(
      ValidatePackedMatchesPoints(freeze({{points[0], 0}, {points[0], 1}}),
                                  points, third_removed),
      "[packed-parity]"));
  EXPECT_TRUE(ValidatePackedMatchesPoints(
                  freeze({{points[1], 1}, {points[0], 0}}), points,
                  third_removed)
                  .ok());
}

// ---------------------------------------------------------------------------
// Core-layer validators, over the paper's worked example (q = (8.5, 55),
// RSL(q) = {pt2, pt3, pt4, pt6, pt8}, c1 = index 0 is the why-not
// customer).

class AnswerValidateTest : public ::testing::Test {
 protected:
  AnswerValidateTest()
      : engine_(PaperExampleDataset()),
        snap_(engine_.Snapshot()),
        q_(PaperExampleQuery()),
        in_(MakeInput(snap_)),
        rsl_(engine_.ReverseSkyline(q_)) {}

  static constexpr size_t kWhyNot = 0;  // c1 is not in RSL(q).

  WhyNotEngine engine_;
  EngineSnapshot snap_;
  Point q_;
  AnswerValidationInput in_;
  std::vector<size_t> rsl_;
};

TEST_F(AnswerValidateTest, GenuineAnswersPass) {
  ASSERT_FALSE(rsl_.empty());
  const SafeRegionResult& sr = engine_.SafeRegion(q_);
  EXPECT_TRUE(ValidateSafeRegion(in_, rsl_, q_, sr).ok())
      << ValidateSafeRegion(in_, rsl_, q_, sr).ToString();

  const MwpResult mwp = engine_.ModifyWhyNot(kWhyNot, q_);
  EXPECT_TRUE(ValidateMwpAnswer(in_, kWhyNot, q_, mwp).ok())
      << ValidateMwpAnswer(in_, kWhyNot, q_, mwp).ToString();

  const MqpResult mqp = engine_.ModifyQuery(kWhyNot, q_);
  EXPECT_TRUE(ValidateMqpAnswer(in_, kWhyNot, q_, mqp).ok())
      << ValidateMqpAnswer(in_, kWhyNot, q_, mqp).ToString();

  const MwqResult mwq = engine_.ModifyBoth(kWhyNot, q_);
  EXPECT_TRUE(ValidateMwqAnswer(in_, kWhyNot, q_, rsl_, mwq).ok())
      << ValidateMwqAnswer(in_, kWhyNot, q_, rsl_, mwq).ToString();
}

TEST_F(AnswerValidateTest, ShrunkenSafeRegionIsRejected) {
  // A region shrunken past q itself violates Lemma 2 (q is always safe).
  SafeRegionResult shrunken;
  Point far = q_;
  far[0] += 1000.0;
  shrunken.region.Add(Rectangle::FromPoint(far));
  EXPECT_TRUE(MessageNames(ValidateSafeRegion(in_, rsl_, q_, shrunken),
                           "[sr-q-membership]"));
}

TEST_F(AnswerValidateTest, InflatedSafeRegionIsRejected) {
  SafeRegionResult inflated = *snap_.SafeRegion(q_);
  ASSERT_TRUE(ValidateSafeRegion(in_, rsl_, q_, inflated).ok());
  // Claiming the whole universe is safe must lose a member at some
  // sampled point (the universe corners are far from every DDR̄).
  inflated.region.Add(in_.universe);
  EXPECT_TRUE(MessageNames(ValidateSafeRegion(in_, rsl_, q_, inflated),
                           "[sr-soundness]"));
}

TEST_F(AnswerValidateTest, OutOfOrderMwpCandidatesAreRejected) {
  MwpResult bad = engine_.ModifyWhyNot(kWhyNot, q_);
  ASSERT_FALSE(bad.already_member);
  ASSERT_GE(bad.candidates.size(), 2u);
  bad.candidates.back().cost = bad.candidates.front().cost - 1.0;
  EXPECT_TRUE(MessageNames(ValidateMwpAnswer(in_, kWhyNot, q_, bad),
                           "[answer-order]"));
}

TEST_F(AnswerValidateTest, WrongMwpCostIsRejected) {
  MwpResult bad = engine_.ModifyWhyNot(kWhyNot, q_);
  ASSERT_FALSE(bad.candidates.empty());
  bad.candidates.front().cost -= 0.125;  // Still ascending; wrong vs beta.
  EXPECT_TRUE(MessageNames(ValidateMwpAnswer(in_, kWhyNot, q_, bad),
                           "[answer-cost]"));
}

TEST_F(AnswerValidateTest, NonMemberMwpCandidateIsRejected) {
  MwpResult bad = engine_.ModifyWhyNot(kWhyNot, q_);
  ASSERT_FALSE(bad.candidates.empty());
  // "Move" the customer to where it already stands — a location known NOT
  // to be a reverse-skyline member — with the honest (zero) beta cost, so
  // only the membership probe can object.
  const Point& c_t = snap_.customers().points[kWhyNot];
  bad.candidates.front().point = c_t;
  bad.candidates.front().cost = 0.0;
  EXPECT_TRUE(MessageNames(ValidateMwpAnswer(in_, kWhyNot, q_, bad),
                           "[mwp-membership]"));
}

TEST_F(AnswerValidateTest, NonMemberMqpCandidateIsRejected) {
  MqpResult bad = engine_.ModifyQuery(kWhyNot, q_);
  ASSERT_FALSE(bad.already_member);
  ASSERT_FALSE(bad.candidates.empty());
  // Leaving q where it is keeps c1 out of RSL(q); honest zero alpha cost.
  bad.candidates.front().point = q_;
  bad.candidates.front().cost = 0.0;
  EXPECT_TRUE(MessageNames(ValidateMqpAnswer(in_, kWhyNot, q_, bad),
                           "[mqp-membership]"));
}

TEST_F(AnswerValidateTest, MwqQueryMoveLosingACustomerIsRejected) {
  MwqResult bad = engine_.ModifyBoth(kWhyNot, q_);
  ASSERT_TRUE(ValidateMwqAnswer(in_, kWhyNot, q_, rsl_, bad).ok());
  ASSERT_FALSE(rsl_.empty());
  // Propose moving q to the worst corner of the universe — far outside
  // SR(q) — with the honestly re-derived alpha cost, so the lost-customer
  // probe is the check that fires.
  const Point worst = in_.universe.hi();
  bad.query_candidates.assign(
      {Candidate{worst, in_.cost_model->QueryMoveCost(q_, worst)}});
  EXPECT_TRUE(MessageNames(ValidateMwqAnswer(in_, kWhyNot, q_, rsl_, bad),
                           "[mwq-no-lost-customer]"));
}

TEST_F(AnswerValidateTest, WrongMwqBestCostIsRejected) {
  MwqResult bad = engine_.ModifyBoth(kWhyNot, q_);
  ASSERT_FALSE(bad.already_member);
  // C2 answers with no reported candidates have no cost to cross-check.
  ASSERT_TRUE(bad.overlap || (!bad.query_candidates.empty() &&
                              !bad.why_not_candidates.empty()));
  bad.best_cost += 1.0;  // Breaks C1's zero-cost rule or C2's cheapest-move.
  EXPECT_TRUE(MessageNames(ValidateMwqAnswer(in_, kWhyNot, q_, rsl_, bad),
                           "[answer-cost]"));
}

}  // namespace
}  // namespace wnrs
