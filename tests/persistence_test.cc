#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "data/generators.h"
#include "index/packed_rtree.h"
#include "index/validate.h"
#include "storage/crc32.h"
#include "storage/engine_store.h"
#include "storage/file_io.h"
#include "storage/packed_slab.h"

namespace wnrs {
namespace {

/// Engine bundle round-trip: an engine reopened from disk must answer
/// every query bit-identically to the engine it was saved from — MWP,
/// MQP, MWQ, reverse skylines, and safe regions, through both the mmap
/// and the buffered slab path. This is the contract the persistence CI
/// job re-proves across processes.
class PersistenceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& d : dirs_) {
      for (const char* f :
           {storage::kBundleDataFile, storage::kBundlePackedFile,
            storage::kBundlePackedCustomerFile}) {
        std::remove((d + "/" + f).c_str());
      }
      std::remove(d.c_str());
    }
  }
  std::string Dir(const std::string& name) {
    dirs_.push_back(::testing::TempDir() + "/" + name);
    return dirs_.back();
  }
  std::vector<std::string> dirs_;
};

void ExpectCandidatesIdentical(const std::vector<Candidate>& a,
                               const std::vector<Candidate>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].point, b[i].point);
    EXPECT_EQ(a[i].cost, b[i].cost);  // Bit-identical, not approximate.
  }
}

/// Drives the same query set against both engines and requires
/// bit-identical answers (the acceptance bar of the storage backend).
void ExpectEnginesAnswerIdentically(const WhyNotEngine& original,
                                    const WhyNotEngine& reopened,
                                    const std::vector<Point>& queries,
                                    const std::vector<size_t>& whos) {
  ASSERT_EQ(original.products().size(), reopened.products().size());
  ASSERT_EQ(original.customers().size(), reopened.customers().size());
  ASSERT_EQ(original.shared_relation(), reopened.shared_relation());
  ASSERT_EQ(original.universe(), reopened.universe());
  for (const Point& q : queries) {
    SCOPED_TRACE(q.ToString());
    EXPECT_EQ(original.ReverseSkyline(q), reopened.ReverseSkyline(q));

    const SafeRegionResult& sr_a = original.SafeRegion(q);
    const SafeRegionResult& sr_b = reopened.SafeRegion(q);
    ASSERT_EQ(sr_a.region.rects().size(), sr_b.region.rects().size());
    for (size_t i = 0; i < sr_a.region.rects().size(); ++i) {
      EXPECT_EQ(sr_a.region.rects()[i], sr_b.region.rects()[i]);
    }
    EXPECT_EQ(sr_a.truncated, sr_b.truncated);

    for (size_t c : whos) {
      SCOPED_TRACE(c);
      const MwpResult mwp_a = original.ModifyWhyNot(c, q);
      const MwpResult mwp_b = reopened.ModifyWhyNot(c, q);
      EXPECT_EQ(mwp_a.already_member, mwp_b.already_member);
      EXPECT_EQ(mwp_a.culprits, mwp_b.culprits);
      ExpectCandidatesIdentical(mwp_a.candidates, mwp_b.candidates);

      const MqpResult mqp_a = original.ModifyQuery(c, q);
      const MqpResult mqp_b = reopened.ModifyQuery(c, q);
      EXPECT_EQ(mqp_a.already_member, mqp_b.already_member);
      EXPECT_EQ(mqp_a.culprits, mqp_b.culprits);
      ExpectCandidatesIdentical(mqp_a.candidates, mqp_b.candidates);

      const MwqResult mwq_a = original.ModifyBoth(c, q);
      const MwqResult mwq_b = reopened.ModifyBoth(c, q);
      EXPECT_EQ(mwq_a.already_member, mwq_b.already_member);
      EXPECT_EQ(mwq_a.overlap, mwq_b.overlap);
      EXPECT_EQ(mwq_a.best_cost, mwq_b.best_cost);
      ExpectCandidatesIdentical(mwq_a.query_candidates,
                                mwq_b.query_candidates);
      ExpectCandidatesIdentical(mwq_a.why_not_candidates,
                                mwq_b.why_not_candidates);
    }
  }
}

std::vector<Point> CarDbQueries() {
  return {Point({14000, 70000}), Point({30000, 30000}),
          Point({8000, 150000}), Point({45000, 10000})};
}

TEST_F(PersistenceTest, SharedRelationRoundTripsAt10k) {
  // The acceptance-bar dataset size: >= 10k products.
  const Dataset ds = GenerateCarDb(10000, 301);
  WhyNotEngineOptions options;
  const WhyNotEngine original(ds, options);
  const std::string dir = Dir("bundle10k");
  ASSERT_TRUE(original.Save(dir).ok());

  // Both slab paths must agree with the in-memory engine.
  for (bool mmap_packed : {true, false}) {
    SCOPED_TRACE(mmap_packed ? "mmap" : "buffered");
    WhyNotEngineOptions open_options;
    open_options.storage.mmap_packed = mmap_packed;
    Result<std::unique_ptr<WhyNotEngine>> reopened =
        WhyNotEngine::Open(dir, open_options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ExpectEnginesAnswerIdentically(original, **reopened, CarDbQueries(),
                                   {3, 77, 4321, 9999});
  }
}

TEST_F(PersistenceTest, BichromaticRoundTrips) {
  const Dataset products = GenerateUniform(3000, 2, 302);
  Dataset customers = GenerateUniform(800, 2, 303);
  const WhyNotEngine original(products, customers, {});
  const std::string dir = Dir("bichromatic");
  ASSERT_TRUE(original.Save(dir).ok());

  Result<std::unique_ptr<WhyNotEngine>> reopened = WhyNotEngine::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const std::vector<Point> queries = {Point({0.3, 0.4}), Point({0.8, 0.1})};
  ExpectEnginesAnswerIdentically(original, **reopened, queries,
                                 {0, 200, 799});
}

TEST_F(PersistenceTest, MutatedEngineRoundTripsTombstonesAndUniverse) {
  const Dataset ds = GenerateCarDb(2000, 304);
  WhyNotEngine original(ds, WhyNotEngineOptions{});
  // Mutate: remove a few products, add one OUTSIDE the original bounds so
  // the persisted universe (and with it the cost model) must come from
  // the bundle, not from a recomputation over the points.
  ASSERT_TRUE(original.RemoveProduct(10));
  ASSERT_TRUE(original.RemoveProduct(1234));
  const size_t added = original.AddProduct(Point({99000.0, 500000.0}));
  EXPECT_EQ(added, 2000u);

  const std::string dir = Dir("mutated");
  ASSERT_TRUE(original.Save(dir).ok());
  Result<std::unique_ptr<WhyNotEngine>> reopened = WhyNotEngine::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();

  EXPECT_FALSE((*reopened)->IsLiveProduct(10));
  EXPECT_FALSE((*reopened)->IsLiveProduct(1234));
  EXPECT_TRUE((*reopened)->IsLiveProduct(2000));
  EXPECT_EQ(original.universe(), (*reopened)->universe());
  ExpectEnginesAnswerIdentically(original, **reopened, CarDbQueries(),
                                 {3, 500, 2000});

  // The reopened engine keeps mutating correctly.
  ASSERT_TRUE((*reopened)->TryRemoveProduct(2000).ok());
  EXPECT_FALSE((*reopened)->IsLiveProduct(2000));
}

// The approx store's engine-state digest covers market data only, so a
// store saved by an engine loads into that engine's reopened bundle —
// mutations, tombstones and a widened universe included.
TEST_F(PersistenceTest, ApproxStoreLoadsIntoReopenedEngine) {
  WhyNotEngine original(GenerateCarDb(800, 306), WhyNotEngineOptions{});
  ASSERT_TRUE(original.RemoveProduct(17));
  // wnrs-lint: allow-discard(the new id is not needed)
  (void)original.AddProduct(Point({99000.0, 500000.0}));
  original.PrecomputeApproxDsls(6);
  const std::string dir = Dir("approx");
  ASSERT_TRUE(original.Save(dir).ok());
  const std::string store = ::testing::TempDir() + "/approx_reopen.txt";
  ASSERT_TRUE(original.SaveApproxDsls(store).ok());

  WhyNotEngineOptions all_dynamic;
  all_dynamic.use_packed_read_path = false;
  all_dynamic.num_threads = 1;
  Result<std::unique_ptr<WhyNotEngine>> reopened =
      WhyNotEngine::Open(dir, all_dynamic);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const Status loaded = (*reopened)->LoadApproxDsls(store);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_EQ((*reopened)->approx_k(), 6u);
  for (const Point& q : CarDbQueries()) {
    const MwqResult a = original.ModifyBothApprox(3, q);
    const MwqResult b = (*reopened)->ModifyBothApprox(3, q);
    EXPECT_EQ(a.best_cost, b.best_cost);
    ExpectCandidatesIdentical(a.query_candidates, b.query_candidates);
  }
  std::remove(store.c_str());
}

TEST_F(PersistenceTest, AllDynamicEngineBundleReopensOnBothPaths) {
  const Dataset ds = GenerateCarDb(1500, 305);
  WhyNotEngineOptions no_packed;
  no_packed.use_packed_read_path = false;
  const WhyNotEngine original(ds, no_packed);
  const std::string dir = Dir("nopacked");
  ASSERT_TRUE(original.Save(dir).ok());
  // The slab is the bundle's only index, so Save freezes one even for an
  // engine that never built it.
  EXPECT_TRUE(storage::FileExists(dir + "/" + storage::kBundlePackedFile));
  for (bool use_packed : {true, false}) {
    SCOPED_TRACE(use_packed ? "packed" : "dynamic");
    WhyNotEngineOptions open_options;
    open_options.use_packed_read_path = use_packed;
    Result<std::unique_ptr<WhyNotEngine>> reopened =
        WhyNotEngine::Open(dir, open_options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ExpectEnginesAnswerIdentically(original, **reopened, CarDbQueries(),
                                   {42, 999});
  }
}

TEST_F(PersistenceTest, ReopenedEngineMutatesLikeTheOriginal) {
  const Dataset ds = GenerateCarDb(2000, 309);
  for (bool use_packed : {true, false}) {
    SCOPED_TRACE(use_packed ? "packed" : "dynamic");
    WhyNotEngineOptions options;
    options.use_packed_read_path = use_packed;
    WhyNotEngine original(ds, options);
    const std::string dir = Dir(use_packed ? "mutate-packed" : "mutate-dyn");
    ASSERT_TRUE(original.Save(dir).ok());
    Result<std::unique_ptr<WhyNotEngine>> reopened =
        WhyNotEngine::Open(dir, options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    WhyNotEngine& copy = **reopened;

    // The same calls on both engines: enough inserts to split and
    // reinsert, removals to condense. The thawed tree must restructure
    // exactly like the original one.
    Rng rng(310);
    for (int k = 0; k < 150; ++k) {
      const Point p({rng.NextDouble(1000, 60000), rng.NextDouble(0, 2e5)});
      EXPECT_EQ(original.AddProduct(p), copy.AddProduct(p));
      if (k % 3 == 0) {
        const size_t victim = rng.NextUint64(ds.size());
        EXPECT_EQ(original.RemoveProduct(victim), copy.RemoveProduct(victim));
      }
    }
    // Customers are products here; only the added ids are surely live.
    ExpectEnginesAnswerIdentically(original, copy, CarDbQueries(),
                                   {2000, 2075, 2149});

    // Fresh queries (no memo hits): the same answers from the same
    // number of node reads, so the trees have the same shape.
    for (const Point& q :
         {Point({20000, 90000}), Point({9000, 40000}), Point({52000, 5000})}) {
      SCOPED_TRACE(q.ToString());
      EXPECT_EQ(original.ReverseSkyline(q), copy.ReverseSkyline(q));
      EXPECT_EQ(original.last_query_stats().rtree_node_reads,
                copy.last_query_stats().rtree_node_reads);
      EXPECT_EQ(original.ModifyBoth(2000, q).best_cost,
                copy.ModifyBoth(2000, q).best_cost);
      EXPECT_EQ(original.last_query_stats().rtree_node_reads,
                copy.last_query_stats().rtree_node_reads);
    }
  }
}

TEST_F(PersistenceTest, ParanoidChecksPassOnReopenedEngine) {
  const Dataset ds = GenerateCarDb(1200, 306);
  WhyNotEngineOptions options;
  options.paranoid_checks = true;
  const WhyNotEngine original(ds, options);
  const std::string dir = Dir("paranoid");
  ASSERT_TRUE(original.Save(dir).ok());
  Result<std::unique_ptr<WhyNotEngine>> reopened =
      WhyNotEngine::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const Point q({14000, 70000});
  EXPECT_EQ(original.ReverseSkyline(q), (*reopened)->ReverseSkyline(q));
}

TEST_F(PersistenceTest, RejectsCorruptBundles) {
  const Dataset ds = GenerateUniform(400, 2, 307);
  const WhyNotEngine original(ds, WhyNotEngineOptions{});
  const std::string dir = Dir("corrupt");
  ASSERT_TRUE(original.Save(dir).ok());

  // Missing directory / missing files.
  EXPECT_FALSE(WhyNotEngine::Open("/nonexistent/bundle").ok());

  const std::string data_path =
      dir + "/" + std::string(storage::kBundleDataFile);
  std::string bytes;
  ASSERT_TRUE(storage::ReadFileToString(data_path, &bytes).ok());

  // Flipped byte in the payload: [data-crc].
  std::string bad = bytes;
  bad[bytes.size() / 2] = static_cast<char>(bad[bytes.size() / 2] ^ 0x11);
  ASSERT_TRUE(storage::WriteStringToFile(data_path, bad).ok());
  Result<std::unique_ptr<WhyNotEngine>> r = WhyNotEngine::Open(dir);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("[data-crc]"), std::string::npos)
      << r.status().ToString();

  // Trailing garbage after the payload: [trailing-bytes] (the CRC is
  // position-checked, so appending also breaks it — seed the specific
  // case through LoadBundleData's own reader instead).
  ASSERT_TRUE(storage::WriteStringToFile(data_path, bytes).ok());

  // Slab/tree mismatch: replace the packed slab with one frozen from a
  // different engine — rejected by the parity validator, never served.
  const Dataset other = GenerateUniform(400, 2, 308);
  const WhyNotEngine decoy(other, WhyNotEngineOptions{});
  const std::string decoy_dir = Dir("decoy");
  ASSERT_TRUE(decoy.Save(decoy_dir).ok());
  std::string decoy_slab;
  ASSERT_TRUE(storage::ReadFileToString(
                  decoy_dir + "/" + storage::kBundlePackedFile, &decoy_slab)
                  .ok());
  ASSERT_TRUE(storage::WriteStringToFile(
                  dir + "/" + storage::kBundlePackedFile, decoy_slab)
                  .ok());
  r = WhyNotEngine::Open(dir);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("[packed-parity]"), std::string::npos)
      << r.status().ToString();
}

/// Copies `from`'s product slab over `to`'s, as a half-finished Save or
/// a stray file copy would leave it.
void CopySlab(const std::string& from, const std::string& to) {
  std::string slab;
  ASSERT_TRUE(storage::ReadFileToString(
                  from + "/" + storage::kBundlePackedFile, &slab)
                  .ok());
  ASSERT_TRUE(storage::WriteStringToFile(
                  to + "/" + storage::kBundlePackedFile, slab)
                  .ok());
}

void ExpectOpenRefused(const std::string& dir, const std::string& tag) {
  Result<std::unique_ptr<WhyNotEngine>> r = WhyNotEngine::Open(dir);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find(tag), std::string::npos)
      << r.status().ToString();
}

TEST_F(PersistenceTest, RejectsSlabFromAnotherEngineState) {
  const Dataset ds = GenerateUniform(600, 2, 311);

  // A slab saved before RemoveProduct next to the post-remove data.bin:
  // one entry too many for the live count.
  WhyNotEngine engine(ds, WhyNotEngineOptions{});
  const std::string before = Dir("before-remove");
  ASSERT_TRUE(engine.Save(before).ok());
  ASSERT_TRUE(engine.RemoveProduct(17));
  const std::string after = Dir("after-remove");
  ASSERT_TRUE(engine.Save(after).ok());
  CopySlab(before, after);
  ExpectOpenRefused(after, "[tree-shape]");

  // The right count, but indexing a tombstoned id: the slab lost product
  // 17 where data.bin lost product 18.
  WhyNotEngine lost_a(ds, WhyNotEngineOptions{});
  WhyNotEngine lost_b(ds, WhyNotEngineOptions{});
  ASSERT_TRUE(lost_a.RemoveProduct(17));
  ASSERT_TRUE(lost_b.RemoveProduct(18));
  const std::string dir_a = Dir("lost-17");
  const std::string dir_b = Dir("lost-18");
  ASSERT_TRUE(lost_a.Save(dir_a).ok());
  ASSERT_TRUE(lost_b.Save(dir_b).ok());
  CopySlab(dir_a, dir_b);
  ExpectOpenRefused(dir_b, "[packed-parity]");
}

// An internal entry whose MBR still contains its child but is wider than
// the child's bounding box passes ValidatePacked (containment only); the
// thaw's stale-MBR check must refuse it, and with it the bundle.
TEST_F(PersistenceTest, RejectsInflatedInternalMbr) {
  const Dataset ds = GenerateUniform(2000, 2, 312);
  const WhyNotEngine engine(ds, WhyNotEngineOptions{});
  const std::string dir = Dir("inflated");
  ASSERT_TRUE(engine.Save(dir).ok());
  const std::string slab_path = dir + "/" + storage::kBundlePackedFile;

  // Locate the root's first entry in the file: a mapped slab aliases the
  // file, and its node arena starts at byte 128.
  size_t offset = 0;
  double lo = 0.0;
  {
    Result<PackedRTree> slab = storage::OpenPackedMapped(slab_path);
    ASSERT_TRUE(slab.ok()) << slab.status().ToString();
    const PackedRTree::Node& root = slab->node(slab->root());
    ASSERT_EQ(root.is_leaf, 0u) << "need an internal root";
    const auto* nodes = reinterpret_cast<const char*>(slab->nodes_data());
    const auto* lo0 = reinterpret_cast<const char*>(
        slab->planes_data() + root.first_entry);  // The lo_0 plane.
    offset = 128 + static_cast<size_t>(lo0 - nodes);
    lo = slab->entry_lo(root.first_entry, 0);
  }
  std::string bytes;
  ASSERT_TRUE(storage::ReadFileToString(slab_path, &bytes).ok());
  double stored = 0.0;
  std::memcpy(&stored, bytes.data() + offset, sizeof(stored));
  ASSERT_EQ(stored, lo);
  const double inflated = lo - 1.0;
  std::memcpy(bytes.data() + offset, &inflated, sizeof(inflated));
  ASSERT_TRUE(storage::WriteStringToFile(slab_path, bytes).ok());

  // The section CRC would catch the edit first; skip it, as
  // EngineStorageOptions::verify_checksums = false does.
  Result<PackedRTree> slab =
      storage::OpenPackedMapped(slab_path, /*verify_checksums=*/false);
  ASSERT_TRUE(slab.ok()) << slab.status().ToString();
  EXPECT_TRUE(ValidatePacked(*slab).ok());
  Result<RStarTree> thawed = slab->Thaw(engine.product_tree().options());
  ASSERT_FALSE(thawed.ok());
  EXPECT_NE(thawed.status().message().find("[tree-shape]"), std::string::npos)
      << thawed.status().ToString();
  EXPECT_NE(thawed.status().message().find("stale parent MBR"),
            std::string::npos)
      << thawed.status().ToString();

  WhyNotEngineOptions options;
  options.storage.verify_checksums = false;
  Result<std::unique_ptr<WhyNotEngine>> r = WhyNotEngine::Open(dir, options);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("[tree-shape]"), std::string::npos)
      << r.status().ToString();
}

TEST_F(PersistenceTest, RejectsVersionOneBundle) {
  const WhyNotEngine engine(GenerateUniform(300, 2, 312),
                            WhyNotEngineOptions{});
  const std::string dir = Dir("v1");
  ASSERT_TRUE(engine.Save(dir).ok());
  const std::string path = dir + "/" + std::string(storage::kBundleDataFile);
  std::string bytes;
  ASSERT_TRUE(storage::ReadFileToString(path, &bytes).ok());
  // Version is the second u32 of the header; re-stamp the trailing CRC
  // so the version check, not the checksum, is what refuses the file.
  const uint32_t v1 = 1;
  std::memcpy(bytes.data() + 4, &v1, sizeof(v1));
  const uint32_t crc = storage::Crc32(bytes.data(), bytes.size() - 4);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof(crc));
  ASSERT_TRUE(storage::WriteStringToFile(path, bytes).ok());
  ExpectOpenRefused(dir, "[version]");
}

TEST_F(PersistenceTest, BundleDataFormatRejectsTrailingBytes) {
  storage::EngineBundleData data;
  data.shared_relation = true;
  data.products.dims = 2;
  data.products.points = {Point({1.0, 2.0}), Point({3.0, 4.0})};
  data.universe = Rectangle(Point({1.0, 2.0}), Point({3.0, 4.0}));
  const std::string dir = Dir("format");
  ASSERT_TRUE(storage::EnsureDirectory(dir).ok());
  const std::string path = dir + "/" + std::string(storage::kBundleDataFile);
  ASSERT_TRUE(storage::SaveBundleData(data, path).ok());
  Result<storage::EngineBundleData> ok = storage::LoadBundleData(path);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->products.points.size(), 2u);
  EXPECT_TRUE(ok->shared_relation);

  // Append bytes and re-stamp a valid CRC over the longer payload: the
  // reader must still refuse with [trailing-bytes], not silently accept.
  std::string bytes;
  ASSERT_TRUE(storage::ReadFileToString(path, &bytes).ok());
  std::string longer = bytes.substr(0, bytes.size() - 4);
  longer += std::string(6, '\x5A');
  const uint32_t crc = storage::Crc32(longer.data(), longer.size());
  longer.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  ASSERT_TRUE(storage::WriteStringToFile(path, longer).ok());
  Result<storage::EngineBundleData> r = storage::LoadBundleData(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("[trailing-bytes]"), std::string::npos)
      << r.status().ToString();
}

}  // namespace
}  // namespace wnrs
