#include "storage/packed_slab.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/random.h"
#include "data/generators.h"
#include "index/bulk_load.h"
#include "index/packed_rtree.h"
#include "index/validate.h"
#include "storage/crc32.h"
#include "storage/file_io.h"

namespace wnrs {
namespace {

class PackedSlabTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& p : paths_) std::remove(p.c_str());
  }
  std::string Path(const std::string& name) {
    paths_.push_back(::testing::TempDir() + "/" + name);
    return paths_.back();
  }
  std::vector<std::string> paths_;
};

/// Byte-level structural equality of two packed trees: shape scalars,
/// node arena, every entry MBR, and the refs slab.
void ExpectPackedIdentical(const PackedRTree& a, const PackedRTree& b) {
  ASSERT_EQ(a.dims(), b.dims());
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.height(), b.height());
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_entries(), b.num_entries());
  ASSERT_EQ(a.max_node_entries(), b.max_node_entries());
  ASSERT_EQ(a.plane_stride(), b.plane_stride());
  for (uint32_t n = 0; n < a.num_nodes(); ++n) {
    ASSERT_EQ(a.node(n).first_entry, b.node(n).first_entry);
    ASSERT_EQ(a.node(n).entry_count, b.node(n).entry_count);
    ASSERT_EQ(a.node(n).is_leaf, b.node(n).is_leaf);
  }
  for (uint32_t e = 0; e < a.num_entries(); ++e) {
    for (size_t j = 0; j < a.dims(); ++j) {
      ASSERT_EQ(a.entry_lo(e, j), b.entry_lo(e, j));
      ASSERT_EQ(a.entry_hi(e, j), b.entry_hi(e, j));
    }
    ASSERT_EQ(a.refs_data()[e], b.refs_data()[e]);
  }
}

TEST_F(PackedSlabTest, MappedOpenRoundTripsBitIdentically) {
  const Dataset ds = GenerateCarDb(4000, 71);
  RStarTree tree = BulkLoadPoints(2, ds.points);
  PackedRTree packed = PackedRTree::Freeze(tree);
  const std::string path = Path("cardb.slab");
  ASSERT_TRUE(storage::SavePacked(packed, path).ok());

  Result<PackedRTree> opened = storage::OpenPackedMapped(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ExpectPackedIdentical(packed, *opened);
  ASSERT_TRUE(opened->CheckInvariants().ok());
  ASSERT_TRUE(ValidatePacked(*opened).ok());
  ASSERT_TRUE(ValidatePackedMatchesDynamic(*opened, tree).ok());

  Rng rng(72);
  for (int trial = 0; trial < 30; ++trial) {
    const double x0 = rng.NextDouble(500, 60000);
    const double y0 = rng.NextDouble(0, 180000);
    const Rectangle window(Point({x0, y0}), Point({x0 + 8000, y0 + 30000}));
    EXPECT_EQ(packed.RangeQueryIds(window), opened->RangeQueryIds(window));
    EXPECT_EQ(tree.RangeQueryIds(window), opened->RangeQueryIds(window));
  }
}

TEST_F(PackedSlabTest, BufferedOpenMatchesMappedOpen) {
  const Dataset ds = GenerateUniform(2000, 3, 73);
  RStarTree tree = BulkLoadPoints(3, ds.points);
  PackedRTree packed = PackedRTree::Freeze(tree);
  const std::string path = Path("uniform.slab");
  ASSERT_TRUE(storage::SavePacked(packed, path).ok());

  Result<PackedRTree> mapped = storage::OpenPackedMapped(path);
  Result<PackedRTree> buffered = storage::OpenPackedBuffered(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_TRUE(buffered.ok()) << buffered.status().ToString();
  EXPECT_FALSE(buffered->is_mapped());
  ExpectPackedIdentical(*mapped, *buffered);
  ASSERT_TRUE(ValidatePackedMatchesDynamic(*buffered, tree).ok());
}

TEST_F(PackedSlabTest, MappedTreeAliasesTheFile) {
#if defined(__unix__) || defined(__APPLE__)
  const Dataset ds = GenerateUniform(500, 2, 74);
  RStarTree tree = BulkLoadPoints(2, ds.points);
  PackedRTree packed = PackedRTree::Freeze(tree);
  const std::string path = Path("mapped.slab");
  ASSERT_TRUE(storage::SavePacked(packed, path).ok());
  Result<PackedRTree> opened = storage::OpenPackedMapped(path);
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened->is_mapped());
#else
  GTEST_SKIP() << "no mmap on this platform";
#endif
}

TEST_F(PackedSlabTest, EmptyAndTinyTreesRoundTrip) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}}) {
    RStarTree tree(2);
    for (size_t i = 0; i < n; ++i) {
      tree.Insert(Point({static_cast<double>(i), 1.0}),
                  static_cast<RStarTree::Id>(i));
    }
    PackedRTree packed = PackedRTree::Freeze(tree);
    const std::string path = Path("tiny" + std::to_string(n) + ".slab");
    ASSERT_TRUE(storage::SavePacked(packed, path).ok());
    Result<PackedRTree> opened = storage::OpenPackedMapped(path);
    ASSERT_TRUE(opened.ok()) << "n=" << n << ": "
                             << opened.status().ToString();
    ExpectPackedIdentical(packed, *opened);
  }
}

TEST_F(PackedSlabTest, RejectsSeededCorruption) {
  const Dataset ds = GenerateUniform(800, 2, 75);
  RStarTree tree = BulkLoadPoints(2, ds.points);
  PackedRTree packed = PackedRTree::Freeze(tree);
  const std::string path = Path("victim.slab");
  ASSERT_TRUE(storage::SavePacked(packed, path).ok());
  std::string bytes;
  ASSERT_TRUE(storage::ReadFileToString(path, &bytes).ok());

  struct Case {
    const char* name;
    const char* want;
    std::string mutated;
  };
  std::string truncated_header = bytes.substr(0, 64);
  std::string truncated_body = bytes.substr(0, bytes.size() / 2);
  std::string bad_magic = bytes;
  bad_magic[1] = 'X';
  std::string bad_version = bytes;
  bad_version[4] = static_cast<char>(0x7E);
  std::string bad_endian = bytes;
  bad_endian[8] = static_cast<char>(bad_endian[8] ^ 0xFF);
  std::string bad_header = bytes;
  bad_header[16] = static_cast<char>(bad_header[16] ^ 0x01);  // dims lsb
  std::string trailing = bytes + "extra";
  std::string bad_nodes = bytes;
  bad_nodes[128 + 5] = static_cast<char>(bad_nodes[128 + 5] ^ 0x20);
  std::string bad_tail = bytes;
  bad_tail[bytes.size() - 3] = static_cast<char>(bad_tail[bytes.size() - 3] ^ 0x08);

  const Case cases[] = {
      {"truncated-header", "[truncated]", truncated_header},
      {"truncated-body", "[slab-layout]", truncated_body},
      {"magic", "[magic]", bad_magic},
      {"version", "[version]", bad_version},
      {"endianness", "[endianness]", bad_endian},
      {"dimension-flip", "[header-crc]", bad_header},
      {"trailing-bytes", "[slab-layout]", trailing},
      {"node-arena-flip", "[nodes-crc]", bad_nodes},
      {"refs-flip", "[refs-crc]", bad_tail},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string p = Path(std::string("victim-") + c.name + ".slab");
    ASSERT_TRUE(storage::WriteStringToFile(p, c.mutated).ok());
    for (bool mapped : {true, false}) {
      Result<PackedRTree> r =
          mapped ? storage::OpenPackedMapped(p) : storage::OpenPackedBuffered(p);
      ASSERT_FALSE(r.ok()) << (mapped ? "mapped" : "buffered");
      EXPECT_NE(r.status().message().find(c.want), std::string::npos)
          << r.status().ToString();
    }
  }
  EXPECT_FALSE(storage::OpenPackedMapped("/nonexistent/no.slab").ok());
}

TEST_F(PackedSlabTest, ChecksumSweepIsOptionalButValidationIsNot) {
  const Dataset ds = GenerateUniform(300, 2, 76);
  RStarTree tree = BulkLoadPoints(2, ds.points);
  PackedRTree packed = PackedRTree::Freeze(tree);
  const std::string path = Path("nocrc.slab");
  ASSERT_TRUE(storage::SavePacked(packed, path).ok());

  // verify_checksums=false still opens a pristine file fine.
  Result<PackedRTree> opened =
      storage::OpenPackedMapped(path, /*verify_checksums=*/false);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ExpectPackedIdentical(packed, *opened);

  // Structural damage that CRC would catch is also caught without the
  // sweep when it breaks a packed invariant: zero out a node's entry
  // window so [mbr-containment]/[tree-shape] style checks fire.
  std::string bytes;
  ASSERT_TRUE(storage::ReadFileToString(path, &bytes).ok());
  std::string bad = bytes;
  // Corrupt the root node's entry_count (node arena starts at 128;
  // entry_count is bytes 4..7 of the 12-byte node record).
  bad[128 + 4] = static_cast<char>(0xFF);
  bad[128 + 5] = static_cast<char>(0xFF);
  const std::string p = Path("nocrc-bad.slab");
  ASSERT_TRUE(storage::WriteStringToFile(p, bad).ok());
  EXPECT_FALSE(
      storage::OpenPackedMapped(p, /*verify_checksums=*/false).ok());
}

TEST_F(PackedSlabTest, Crc32MatchesKnownVectorAndChains) {
  // The canonical CRC-32 ("123456789" -> 0xCBF43926).
  EXPECT_EQ(storage::Crc32("123456789", 9), 0xCBF43926u);
  // Seed-chaining equals one-shot.
  const std::string data = "hello, storage layer";
  const uint32_t whole = storage::Crc32(data.data(), data.size());
  const uint32_t part = storage::Crc32(data.data() + 5, data.size() - 5,
                                       storage::Crc32(data.data(), 5));
  EXPECT_EQ(whole, part);
}

}  // namespace
}  // namespace wnrs
