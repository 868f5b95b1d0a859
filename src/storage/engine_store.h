#ifndef WNRS_STORAGE_ENGINE_STORE_H_
#define WNRS_STORAGE_ENGINE_STORE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "geometry/rectangle.h"
#include "index/rtree.h"

namespace wnrs {
namespace storage {

/// File names inside an engine bundle directory (WhyNotEngine::Save /
/// WhyNotEngine::Open). A bundle is a directory of two formats: data.bin
/// (this file's WNEB blob) and one WNSL packed slab per R*-tree
/// (storage/packed_slab.h). The slab is the only stored index: Open maps
/// it for the read path and thaws the dynamic mutation tree from it
/// (PackedRTree::Thaw), so the tree is never stored twice.
inline constexpr char kBundleDataFile[] = "data.bin";
inline constexpr char kBundlePackedFile[] = "packed.slab";
inline constexpr char kBundlePackedCustomerFile[] = "packed_customers.slab";

/// Everything in an engine core that is not an index: the datasets, the
/// tombstone bitmap, the universe rectangle (mutable post-construction —
/// AddProduct can widen it, so it cannot be recomputed from the points),
/// and the R* knobs the trees were built with, so a thawed tree splits
/// and reinserts exactly like the saved one.
struct EngineBundleData {
  bool shared_relation = false;
  Dataset products;
  /// Bichromatic mode only; empty (and has_customers false) otherwise.
  Dataset customers;
  bool has_customers = false;
  std::vector<bool> removed;
  Rectangle universe;
  RTreeOptions rtree;
};

/// Writes `data` to `path` as a versioned binary blob (magic, version 2,
/// endianness marker, whole-payload CRC-32).
[[nodiscard]] Status SaveBundleData(const EngineBundleData& data,
                                    const std::string& path);

/// Reads a SaveBundleData file. Corruption (truncation, bad CRC, wrong
/// magic/version/endianness, implausible geometry or R* knobs, trailing
/// bytes) comes back as a Status naming the violated invariant in
/// [brackets]; a version-1 file is refused with [version].
[[nodiscard]] Result<EngineBundleData> LoadBundleData(
    const std::string& path);

}  // namespace storage
}  // namespace wnrs

#endif  // WNRS_STORAGE_ENGINE_STORE_H_
