#include "storage/engine_store.h"

#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/logging.h"
#include "common/string_util.h"
#include "geometry/point.h"
#include "storage/codec.h"
#include "storage/crc32.h"
#include "storage/file_io.h"

namespace wnrs {
namespace storage {
namespace {

constexpr uint32_t kBundleMagic = 0x42454E57u;  // "WNEB" little-endian.
/// Version 2 carries the R* knobs and always pairs with packed slabs;
/// version 1 bundles also held WNTR page files and are refused.
constexpr uint32_t kBundleVersion = 2;

constexpr uint32_t kFlagShared = 1u << 0;
constexpr uint32_t kFlagHasCustomers = 1u << 1;
constexpr uint32_t kAllFlags = kFlagShared | kFlagHasCustomers;

constexpr uint64_t kMaxReasonableDims = 64;
constexpr uint64_t kMaxReasonableCount = uint64_t{1} << 40;

void AppendString(std::string* out, const std::string& s) {
  AppendPod<uint32_t>(out, static_cast<uint32_t>(s.size()));
  AppendRaw(out, s.data(), s.size());
}

void AppendDataset(std::string* out, const Dataset& ds, size_t dims) {
  AppendString(out, ds.name);
  AppendPod<uint64_t>(out, ds.points.size());
  for (const Point& p : ds.points) {
    for (size_t i = 0; i < dims; ++i) AppendPod<double>(out, p[i]);
  }
}

Status ReadString(ByteReader* r, std::string* out, const std::string& path) {
  uint32_t len = 0;
  if (!r->ReadPod(&len) || len > r->remaining()) {
    return Status::InvalidArgument("[truncated] bundle string field: " + path);
  }
  out->assign(reinterpret_cast<const char*>(r->cursor()), len);
  WNRS_CHECK(r->Skip(len));
  return Status::Ok();
}

Status ReadDataset(ByteReader* r, Dataset* ds, size_t dims, bool is_shared,
                   const std::string& path) {
  WNRS_RETURN_IF_ERROR(ReadString(r, &ds->name, path));
  uint64_t count = 0;
  if (!r->ReadPod(&count) || count == 0 || count > kMaxReasonableCount ||
      count * dims * sizeof(double) > r->remaining()) {
    return Status::InvalidArgument(
        "[truncated] bundle dataset shorter than its declared point "
        "count: " +
        path);
  }
  ds->dims = dims;
  ds->points.reserve(static_cast<size_t>(count));
  for (uint64_t n = 0; n < count; ++n) {
    Point p(dims);
    for (size_t i = 0; i < dims; ++i) {
      double v = 0;
      WNRS_CHECK(r->ReadPod(&v));
      // Datasets hold finite coordinates by construction (the engine
      // validates every inserted point); a NaN here is file corruption
      // that slipped past the CRC, not a legal value. Tombstoned slots
      // keep their (finite) coordinates too.
      if (!std::isfinite(v)) {
        return Status::InvalidArgument(
            StrFormat("[coordinate] non-finite coordinate in %s point %llu "
                      "of bundle %s",
                      is_shared ? "shared" : "stored",
                      static_cast<unsigned long long>(n), path.c_str()));
      }
      p[i] = v;
    }
    ds->points.push_back(std::move(p));
  }
  return Status::Ok();
}

}  // namespace

Status SaveBundleData(const EngineBundleData& data, const std::string& path) {
  const size_t dims = data.products.dims;
  uint32_t flags = 0;
  if (data.shared_relation) flags |= kFlagShared;
  if (data.has_customers) flags |= kFlagHasCustomers;

  std::string out;
  AppendPod<uint32_t>(&out, kBundleMagic);
  AppendPod<uint32_t>(&out, kBundleVersion);
  AppendPod<uint32_t>(&out, kEndianMarker);
  AppendPod<uint32_t>(&out, flags);
  AppendPod<uint64_t>(&out, static_cast<uint64_t>(dims));
  AppendPod<uint64_t>(&out,
                      static_cast<uint64_t>(data.rtree.page_size_bytes));
  AppendPod<double>(&out, data.rtree.min_fill_ratio);
  AppendPod<double>(&out, data.rtree.reinsert_fraction);
  for (size_t i = 0; i < dims; ++i) {
    AppendPod<double>(&out, data.universe.lo()[i]);
  }
  for (size_t i = 0; i < dims; ++i) {
    AppendPod<double>(&out, data.universe.hi()[i]);
  }
  AppendDataset(&out, data.products, dims);
  if (data.has_customers) AppendDataset(&out, data.customers, dims);
  AppendPod<uint64_t>(&out, static_cast<uint64_t>(data.removed.size()));
  for (size_t i = 0; i < data.removed.size(); i += 8) {
    uint8_t byte = 0;
    for (size_t b = 0; b < 8 && i + b < data.removed.size(); ++b) {
      if (data.removed[i + b]) byte |= static_cast<uint8_t>(1u << b);
    }
    AppendPod<uint8_t>(&out, byte);
  }
  AppendPod<uint32_t>(&out, Crc32(out.data(), out.size()));
  return WriteStringToFile(path, out);
}

Result<EngineBundleData> LoadBundleData(const std::string& path) {
  std::string bytes;
  WNRS_RETURN_IF_ERROR(ReadFileToString(path, &bytes));
  if (bytes.size() < 24 + sizeof(uint32_t)) {
    return Status::InvalidArgument("[truncated] bundle data file shorter "
                                   "than its header: " +
                                   path);
  }
  // Whole-payload CRC first: everything after it parses trusted bytes.
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - sizeof(uint32_t),
              sizeof(uint32_t));
  if (Crc32(bytes.data(), bytes.size() - sizeof(uint32_t)) != stored_crc) {
    return Status::InvalidArgument("[data-crc] bundle data corrupt: " + path);
  }
  ByteReader r(bytes.data(), bytes.size() - sizeof(uint32_t));
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t endian = 0;
  uint32_t flags = 0;
  uint64_t dims = 0;
  WNRS_CHECK(r.ReadPod(&magic) && r.ReadPod(&version) && r.ReadPod(&endian) &&
             r.ReadPod(&flags) && r.ReadPod(&dims));
  if (magic != kBundleMagic) {
    return Status::InvalidArgument("[magic] not a wnrs engine bundle: " +
                                   path);
  }
  if (version != kBundleVersion) {
    return Status::InvalidArgument(
        StrFormat("[version] bundle version %u, expected %u", version,
                  kBundleVersion));
  }
  if (endian != kEndianMarker) {
    return Status::InvalidArgument(
        "[endianness] bundle written on a foreign-endian host: " + path);
  }
  if ((flags & ~kAllFlags) != 0 ||
      ((flags & kFlagShared) != 0 && (flags & kFlagHasCustomers) != 0)) {
    return Status::InvalidArgument(
        StrFormat("[bundle-flags] inconsistent bundle flags 0x%x", flags));
  }
  if (dims == 0 || dims > kMaxReasonableDims) {
    return Status::InvalidArgument(
        StrFormat("[dimension] bundle declares %llu dimensions",
                  static_cast<unsigned long long>(dims)));
  }

  EngineBundleData data;
  data.shared_relation = (flags & kFlagShared) != 0;
  data.has_customers = (flags & kFlagHasCustomers) != 0;

  uint64_t page_size_bytes = 0;
  if (!r.ReadPod(&page_size_bytes) ||
      !r.ReadPod(&data.rtree.min_fill_ratio) ||
      !r.ReadPod(&data.rtree.reinsert_fraction)) {
    return Status::InvalidArgument("[truncated] bundle R* knobs: " + path);
  }
  // Checked before the knobs reach the RStarTree constructor, whose
  // WNRS_CHECKs abort instead of returning a clean status.
  data.rtree.page_size_bytes = static_cast<size_t>(page_size_bytes);
  WNRS_RETURN_IF_ERROR(RStarTree::ValidateOptions(data.rtree));

  if (2 * dims * sizeof(double) > r.remaining()) {
    return Status::InvalidArgument("[truncated] bundle universe: " + path);
  }
  Point lo(static_cast<size_t>(dims));
  Point hi(static_cast<size_t>(dims));
  for (size_t i = 0; i < dims; ++i) WNRS_CHECK(r.ReadPod(&lo[i]));
  for (size_t i = 0; i < dims; ++i) WNRS_CHECK(r.ReadPod(&hi[i]));
  for (size_t i = 0; i < dims; ++i) {
    if (!std::isfinite(lo[i]) || !std::isfinite(hi[i]) || lo[i] > hi[i]) {
      return Status::InvalidArgument(
          StrFormat("[mbr-order] bundle universe malformed in dimension "
                    "%zu",
                    i));
    }
  }
  data.universe = Rectangle(std::move(lo), std::move(hi));

  WNRS_RETURN_IF_ERROR(ReadDataset(&r, &data.products,
                                   static_cast<size_t>(dims),
                                   data.shared_relation, path));
  if (data.has_customers) {
    WNRS_RETURN_IF_ERROR(ReadDataset(&r, &data.customers,
                                     static_cast<size_t>(dims), false, path));
  }

  uint64_t removed_count = 0;
  if (!r.ReadPod(&removed_count) ||
      removed_count > data.products.points.size()) {
    return Status::InvalidArgument(
        "[truncated] bundle tombstone bitmap header: " + path);
  }
  const size_t removed_bytes = static_cast<size_t>((removed_count + 7) / 8);
  if (removed_bytes > r.remaining()) {
    return Status::InvalidArgument(
        "[truncated] bundle tombstone bitmap shorter than declared: " + path);
  }
  data.removed.resize(static_cast<size_t>(removed_count), false);
  for (size_t i = 0; i < removed_count; i += 8) {
    uint8_t byte = 0;
    WNRS_CHECK(r.ReadPod(&byte));
    for (size_t b = 0; b < 8 && i + b < removed_count; ++b) {
      data.removed[i + b] = (byte & (1u << b)) != 0;
    }
  }
  if (r.remaining() != 0) {
    return Status::InvalidArgument(
        StrFormat("[trailing-bytes] %zu bytes after the bundle payload: %s",
                  r.remaining(), path.c_str()));
  }
  return data;
}

}  // namespace storage
}  // namespace wnrs
