#include "storage/packed_slab.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "geometry/kernels.h"
#include "index/validate.h"
#include "storage/codec.h"
#include "storage/crc32.h"
#include "storage/file_io.h"

namespace wnrs {
namespace storage {
namespace {

constexpr uint32_t kSlabMagic = 0x4C534E57u;  // "WNSL" little-endian.
constexpr uint32_t kSlabVersion = 1;
/// Fixed header size; sections start 64-byte aligned beyond it so mapped
/// double planes satisfy the SIMD kernels' natural alignment.
constexpr uint64_t kSlabHeaderBytes = 128;
constexpr uint64_t kSectionAlign = 64;

constexpr uint64_t kMaxReasonableDims = 64;
constexpr uint64_t kMaxReasonableCount = uint64_t{1} << 40;

uint64_t AlignUp(uint64_t v) {
  return (v + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

/// Everything the header stores, in file order. Offsets are absolute.
struct SlabHeader {
  uint64_t dims = 0;
  uint64_t size = 0;
  uint64_t height = 0;
  uint64_t max_node_entries = 0;
  uint64_t plane_stride = 0;
  uint64_t num_nodes = 0;
  uint64_t num_entries = 0;
  uint64_t nodes_off = 0;
  uint64_t planes_off = 0;
  uint64_t refs_off = 0;
  uint64_t file_size = 0;
  uint32_t nodes_crc = 0;
  uint32_t planes_crc = 0;
  uint32_t refs_crc = 0;
};

uint64_t NodesBytes(const SlabHeader& h) {
  return h.num_nodes * sizeof(PackedRTree::Node);
}
uint64_t PlanesBytes(const SlabHeader& h) {
  return 2 * h.dims * h.plane_stride * sizeof(double);
}
uint64_t RefsBytes(const SlabHeader& h) {
  return h.num_entries * sizeof(int64_t);
}

std::string EncodeHeader(const SlabHeader& h) {
  std::string out;
  out.reserve(kSlabHeaderBytes);
  AppendPod<uint32_t>(&out, kSlabMagic);
  AppendPod<uint32_t>(&out, kSlabVersion);
  AppendPod<uint32_t>(&out, kEndianMarker);
  AppendPod<uint32_t>(&out, 0);  // Reserved.
  AppendPod<uint64_t>(&out, h.dims);
  AppendPod<uint64_t>(&out, h.size);
  AppendPod<uint64_t>(&out, h.height);
  AppendPod<uint64_t>(&out, h.max_node_entries);
  AppendPod<uint64_t>(&out, h.plane_stride);
  AppendPod<uint64_t>(&out, h.num_nodes);
  AppendPod<uint64_t>(&out, h.num_entries);
  AppendPod<uint64_t>(&out, h.nodes_off);
  AppendPod<uint64_t>(&out, h.planes_off);
  AppendPod<uint64_t>(&out, h.refs_off);
  AppendPod<uint64_t>(&out, h.file_size);
  AppendPod<uint32_t>(&out, h.nodes_crc);
  AppendPod<uint32_t>(&out, h.planes_crc);
  AppendPod<uint32_t>(&out, h.refs_crc);
  AppendPod<uint32_t>(&out, Crc32(out.data(), out.size()));
  out.resize(kSlabHeaderBytes, '\0');
  return out;
}

Status DecodeHeader(const void* data, size_t len, SlabHeader* h,
                    const std::string& path) {
  if (len < kSlabHeaderBytes) {
    return Status::InvalidArgument("[truncated] slab shorter than its "
                                   "header: " +
                                   path);
  }
  ByteReader r(data, static_cast<size_t>(kSlabHeaderBytes));
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t endian = 0;
  uint32_t reserved = 0;
  uint32_t header_crc = 0;
  WNRS_CHECK(r.ReadPod(&magic) && r.ReadPod(&version) && r.ReadPod(&endian) &&
             r.ReadPod(&reserved) && r.ReadPod(&h->dims) &&
             r.ReadPod(&h->size) && r.ReadPod(&h->height) &&
             r.ReadPod(&h->max_node_entries) && r.ReadPod(&h->plane_stride) &&
             r.ReadPod(&h->num_nodes) && r.ReadPod(&h->num_entries) &&
             r.ReadPod(&h->nodes_off) && r.ReadPod(&h->planes_off) &&
             r.ReadPod(&h->refs_off) && r.ReadPod(&h->file_size) &&
             r.ReadPod(&h->nodes_crc) && r.ReadPod(&h->planes_crc) &&
             r.ReadPod(&h->refs_crc) && r.ReadPod(&header_crc));
  if (magic != kSlabMagic) {
    return Status::InvalidArgument("[magic] not a wnrs packed slab: " + path);
  }
  if (version != kSlabVersion) {
    return Status::InvalidArgument(
        StrFormat("[version] slab version %u, expected %u", version,
                  kSlabVersion));
  }
  if (endian != kEndianMarker) {
    return Status::InvalidArgument(
        "[endianness] slab written on a foreign-endian host: " + path);
  }
  if (Crc32(data, r.pos() - sizeof(uint32_t)) != header_crc) {
    return Status::InvalidArgument("[header-crc] slab header corrupt: " +
                                   path);
  }
  // Geometry sanity before any section arithmetic: all offsets in range,
  // sections in order and non-overlapping, counts plausible. Every
  // multiplication below is then safe from overflow.
  if (h->dims == 0 || h->dims > kMaxReasonableDims ||
      h->num_nodes == 0 || h->num_nodes > kMaxReasonableCount ||
      h->num_entries > kMaxReasonableCount ||
      h->plane_stride > kMaxReasonableCount ||
      h->max_node_entries > h->num_entries + 1 ||
      h->plane_stride < KernelPad(h->num_entries) ||
      h->size > h->num_entries || h->height == 0 ||
      h->height > h->num_nodes) {
    return Status::InvalidArgument("[slab-geometry] implausible slab "
                                   "geometry: " +
                                   path);
  }
  if (h->nodes_off != kSlabHeaderBytes ||
      h->planes_off != AlignUp(h->nodes_off + NodesBytes(*h)) ||
      h->refs_off != AlignUp(h->planes_off + PlanesBytes(*h)) ||
      h->file_size != h->refs_off + RefsBytes(*h) || h->file_size != len) {
    return Status::InvalidArgument(
        StrFormat("[slab-layout] section offsets inconsistent with file "
                  "size %zu: %s",
                  len, path.c_str()));
  }
  return Status::Ok();
}

/// memcpy for one slab section. An empty section's source or target may
/// be a null data() pointer, and memcpy with a null pointer is undefined
/// even for zero bytes, so empty sections are skipped.
void CopySection(void* dst, const void* src, size_t bytes) {
  if (bytes != 0) std::memcpy(dst, src, bytes);
}

Status VerifySectionCrcs(const uint8_t* base, const SlabHeader& h,
                         const std::string& path) {
  if (Crc32(base + h.nodes_off, static_cast<size_t>(NodesBytes(h))) !=
      h.nodes_crc) {
    return Status::InvalidArgument("[nodes-crc] node arena corrupt: " + path);
  }
  if (Crc32(base + h.planes_off, static_cast<size_t>(PlanesBytes(h))) !=
      h.planes_crc) {
    return Status::InvalidArgument("[planes-crc] coordinate planes "
                                   "corrupt: " +
                                   path);
  }
  if (Crc32(base + h.refs_off, static_cast<size_t>(RefsBytes(h))) !=
      h.refs_crc) {
    return Status::InvalidArgument("[refs-crc] refs slab corrupt: " + path);
  }
  return Status::Ok();
}

}  // namespace

/// Fills the scalar fields shared by both open paths. Must be a member:
/// PackedRTree befriends PackedSlabIO, not this file's free helpers.
void PackedSlabIO::SetShape(PackedRTree* out, const void* header) {
  const auto& h = *static_cast<const SlabHeader*>(header);
  out->dims_ = static_cast<size_t>(h.dims);
  out->size_ = static_cast<size_t>(h.size);
  out->height_ = static_cast<size_t>(h.height);
  out->max_node_entries_ = static_cast<size_t>(h.max_node_entries);
  out->plane_stride_ = static_cast<size_t>(h.plane_stride);
}

Status PackedSlabIO::Save(const PackedRTree& packed, const std::string& path) {
  SlabHeader h;
  h.dims = packed.dims();
  h.size = packed.size();
  h.height = packed.height();
  h.max_node_entries = packed.max_node_entries();
  h.plane_stride = packed.plane_stride();
  h.num_nodes = packed.num_nodes();
  h.num_entries = packed.num_entries();
  h.nodes_off = kSlabHeaderBytes;
  h.planes_off = AlignUp(h.nodes_off + NodesBytes(h));
  h.refs_off = AlignUp(h.planes_off + PlanesBytes(h));
  h.file_size = h.refs_off + RefsBytes(h);
  h.nodes_crc =
      Crc32(packed.nodes_data(), static_cast<size_t>(NodesBytes(h)));
  h.planes_crc =
      Crc32(packed.planes_data(), static_cast<size_t>(PlanesBytes(h)));
  h.refs_crc = Crc32(packed.refs_data(), static_cast<size_t>(RefsBytes(h)));

  std::string file = EncodeHeader(h);
  file.resize(static_cast<size_t>(h.file_size), '\0');
  CopySection(file.data() + h.nodes_off, packed.nodes_data(),
              static_cast<size_t>(NodesBytes(h)));
  CopySection(file.data() + h.planes_off, packed.planes_data(),
              static_cast<size_t>(PlanesBytes(h)));
  CopySection(file.data() + h.refs_off, packed.refs_data(),
              static_cast<size_t>(RefsBytes(h)));
  return WriteStringToFile(path, file);
}

Result<PackedRTree> PackedSlabIO::OpenMapped(const std::string& path,
                                             bool verify_checksums) {
  Result<std::shared_ptr<const MappedFile>> mapped = MapFileReadOnly(path);
  WNRS_RETURN_IF_ERROR(mapped.status());
  const std::shared_ptr<const MappedFile>& file = mapped.value();
  SlabHeader h;
  WNRS_RETURN_IF_ERROR(DecodeHeader(file->data(), file->size(), &h, path));
  const auto* base = static_cast<const uint8_t*>(file->data());
  if (verify_checksums) {
    WNRS_RETURN_IF_ERROR(VerifySectionCrcs(base, h, path));
  }
  // The plane section must be 8-byte aligned to read doubles in place;
  // mmap guarantees page alignment, but the bufferred fallback behind
  // MapFileReadOnly on mmap-less platforms does not. Re-open through the
  // copying path in that case rather than read misaligned.
  if (reinterpret_cast<uintptr_t>(base + h.planes_off) % alignof(double) !=
      0) {
    return OpenBuffered(path, verify_checksums);
  }
  PackedRTree out;
  SetShape(&out, &h);
  out.nodes_ =
      reinterpret_cast<const PackedRTree::Node*>(base + h.nodes_off);
  out.planes_ = reinterpret_cast<const double*>(base + h.planes_off);
  out.refs_ = reinterpret_cast<const int64_t*>(base + h.refs_off);
  out.num_nodes_ = static_cast<size_t>(h.num_nodes);
  out.num_entries_ = static_cast<size_t>(h.num_entries);
  out.backing_ = std::shared_ptr<const void>(file, file->data());
  WNRS_RETURN_IF_ERROR(ValidatePacked(out));
  return out;
}

Result<PackedRTree> PackedSlabIO::OpenBuffered(const std::string& path,
                                               bool verify_checksums) {
  std::string bytes;
  WNRS_RETURN_IF_ERROR(ReadFileToString(path, &bytes));
  SlabHeader h;
  WNRS_RETURN_IF_ERROR(DecodeHeader(bytes.data(), bytes.size(), &h, path));
  const auto* base = reinterpret_cast<const uint8_t*>(bytes.data());
  if (verify_checksums) {
    WNRS_RETURN_IF_ERROR(VerifySectionCrcs(base, h, path));
  }
  PackedRTree out;
  SetShape(&out, &h);
  out.nodes_vec_.resize(static_cast<size_t>(h.num_nodes));
  out.planes_vec_.resize(static_cast<size_t>(PlanesBytes(h) /
                                             sizeof(double)));
  out.refs_vec_.resize(static_cast<size_t>(h.num_entries));
  CopySection(out.nodes_vec_.data(), base + h.nodes_off,
              static_cast<size_t>(NodesBytes(h)));
  CopySection(out.planes_vec_.data(), base + h.planes_off,
              static_cast<size_t>(PlanesBytes(h)));
  CopySection(out.refs_vec_.data(), base + h.refs_off,
              static_cast<size_t>(RefsBytes(h)));
  out.SetOwnedViews();
  WNRS_RETURN_IF_ERROR(ValidatePacked(out));
  return out;
}

}  // namespace storage
}  // namespace wnrs
