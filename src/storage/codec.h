#ifndef WNRS_STORAGE_CODEC_H_
#define WNRS_STORAGE_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

namespace wnrs {
namespace storage {

/// Byte-level encode/decode helpers shared by the binary formats. Values
/// are stored host-endian via memcpy; every format stamps kEndianMarker
/// into its header, so a file from a foreign-endian host is rejected at
/// open ([endianness]) instead of decoding transposed — the same policy
/// that lets the packed slab's coordinate planes map back zero-copy.

/// Little-endian marker stamped into every binary header. A file written
/// on a big-endian host would read back as 0xD4C3B2A1 and be rejected
/// with [endianness] instead of silently transposing every coordinate.
inline constexpr uint32_t kEndianMarker = 0xA1B2C3D4u;

inline void AppendRaw(std::string* out, const void* data, size_t len) {
  out->append(static_cast<const char*>(data), len);
}

template <typename T>
void AppendPod(std::string* out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  AppendRaw(out, &value, sizeof(T));
}

/// Bounds-checked forward reader over an immutable byte range. Every
/// Read* returns false instead of reading past the end, so truncated
/// files surface as clean parse failures.
class ByteReader {
 public:
  ByteReader(const void* data, size_t len)
      : data_(static_cast<const uint8_t*>(data)), len_(len) {}

  [[nodiscard]] bool ReadRaw(void* out, size_t len) {
    if (len > remaining()) return false;
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
    return true;
  }

  template <typename T>
  [[nodiscard]] bool ReadPod(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    return ReadRaw(out, sizeof(T));
  }

  [[nodiscard]] bool Skip(size_t len) {
    if (len > remaining()) return false;
    pos_ += len;
    return true;
  }

  size_t pos() const { return pos_; }
  size_t remaining() const { return len_ - pos_; }
  const uint8_t* cursor() const { return data_ + pos_; }

 private:
  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

}  // namespace storage
}  // namespace wnrs

#endif  // WNRS_STORAGE_CODEC_H_
