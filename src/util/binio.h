// Bounds-checked binary codec shared by every format the library reads
// and writes (DESIGN §6b): .sgc checkpoints (SGCP), SGNN parameter
// files, .sgt tensors (SGST) and the serve frames (SGRQ, SGRW, SGDN,
// SGER). Values are trivially copyable, native-endian and packed.
//
// The Reader is where untrusted bytes are judged: every read is
// bounds-checked, and fitting_count() accepts declared extents only if
// the array they describe fits in the bytes left, so a decoder checks
// before it allocates. Its error type is a parameter: the serve decoders
// throw ProtocolError, every other decoder spectra::Error.

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "util/error.h"

namespace spectra::binio {

// The buffer of every encoded file and frame payload.
using Bytes = std::vector<std::uint8_t>;

// Product of `extents` when every extent is non-negative and the product
// fits in a long; nullopt otherwise.
std::optional<long> checked_count(std::span<const long> extents);

// checked_count(extents), provided that many T fit in `bytes`.
template <class T>
std::optional<std::size_t> fitting_count(std::span<const long> extents, std::size_t bytes) {
  const std::optional<long> count = checked_count(extents);
  if (!count || static_cast<std::size_t>(*count) > bytes / sizeof(T)) return std::nullopt;
  return static_cast<std::size_t>(*count);
}

// FNV-1a 64 digest (the SGCP section checksum).
std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes);

class Writer {
 public:
  template <class T>
  void put(const T& value) {
    put_array(&value, 1);
  }

  template <class T>
  void put_array(const T* values, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count == 0) return;
    const auto* first = reinterpret_cast<const std::uint8_t*>(values);
    buf_.insert(buf_.end(), first, first + count * sizeof(T));
  }

  const Bytes& bytes() const { return buf_; }
  Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

template <class E = Error>
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  template <class T>
  T get() {
    T value{};
    get_array(&value, 1);
    return value;
  }

  // A zero-length read copies nothing, so `out` may then be the null
  // data() of an empty vector or tensor.
  template <class T>
  void get_array(T* out, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count > remaining() / sizeof(T)) truncated();
    if (count != 0) std::memcpy(out, bytes_.data() + pos_, count * sizeof(T));
    pos_ += count * sizeof(T);
  }

  std::string get_string(std::size_t size) {
    const std::span<const std::uint8_t> chars = take(size);
    return std::string(chars.begin(), chars.end());
  }

  // The next `size` bytes, consumed.
  std::span<const std::uint8_t> take(std::size_t size) {
    if (size > remaining()) truncated();
    pos_ += size;
    return bytes_.subspan(pos_ - size, size);
  }

  // binio::fitting_count over the bytes left; throws E when it fails.
  template <class T>
  std::size_t fitting_count(std::span<const long> extents) const {
    const std::optional<std::size_t> count = binio::fitting_count<T>(extents, remaining());
    if (!count) {
      throw E("declared extents exceed the " + std::to_string(remaining()) + " bytes left");
    }
    return *count;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }

  void expect_end() const {
    if (remaining() != 0) throw E(std::to_string(remaining()) + " trailing bytes");
  }

 private:
  [[noreturn]] void truncated() const {
    throw E("truncated at byte " + std::to_string(pos_) + " of " + std::to_string(bytes_.size()));
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

// The whole file. Throws spectra::Error when it cannot be read.
Bytes read_file(const std::string& path);

// Durably replaces `path` with head followed by tail: write `<path>.tmp`,
// fsync, rename into place, fsync the directory. A crash leaves the old
// file or the new one at `path`, never a torn one. Throws spectra::Error.
void write_file_atomic(const std::string& path, std::span<const std::byte> head,
                       std::span<const std::byte> tail = {});

}  // namespace spectra::binio
