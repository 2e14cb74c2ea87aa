// Byte-buffer serialization for key-value entries and command packets.
//
// The paper serializes metadata values ("the value entry in the key-value
// store is a serialized data containing object location and metadata") and
// uses small binary command packets between domains; this writer/reader pair
// is the wire format for both. Integers are little-endian fixed width;
// strings and blobs are length-prefixed.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/common/result.hpp"

namespace c4h {

using Buffer = std::vector<std::uint8_t>;

namespace serial_detail {
// Underlying integral type for the wire: enums map to their underlying type,
// integers map to themselves (lazily, so non-enums never instantiate
// std::underlying_type).
template <typename T>
using wire_int_t = std::make_unsigned_t<
    typename std::conditional_t<std::is_enum_v<T>, std::underlying_type<T>,
                                std::type_identity<T>>::type>;
}  // namespace serial_detail

class Writer {
 public:
  Writer() = default;
  /// Reserves `capacity` bytes, so a caller that knows (or bounds) its
  /// encoded size allocates once.
  explicit Writer(std::size_t capacity) { buf_.reserve(capacity); }

  template <typename T>
    requires std::is_integral_v<T> || std::is_enum_v<T>
  void write(T v) {
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof(serial_detail::wire_int_t<T>));
    write_at(at, v);
  }

  /// Overwrites the fixed-width integer already written at byte offset `at`,
  /// e.g. a length header that is known only once the body is written.
  template <typename T>
    requires std::is_integral_v<T> || std::is_enum_v<T>
  void write_at(std::size_t at, T v) {
    using U = serial_detail::wire_int_t<T>;
    auto u = static_cast<U>(v);
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      buf_[at + i] = static_cast<std::uint8_t>(u >> (8 * i));
    }
  }

  void write(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    write(bits);
  }

  void write(bool v) { write(static_cast<std::uint8_t>(v ? 1 : 0)); }

  void write(std::string_view s) {
    write(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void write(const std::string& s) { write(std::string_view{s}); }
  void write(const char* s) { write(std::string_view{s}); }

  void write_bytes(const Buffer& b) {
    write(static_cast<std::uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  template <typename T, typename Fn>
  void write_vector(const std::vector<T>& v, Fn&& per_element) {
    write(static_cast<std::uint32_t>(v.size()));
    for (const auto& e : v) per_element(*this, e);
  }

  const Buffer& buffer() const& { return buf_; }
  Buffer take() && { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  Buffer buf_;
};

class Reader {
 public:
  explicit Reader(const Buffer& buf) : buf_(buf) {}

  template <typename T>
    requires std::is_integral_v<T> || std::is_enum_v<T>
  Result<T> read() {
    using U = serial_detail::wire_int_t<T>;
    if (remaining() < sizeof(U)) return Errc::io_error;
    U u = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      u |= static_cast<U>(U{buf_[pos_ + i]} << (8 * i));
    }
    pos_ += sizeof(U);
    return static_cast<T>(u);
  }

  Result<double> read_double() {
    auto bits = read<std::uint64_t>();
    if (!bits) return bits.error();
    double v;
    std::memcpy(&v, &*bits, sizeof(v));
    return v;
  }

  Result<bool> read_bool() {
    auto b = read<std::uint8_t>();
    if (!b) return b.error();
    return *b != 0;
  }

  Result<std::string> read_string() {
    auto len = read<std::uint32_t>();
    if (!len) return len.error();
    if (remaining() < *len) return Errc::io_error;
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), *len);
    pos_ += *len;
    return s;
  }

  Result<Buffer> read_bytes() {
    auto len = read<std::uint32_t>();
    if (!len) return len.error();
    if (remaining() < *len) return Errc::io_error;
    Buffer b(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
             buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + *len));
    pos_ += *len;
    return b;
  }

  template <typename T, typename Fn>
  Result<std::vector<T>> read_vector(Fn&& per_element) {
    auto n = read<std::uint32_t>();
    if (!n) return n.error();
    std::vector<T> v;
    v.reserve(*n);
    for (std::uint32_t i = 0; i < *n; ++i) {
      Result<T> e = per_element(*this);
      if (!e) return e.error();
      v.push_back(std::move(*e));
    }
    return v;
  }

  std::size_t remaining() const { return buf_.size() - pos_; }
  bool at_end() const { return pos_ == buf_.size(); }

 private:
  const Buffer& buf_;
  std::size_t pos_ = 0;
};

}  // namespace c4h
