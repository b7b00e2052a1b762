// codec.hpp — versioned binary state codec for the digital twin.
//
// Snapshots must be (a) byte-stable — the same sim state always encodes to
// the same bytes, on every platform, so digests are comparable across
// processes and machine generations — and (b) versioned, so a snapshot
// taken by an older build is either decoded correctly or rejected loudly,
// never misinterpreted. The codec is therefore deliberately boring:
// little-endian fixed-width integers, IEEE-754 bit patterns for doubles
// (NaN payloads preserved; -0.0 and 0.0 are distinct states), and
// length-prefixed strings. Containers encode size first, elements in
// canonical (insertion or key) order — never pointer or hash order.
//
// The digest is 64-bit FNV-1a over the encoded payload. It is a
// determinism fingerprint, not a cryptographic commitment: the equivalence
// suite compares full section bytes whenever digests disagree, so a
// collision cannot hide a real divergence from the tests.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace fluxpower::twin {

/// Malformed or truncated snapshot bytes, or a version this build cannot
/// read. Always an error, never a silent best-effort decode.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

/// Streaming FNV-1a (64-bit): stable across platforms, one multiply per
/// byte — cheap enough to digest every section at capture time.
class Digest64 {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  void update(const void* data, std::size_t n) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t h = h_;
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= kPrime;
    }
    h_ = h;
  }
  std::uint64_t value() const noexcept { return h_; }

  static std::uint64_t of(std::span<const std::uint8_t> bytes) noexcept {
    Digest64 d;
    d.update(bytes.data(), bytes.size());
    return d.value();
  }

 private:
  std::uint64_t h_ = kOffsetBasis;
};

/// Append-only little-endian encoder.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// IEEE-754 bit pattern: NaNs and signed zeros round-trip exactly.
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void bytes(std::span<const std::uint8_t> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  std::size_t size() const noexcept { return buf_.size(); }
  const std::vector<std::uint8_t>& data() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

  /// Patch a previously written u64 in place (section length back-fill).
  void patch_u64(std::size_t offset, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_[offset + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian decoder over a borrowed byte span.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return take(1)[0]; }
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) throw CodecError("ByteReader: bool byte out of range");
    return v == 1;
  }
  std::uint32_t u32() {
    const auto b = take(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    const auto b = take(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    const auto b = take(n);
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
  }
  std::span<const std::uint8_t> raw(std::size_t n) { return take(n); }
  /// Element count of a sequence whose elements take at least
  /// `min_element_bytes` each on the wire. A count the rest of the input
  /// cannot hold is rejected before the caller reserves room for it.
  std::uint32_t count(std::size_t min_element_bytes) {
    const std::uint32_t n = u32();
    if (n > remaining() / min_element_bytes) {
      throw CodecError("ByteReader: count " + std::to_string(n) +
                       " cannot fit in the " + std::to_string(remaining()) +
                       " bytes left");
    }
    return n;
  }

  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
  bool done() const noexcept { return pos_ == bytes_.size(); }

 private:
  std::span<const std::uint8_t> take(std::size_t n) {
    if (n > remaining()) {
      throw CodecError("ByteReader: truncated input (wanted " +
                       std::to_string(n) + " bytes, have " +
                       std::to_string(remaining()) + ")");
    }
    auto s = bytes_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// Four-character section tag packed into a u32 (e.g. "SIM!").
constexpr std::uint32_t fourcc(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

/// Human-readable tag for error messages ("SIM!", "HW!!", ...).
inline std::string fourcc_name(std::uint32_t tag) {
  std::string s(4, '?');
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((tag >> (8 * i)) & 0xff);
    s[static_cast<std::size_t>(i)] = (c >= 32 && c < 127) ? c : '?';
  }
  return s;
}

}  // namespace fluxpower::twin
