// FNV-1a 64-bit: the one byte-mixing hash behind malisim's content
// addresses (compile-cache and tuning-cache keys, FaultPlan digests) and its
// per-cell / per-job seeds.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

namespace malisim {

/// Incremental FNV-1a. Integers are folded in least-significant byte first
/// and doubles by bit pattern, so a digest depends only on the values mixed
/// and their order.
class Fnv1a {
 public:
  Fnv1a& Byte(std::uint8_t byte) {
    h_ ^= byte;
    h_ *= 0x100000001b3ULL;
    return *this;
  }
  Fnv1a& Bytes(std::string_view bytes) {
    for (const char c : bytes) Byte(static_cast<std::uint8_t>(c));
    return *this;
  }
  /// The low `width` bytes of `v`.
  Fnv1a& Int(std::uint64_t v, int width = 8) {
    for (int i = 0; i < width; ++i) Byte(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }
  Fnv1a& Double(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return Int(bits);
  }

  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;  // offset basis
};

/// FNV-1a digest of a byte string.
inline std::uint64_t Fnv1a64(std::string_view text) {
  return Fnv1a().Bytes(text).digest();
}

}  // namespace malisim
