// Deterministic 64-bit hashing primitives shared by the cache fingerprints.
// Streams are stable across platforms and standard libraries (no std::hash),
// so persisted cache files hash-match across runs and machines.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace isex {

/// Golden-ratio seed used as the starting state of every hash chain.
inline constexpr std::uint64_t kHashSeed = 0x9E3779B97F4A7C15ULL;

/// splitmix64 finalizer: a full-avalanche bijective mixer.
std::uint64_t hash_mix(std::uint64_t x);

/// Folds `value` into `seed` (order-dependent).
std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value);

/// FNV-1a over the bytes, finished through hash_mix.
std::uint64_t hash_bytes(std::string_view bytes, std::uint64_t seed = kHashSeed);

/// hash_bytes over a byte stream that arrives in pieces: feeding a, then b,
/// finishes to hash_bytes(a + b), bit for bit.
class ByteHasher {
 public:
  explicit ByteHasher(std::uint64_t seed = kHashSeed) : state_(0xCBF29CE484222325ULL ^ seed) {}

  void update(std::string_view bytes) {
    for (const char c : bytes) {
      state_ ^= static_cast<unsigned char>(c);
      state_ *= 0x100000001B3ULL;
    }
  }
  std::uint64_t finish() const { return hash_mix(state_); }

 private:
  std::uint64_t state_;
};

/// Bit-pattern hash with -0.0 canonicalised to +0.0 and every NaN collapsed
/// to one value, so equal-comparing doubles hash equal.
std::uint64_t hash_double(double v);

/// Order-dependent hash of a word sequence.
std::uint64_t hash_span(std::span<const std::uint64_t> xs, std::uint64_t seed = kHashSeed);

}  // namespace isex
