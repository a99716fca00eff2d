#include "support/hash.hpp"

#include <bit>
#include <cmath>

namespace isex {

std::uint64_t hash_mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value) {
  return hash_mix(seed ^ (value + 0x9E3779B97F4A7C15ULL + (seed << 6) + (seed >> 2)));
}

std::uint64_t hash_bytes(std::string_view bytes, std::uint64_t seed) {
  ByteHasher hasher(seed);
  hasher.update(bytes);
  return hasher.finish();
}

std::uint64_t hash_double(double v) {
  if (std::isnan(v)) return hash_mix(0x7FF8000000000000ULL);
  if (v == 0.0) v = 0.0;  // merge -0.0 and +0.0
  return hash_mix(std::bit_cast<std::uint64_t>(v));
}

std::uint64_t hash_span(std::span<const std::uint64_t> xs, std::uint64_t seed) {
  std::uint64_t h = hash_combine(seed, xs.size());
  for (const std::uint64_t x : xs) h = hash_combine(h, x);
  return h;
}

}  // namespace isex
