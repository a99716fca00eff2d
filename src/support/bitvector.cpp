#include "support/bitvector.hpp"

#include <sstream>

namespace isex {

std::size_t BitVector::count() const {
  std::size_t n = 0;
  for (std::uint64_t w : words_) n += static_cast<std::size_t>(__builtin_popcountll(w));
  return n;
}

bool BitVector::any() const {
  for (std::uint64_t w : words_)
    if (w != 0) return true;
  return false;
}

bool BitVector::disjoint_with(const BitVector& other) const {
  check_same_domain(other);
  for (std::size_t i = 0; i < words_.size(); ++i)
    if ((words_[i] & other.words_[i]) != 0) return false;
  return true;
}

bool BitVector::subset_of(const BitVector& other) const {
  check_same_domain(other);
  for (std::size_t i = 0; i < words_.size(); ++i)
    if ((words_[i] & ~other.words_[i]) != 0) return false;
  return true;
}

BitVector& BitVector::operator|=(const BitVector& other) {
  check_same_domain(other);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

BitVector& BitVector::or_words(const std::uint64_t* row) {
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= row[i];
  return *this;
}

BitVector& BitVector::operator&=(const BitVector& other) {
  check_same_domain(other);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

BitVector& BitVector::operator-=(const BitVector& other) {
  check_same_domain(other);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
  return *this;
}

std::vector<std::size_t> BitVector::set_bits() const {
  std::vector<std::size_t> out;
  out.reserve(count());
  for_each([&](std::size_t i) { out.push_back(i); });
  return out;
}

std::string BitVector::to_string() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for_each([&](std::size_t i) {
    if (!first) os << ", ";
    first = false;
    os << i;
  });
  os << "}";
  return os.str();
}

std::size_t BitVector::hash() const {
  std::size_t h = size_ * 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t w : words_) h = (h ^ w) * 0x100000001b3ULL;
  return h;
}

}  // namespace isex
