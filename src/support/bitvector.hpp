// A fixed-size dynamic bit vector used to represent cuts (subgraphs) and
// reachability rows. Sized at construction; all operations bounds-checked.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "support/assert.hpp"

namespace isex {

class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(std::size_t size) : size_(size), words_((size + 63) / 64, 0) {}

  std::size_t size() const { return size_; }
  bool empty_domain() const { return size_ == 0; }

  void set(std::size_t i) {
    check_index(i);
    words_[i >> 6] |= (std::uint64_t{1} << (i & 63));
  }
  void reset(std::size_t i) {
    check_index(i);
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  void assign(std::size_t i, bool value) { value ? set(i) : reset(i); }
  bool test(std::size_t i) const {
    check_index(i);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  void clear() { std::fill(words_.begin(), words_.end(), 0); }

  /// Number of set bits.
  std::size_t count() const;
  bool any() const;
  bool none() const { return !any(); }

  /// True if no bit is set in both vectors.
  bool disjoint_with(const BitVector& other) const;
  /// True if every set bit of *this is also set in other.
  bool subset_of(const BitVector& other) const;

  BitVector& operator|=(const BitVector& other);
  BitVector& operator&=(const BitVector& other);
  BitVector& operator-=(const BitVector& other);  // set difference
  /// ORs in num_words() raw words in the layout of words(), e.g. a Dfg row
  /// over the same nodes; their bits past size() must be zero.
  BitVector& or_words(const std::uint64_t* row);

  friend bool operator==(const BitVector& a, const BitVector& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

  /// Calls fn(index) for every set bit in ascending order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        fn(w * 64 + static_cast<std::size_t>(b));
        bits &= bits - 1;
      }
    }
  }

  /// Indices of all set bits, ascending.
  std::vector<std::size_t> set_bits() const;

  /// Raw little-endian 64-bit words backing the vector (bit i lives at word
  /// i/64, bit i%64). Tail bits beyond size() are always zero. A Dfg's
  /// closure rows share this layout, so a cut's words AND against them
  /// directly.
  const std::uint64_t* words() const { return words_.data(); }
  std::size_t num_words() const { return words_.size(); }

  /// "{1, 4, 7}" — for diagnostics and test failure messages.
  std::string to_string() const;

  std::size_t hash() const;

 private:
  void check_index(std::size_t i) const {
    ISEX_ASSERT(i < size_, "BitVector index out of range");
  }
  void check_same_domain(const BitVector& other) const {
    ISEX_ASSERT(size_ == other.size_, "BitVector domain mismatch");
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

struct BitVectorHash {
  std::size_t operator()(const BitVector& v) const { return v.hash(); }
};

}  // namespace isex
