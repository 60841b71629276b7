#include "util/bitstring.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace telea {

namespace {
constexpr std::uint64_t kMsb = 0x8000'0000'0000'0000ULL;

// Mask with the top `n` bits set (n in [0,64]).
constexpr std::uint64_t top_mask(std::size_t n) noexcept {
  if (n == 0) return 0;
  if (n >= 64) return ~0ULL;
  return ~0ULL << (64 - n);
}
}  // namespace

BitString BitString::from_string_unchecked(std::string_view bits) noexcept {
  BitString out;
  if (!from_string(bits, out)) return BitString{};
  return out;
}

bool BitString::from_string(std::string_view bits, BitString& out) noexcept {
  if (bits.size() > kCapacity) return false;
  BitString tmp;
  for (char c : bits) {
    if (c != '0' && c != '1') return false;
    (void)tmp.push_back(c == '1');  // size checked against kCapacity above
  }
  out = tmp;
  return true;
}

bool BitString::bit(std::size_t i) const noexcept {
  assert(i < len_);
  return (words_[i / 64] >> (63 - (i % 64))) & 1ULL;
}

void BitString::set_bit(std::size_t i, bool value) noexcept {
  assert(i < len_);
  const std::uint64_t mask = kMsb >> (i % 64);
  if (value) {
    words_[i / 64] |= mask;
  } else {
    words_[i / 64] &= ~mask;
  }
}

bool BitString::push_back(bool value) noexcept {
  if (len_ >= kCapacity) return false;
  ++len_;
  set_bit(len_ - 1, value);
  return true;
}

bool BitString::append_bits(std::uint64_t value, std::size_t width) noexcept {
  if (width > 64 || len_ + width > kCapacity) return false;
  for (std::size_t i = 0; i < width; ++i) {
    (void)push_back((value >> (width - 1 - i)) & 1ULL);  // checked above
  }
  return true;
}

bool BitString::append(const BitString& other) noexcept {
  if (len_ + other.len_ > kCapacity) return false;
  for (std::size_t i = 0; i < other.len_; ++i) {
    (void)push_back(other.bit(i));  // checked above
  }
  return true;
}

void BitString::truncate_back(std::size_t n) noexcept {
  assert(n <= len_);
  resize_front(len_ - n);
}

void BitString::resize_front(std::size_t n) noexcept {
  assert(n <= len_);
  len_ = static_cast<std::uint32_t>(n);
  // Re-establish the zero-padding invariant beyond the new length.
  const std::size_t word = n / 64;
  const std::size_t rem = n % 64;
  if (word < kWords) {
    words_[word] &= top_mask(rem);
    for (std::size_t w = word + 1; w < kWords; ++w) words_[w] = 0;
  }
}

BitString BitString::prefix(std::size_t n) const noexcept {
  assert(n <= len_);
  BitString out = *this;
  out.resize_front(n);
  return out;
}

std::uint64_t BitString::extract_bits(std::size_t pos,
                                      std::size_t width) const noexcept {
  assert(width <= 64 && pos + width <= len_);
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < width; ++i) {
    out = (out << 1) | static_cast<std::uint64_t>(bit(pos + i));
  }
  return out;
}

bool BitString::is_prefix_of(const BitString& other) const noexcept {
  if (len_ > other.len_) return false;
  return common_prefix_len(other) == len_;
}

std::size_t BitString::common_prefix_len(const BitString& other) const noexcept {
  const std::size_t limit = std::min<std::size_t>(len_, other.len_);
  std::size_t matched = 0;
  for (std::size_t w = 0; w < kWords && matched < limit; ++w) {
    const std::uint64_t diff = words_[w] ^ other.words_[w];
    if (diff == 0) {
      matched = std::min<std::size_t>(limit, (w + 1) * 64);
      continue;
    }
    const std::size_t lead = static_cast<std::size_t>(std::countl_zero(diff));
    matched = std::min<std::size_t>(limit, w * 64 + lead);
    break;
  }
  return matched;
}

std::string BitString::to_string() const {
  std::string out;
  out.reserve(len_);
  for (std::size_t i = 0; i < len_; ++i) out.push_back(bit(i) ? '1' : '0');
  return out;
}

std::string BitString::to_display(std::size_t width) const {
  std::string out = to_string();
  while (out.size() < width) out.push_back('-');
  return out;
}

bool operator<(const BitString& a, const BitString& b) noexcept {
  for (std::size_t w = 0; w < BitString::kWords; ++w) {
    if (a.words_[w] != b.words_[w]) return a.words_[w] < b.words_[w];
  }
  return a.len_ < b.len_;
}

std::size_t BitString::hash() const noexcept {
  // FNV-1a over the packed words plus the length.
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (std::uint64_t w : words_) mix(w);
  mix(len_);
  return static_cast<std::size_t>(h);
}

}  // namespace telea
