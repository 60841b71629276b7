#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace telea {

/// A fixed-capacity, variable-length string of bits, most-significant first.
///
/// This is the representation of TeleAdjusting *path codes*: a short binary
/// string in which a node's entire upstream relay chain is implicitly encoded
/// (paper Sec. III-B). The paper measures at most 20 valid bits on a 6-hop
/// testbed and ~40 bits on its 225-node tight field; the deep Sparse-linear
/// field (~30 hops at ~4 bits per hop) needs well over 128, so we provision
/// 256 bits while keeping the value type trivially copyable (four machine
/// words + a length).
///
/// Bit 0 is the first (root-most) bit of the code. Bits are stored packed in
/// 64-bit words, MSB-first within each word, so lexicographic comparison of
/// codes matches numeric comparison of the padded words.
class BitString {
 public:
  static constexpr std::size_t kCapacity = 256;

  constexpr BitString() = default;

  /// Parses a string of '0'/'1' characters (other characters are rejected).
  /// Returns an all-zero, zero-length string when the input is malformed or
  /// longer than capacity; use `from_string` for checked construction.
  static BitString from_string_unchecked(std::string_view bits) noexcept;

  /// Checked parse: returns false (and leaves `out` untouched) on bad input.
  static bool from_string(std::string_view bits, BitString& out) noexcept;

  /// Number of valid bits.
  [[nodiscard]] constexpr std::size_t size() const noexcept { return len_; }
  [[nodiscard]] constexpr bool empty() const noexcept { return len_ == 0; }

  /// Value of bit `i` (0-based from the front). Precondition: i < size().
  [[nodiscard]] bool bit(std::size_t i) const noexcept;

  /// Sets bit `i`. Precondition: i < size().
  void set_bit(std::size_t i, bool value) noexcept;

  /// Appends a single bit. Returns false (unchanged) when at capacity.
  /// The capacity mutators are [[nodiscard]]: path-code arithmetic that
  /// truncates silently misroutes a command, and the build promotes a
  /// discarded result to an error (-Werror=unused-result).
  [[nodiscard]] bool push_back(bool value) noexcept;

  /// Appends the low `width` bits of `value`, most-significant first.
  /// Returns false (unchanged) when the result would exceed capacity or
  /// width > 64.
  [[nodiscard]] bool append_bits(std::uint64_t value,
                                 std::size_t width) noexcept;

  /// Appends all bits of `other`. Returns false (unchanged) on overflow.
  [[nodiscard]] bool append(const BitString& other) noexcept;

  /// Removes the trailing `n` bits. Precondition: n <= size().
  void truncate_back(std::size_t n) noexcept;

  /// Keeps only the first `n` bits. Precondition: n <= size().
  void resize_front(std::size_t n) noexcept;

  /// The first `n` bits as a new BitString. Precondition: n <= size().
  [[nodiscard]] BitString prefix(std::size_t n) const noexcept;

  /// The low `width` bits starting at `pos`, as an integer (MSB-first).
  /// Precondition: pos + width <= size() and width <= 64.
  [[nodiscard]] std::uint64_t extract_bits(std::size_t pos,
                                           std::size_t width) const noexcept;

  /// True when *this (all of it) is a prefix of `other`.
  [[nodiscard]] bool is_prefix_of(const BitString& other) const noexcept;

  /// Length of the longest common prefix with `other`.
  [[nodiscard]] std::size_t common_prefix_len(
      const BitString& other) const noexcept;

  /// '0'/'1' rendering of the valid bits.
  [[nodiscard]] std::string to_string() const;

  /// Rendering padded with '-' to a fixed display width (paper-style, e.g.
  /// "00101---" for a 5-valid-bit code shown in an 8-bit field).
  [[nodiscard]] std::string to_display(std::size_t width) const;

  friend bool operator==(const BitString& a, const BitString& b) noexcept {
    return a.len_ == b.len_ && a.words_ == b.words_;
  }
  friend bool operator!=(const BitString& a, const BitString& b) noexcept {
    return !(a == b);
  }

  /// Lexicographic order on the bit sequence (shorter prefix sorts first).
  friend bool operator<(const BitString& a, const BitString& b) noexcept;

  /// Stable hash of (bits, length) for use in unordered containers.
  [[nodiscard]] std::size_t hash() const noexcept;

 private:
  static constexpr std::size_t kWords = kCapacity / 64;

  // Padded with zero bits beyond len_; all mutators maintain this invariant
  // so equality and ordering can compare whole words.
  std::array<std::uint64_t, kWords> words_{};
  std::uint32_t len_ = 0;
};

struct BitStringHash {
  std::size_t operator()(const BitString& b) const noexcept {
    return b.hash();
  }
};

}  // namespace telea
