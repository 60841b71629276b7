#include "core/path_code.hpp"

namespace telea {

std::uint8_t space_bits_for(std::uint32_t children,
                            const HeadroomPolicy& policy,
                            bool reserve_zero) noexcept {
  const std::uint32_t chi = children + policy.slack(children);
  std::uint8_t bits = 1;
  // Capacity is 2^bits, minus one when the zero position is reserved.
  auto capacity = [reserve_zero](std::uint8_t b) -> std::uint64_t {
    const std::uint64_t raw = 1ULL << b;
    return reserve_zero ? raw - 1 : raw;
  };
  while (capacity(bits) < chi && bits < 32) ++bits;
  return bits;
}

PathCode make_child_code(const PathCode& parent_code, std::uint32_t position,
                         std::uint8_t space_bits) noexcept {
  if (space_bits == 0 || space_bits > 32) return PathCode{};
  if (space_bits < 32 && position >= (1ULL << space_bits)) return PathCode{};
  PathCode code = parent_code;
  if (!code.append_bits(position, space_bits)) return PathCode{};
  return code;
}

PathCode sink_code() noexcept {
  PathCode code;
  (void)code.push_back(false);  // one bit into an empty code always fits
  return code;
}

std::size_t code_divergence(const PathCode& a, const PathCode& b) noexcept {
  const std::size_t shared = a.common_prefix_len(b);
  // Score: bits that differ, summed over both codes. Maximal when the codes
  // split immediately below the sink.
  return (a.size() - shared) + (b.size() - shared);
}

}  // namespace telea
