#pragma once

#include <cstdint>
#include <functional>

#include "util/bitstring.hpp"

namespace telea {

/// A node's path code: the bit string that implicitly encodes every upstream
/// relay from the node to the sink (paper Sec. III-B1). The sink's code is
/// the single bit "0"; each child's code is its parent's code followed by the
/// child's allocated position rendered in the parent's bit-space width.
using PathCode = BitString;

/// Policy knob for Algorithm 1's headroom term. The paper writes
/// χ = N + [10, N/2] for N discovered children; the bracket is ambiguous, but
/// the worked example (Fig. 2: two children -> a 2-bit space) pins it down to
/// a *small* slack that grows with N and saturates — we read it as
/// χ = N + clamp(N/2, 1, 10) and expose the policy for ablation
/// (bench_ablation_space sweeps it).
struct HeadroomPolicy {
  std::uint32_t min_slack = 1;
  std::uint32_t max_slack = 10;
  /// slack = clamp(N / divisor, min_slack, max_slack)
  std::uint32_t divisor = 2;

  [[nodiscard]] std::uint32_t slack(std::uint32_t children) const noexcept {
    const std::uint32_t raw = children / (divisor == 0 ? 1 : divisor);
    return raw < min_slack ? min_slack : (raw > max_slack ? max_slack : raw);
  }
};

/// Algorithm 1 lines 1-6: the bit-space size π a parent provides for its
/// children. `reserve_zero` excludes the all-zero position (see
/// make_child_code); capacity is then 2^π - 1.
[[nodiscard]] std::uint8_t space_bits_for(std::uint32_t children,
                                          const HeadroomPolicy& policy,
                                          bool reserve_zero) noexcept;

/// Derives a child's path code: parent's code with `position` appended in a
/// `space_bits`-wide field (Fig. 3: position 2 in a 5-bit space under prefix
/// p yields "p:00010"). Returns an empty code when it would overflow the
/// 256-bit capacity or the position does not fit the space.
[[nodiscard]] PathCode make_child_code(const PathCode& parent_code,
                                       std::uint32_t position,
                                       std::uint8_t space_bits) noexcept;

/// The sink's initial path code: "0" with one valid bit (Sec. III-B1).
[[nodiscard]] PathCode sink_code() noexcept;

/// Divergence between two codes: how early they split, scored for the
/// Re-Tele detour choice (Sec. III-C4 wants the destination's neighbor whose
/// code differs "to the greatest extent" — i.e. minimal common prefix).
[[nodiscard]] std::size_t code_divergence(const PathCode& a,
                                          const PathCode& b) noexcept;

}  // namespace telea
