#pragma once

#include <limits>
#include <optional>
#include <string_view>
#include <type_traits>

namespace telea {

/// Reverse of an enum's `*_name()` mapping: probes the values 0, 1, 2, ...
/// and stops at the first one `name_of` maps to "?" (its fallback past the
/// last enumerator), so appending an enumerator needs no loop bound update.
/// For enums numbered densely from 0; -Werror=switch keeps each `*_name()`
/// switch complete.
template <typename E>
[[nodiscard]] std::optional<E> enum_from_name(
    std::string_view name, const char* (*name_of)(E) noexcept) noexcept {
  using U = std::underlying_type_t<E>;
  for (unsigned i = 0; i <= std::numeric_limits<U>::max(); ++i) {
    const auto e = static_cast<E>(i);
    const std::string_view n = name_of(e);
    if (n == "?") break;
    if (n == name) return e;
  }
  return std::nullopt;
}

}  // namespace telea
