#pragma once

#include <limits>
#include <optional>
#include <string_view>
#include <type_traits>

namespace telea {

/// Calls `fn(e)` for each enumerator of E in order: probes the values 0, 1,
/// 2, ... and stops at the first one `name_of` maps to "?" (its fallback past
/// the last enumerator), so appending an enumerator needs no loop bound
/// update. For enums numbered densely from 0; -Werror=switch keeps each
/// `*_name()` switch complete.
template <typename E, typename Fn>
void for_each_enum(const char* (*name_of)(E) noexcept, Fn&& fn) {
  using U = std::underlying_type_t<E>;
  for (unsigned i = 0; i <= std::numeric_limits<U>::max(); ++i) {
    const auto e = static_cast<E>(i);
    if (std::string_view(name_of(e)) == "?") return;
    fn(e);
  }
}

/// Reverse of an enum's `*_name()` mapping, over the enumerators
/// for_each_enum visits.
template <typename E>
[[nodiscard]] std::optional<E> enum_from_name(
    std::string_view name, const char* (*name_of)(E) noexcept) noexcept {
  std::optional<E> found;
  for_each_enum(name_of, [&](E e) {
    if (!found.has_value() && name == name_of(e)) found = e;
  });
  return found;
}

}  // namespace telea
