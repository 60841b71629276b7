#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace telea {

/// Minimal JSON document model + recursive-descent parser. Exists so the
/// observability exports (metrics JSON, JSONL traces, bench summaries) can be
/// round-trip tested and re-loaded by tools without an external dependency.
/// Full JSON except \uXXXX escapes beyond Latin-1 (parsed, emitted verbatim).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  explicit JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
  explicit JsonValue(double n) : type_(Type::kNumber), number_(n) {}
  explicit JsonValue(std::string s) : type_(Type::kString), string_(std::move(s)) {}

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool as_bool() const noexcept { return bool_; }
  [[nodiscard]] double as_number() const noexcept { return number_; }
  [[nodiscard]] const std::string& as_string() const noexcept { return string_; }
  [[nodiscard]] const std::vector<JsonValue>& as_array() const noexcept {
    return array_;
  }
  [[nodiscard]] const std::map<std::string, JsonValue>& as_object()
      const noexcept {
    return object_;
  }

  /// Object member lookup, or nullptr when absent / not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

  /// Convenience typed getters with defaults (for tolerant tool code).
  [[nodiscard]] double number_or(const std::string& key, double fallback) const;
  [[nodiscard]] std::string string_or(const std::string& key,
                                      std::string fallback) const;

  /// Parses one JSON document from `text`. Returns nullopt on malformed
  /// input. Trailing whitespace is allowed; trailing garbage is not.
  static std::optional<JsonValue> parse(std::string_view text);

  /// Escapes `s` as the contents of a JSON string literal (no quotes).
  static std::string escape(std::string_view s);

 private:
  friend class JsonParser;
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Walks JSONL text one object line at a time. Blank lines are passed
/// over; a line that is not a JSON object is skipped and counted, so a
/// reader can report damage instead of stopping at it.
///
///   JsonlObjects lines(text);
///   while (const auto doc = lines.next()) use(*doc);
class JsonlObjects {
 public:
  explicit JsonlObjects(std::string_view text) : text_(text) {}

  /// The next object line, or nullopt once the text is used up.
  std::optional<JsonValue> next();

  /// Non-blank lines passed over so far because they were not an object.
  [[nodiscard]] std::size_t skipped() const noexcept { return skipped_; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t skipped_ = 0;
};

}  // namespace telea
