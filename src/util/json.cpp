#include "util/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace telea {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> value() {
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't': return literal("true", JsonValue(true));
      case 'f': return literal("false", JsonValue(false));
      case 'n': return literal("null", JsonValue());
      default: return number();
    }
  }

  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

 private:
  std::optional<JsonValue> literal(std::string_view word, JsonValue result) {
    if (text_.substr(pos_, word.size()) != word) return std::nullopt;
    pos_ += word.size();
    return result;
  }

  std::optional<JsonValue> number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    bool digits = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      digits = digits || std::isdigit(static_cast<unsigned char>(text_[pos_]));
      ++pos_;
    }
    if (!digits) return std::nullopt;
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return std::nullopt;
    return JsonValue(v);
  }

  std::optional<std::string> string_body() {
    if (pos_ >= text_.size() || text_[pos_] != '"') return std::nullopt;
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return std::nullopt;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return std::nullopt;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return std::nullopt;
          }
          // Encode as UTF-8 (good enough for the BMP; exports only emit
          // control characters this way).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<JsonValue> string_value() {
    auto body = string_body();
    if (!body.has_value()) return std::nullopt;
    return JsonValue(std::move(*body));
  }

  std::optional<JsonValue> array() {
    ++pos_;  // '['
    JsonValue out;
    out.type_ = JsonValue::Type::kArray;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return out;
    }
    while (true) {
      auto element = value();
      if (!element.has_value()) return std::nullopt;
      out.array_.push_back(std::move(*element));
      skip_ws();
      if (pos_ >= text_.size()) return std::nullopt;
      const char c = text_[pos_++];
      if (c == ']') return out;
      if (c != ',') return std::nullopt;
    }
  }

  std::optional<JsonValue> object() {
    ++pos_;  // '{'
    JsonValue out;
    out.type_ = JsonValue::Type::kObject;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return out;
    }
    while (true) {
      skip_ws();
      auto key = string_body();
      if (!key.has_value()) return std::nullopt;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return std::nullopt;
      ++pos_;
      auto member = value();
      if (!member.has_value()) return std::nullopt;
      out.object_.emplace(std::move(*key), std::move(*member));
      skip_ws();
      if (pos_ >= text_.size()) return std::nullopt;
      const char c = text_[pos_++];
      if (c == '}') return out;
      if (c != ',') return std::nullopt;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->type() == Type::kNumber) ? v->as_number()
                                                      : fallback;
}

std::string JsonValue::string_or(const std::string& key,
                                 std::string fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->type() == Type::kString) ? v->as_string()
                                                      : fallback;
}

std::optional<JsonValue> JsonValue::parse(std::string_view text) {
  JsonParser p(text);
  auto v = p.value();
  if (!v.has_value()) return std::nullopt;
  p.skip_ws();
  if (p.pos() != text.size()) return std::nullopt;  // trailing garbage
  return v;
}

std::string JsonValue::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::optional<JsonValue> JsonlObjects::next() {
  while (pos_ < text_.size()) {
    std::size_t eol = text_.find('\n', pos_);
    if (eol == std::string_view::npos) eol = text_.size();
    const std::string_view line = text_.substr(pos_, eol - pos_);
    pos_ = eol + 1;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    auto doc = JsonValue::parse(line);
    if (doc.has_value() && doc->type() == JsonValue::Type::kObject) {
      return doc;
    }
    ++skipped_;
  }
  return std::nullopt;
}

}  // namespace telea
