#include "util/config.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "util/text_file.hpp"

namespace telea {

namespace {

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

}  // namespace

Config Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 0; i < argc; ++i) {
    const std::string_view token = argv[i];
    const auto eq = token.find('=');
    if (eq == std::string_view::npos) {
      cfg.positional_.emplace_back(token);
      continue;
    }
    cfg.set(trim(token.substr(0, eq)), trim(token.substr(eq + 1)));
  }
  return cfg;
}

std::optional<Config> Config::from_file(const std::string& path) {
  const auto text = read_text_file(path);
  if (!text.has_value()) return std::nullopt;
  Config cfg;
  std::string_view rest = *text;
  while (!rest.empty()) {
    const auto eol = rest.find('\n');
    std::string_view sv = rest.substr(0, eol);
    rest = eol == std::string_view::npos ? std::string_view{}
                                         : rest.substr(eol + 1);
    // Strip comments.
    if (const auto hash = sv.find('#'); hash != std::string_view::npos) {
      sv = sv.substr(0, hash);
    }
    const std::string line = trim(sv);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) return std::nullopt;  // malformed: fail fast
    cfg.set(trim(std::string_view(line).substr(0, eq)),
            trim(std::string_view(line).substr(eq + 1)));
  }
  return cfg;
}

void Config::merge(const Config& other) {
  for (const auto& [k, v] : other.values_) values_[k] = v;
  positional_.insert(positional_.end(), other.positional_.begin(),
                     other.positional_.end());
}

void Config::set(std::string key, std::string value) {
  values_[std::move(key)] = std::move(value);
}

bool Config::has(std::string_view key) const {
  return values_.find(key) != values_.end();
}

std::string Config::get_string(std::string_view key,
                               std::string default_value) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  read_[it->first] = true;
  return it->second;
}

std::optional<std::int64_t> Config::get_int_checked(
    std::string_view key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  read_[it->first] = true;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 0);
  if (end == it->second.c_str() || *end != '\0') return std::nullopt;
  return static_cast<std::int64_t>(v);
}

std::optional<double> Config::get_double_checked(std::string_view key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  read_[it->first] = true;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') return std::nullopt;
  return v;
}

std::optional<bool> Config::get_bool_checked(std::string_view key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  read_[it->first] = true;
  std::string v = it->second;
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  return std::nullopt;
}

std::int64_t Config::get_int(std::string_view key,
                             std::int64_t default_value) const {
  return get_int_checked(key).value_or(default_value);
}

double Config::get_double(std::string_view key, double default_value) const {
  return get_double_checked(key).value_or(default_value);
}

bool Config::get_bool(std::string_view key, bool default_value) const {
  return get_bool_checked(key).value_or(default_value);
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, v] : values_) out.push_back(k);
  return out;
}

std::vector<std::string> Config::unused_keys() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : values_) {
    const auto it = read_.find(k);
    if (it == read_.end() || !it->second) out.push_back(k);
  }
  return out;
}

}  // namespace telea
