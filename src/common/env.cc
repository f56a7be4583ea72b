#include "common/env.h"

#include <cstdlib>

namespace hvac {

std::optional<std::string> env_string(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr) return std::nullopt;
  return std::string(value);
}

std::string env_string_or(const char* name, const std::string& fallback) {
  return env_string(name).value_or(fallback);
}

int64_t env_int_or(const char* name, int64_t fallback) {
  auto value = env_string(name);
  if (!value.has_value() || value->empty()) return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(value->c_str(), &end, 10);
  if (end == value->c_str() || *end != '\0') return fallback;
  return parsed;
}

bool env_bool_or(const char* name, bool fallback) {
  auto value = env_string(name);
  if (!value.has_value()) return fallback;
  return *value == "1" || *value == "true" || *value == "yes" ||
         *value == "on";
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= csv.size()) {
    size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    std::string item = csv.substr(start, comma - start);
    if (!item.empty()) out.push_back(std::move(item));
    start = comma + 1;
  }
  return out;
}

std::string path_join(const std::string& a, const std::string& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  const bool a_slash = a.back() == '/';
  const bool b_slash = b.front() == '/';
  if (a_slash && b_slash) return a + b.substr(1);
  if (!a_slash && !b_slash) return a + "/" + b;
  return a + b;
}

std::string lexically_normal(const std::string& path) {
  const bool absolute = !path.empty() && path.front() == '/';
  std::vector<std::string> parts;
  size_t i = 0;
  while (i < path.size()) {
    size_t j = path.find('/', i);
    if (j == std::string::npos) j = path.size();
    std::string seg = path.substr(i, j - i);
    if (seg.empty() || seg == ".") {
      // skip
    } else if (seg == "..") {
      if (!parts.empty() && parts.back() != "..") {
        parts.pop_back();
      } else if (!absolute) {
        parts.push_back("..");
      }
    } else {
      parts.push_back(std::move(seg));
    }
    i = j + 1;
  }
  if (parts.empty()) return absolute ? "/" : ".";
  std::string out = absolute ? "/" : "";
  for (size_t k = 0; k < parts.size(); ++k) {
    out += parts[k];
    if (k + 1 < parts.size()) out += "/";
  }
  return out;
}

bool path_under(const std::string& path, const std::string& dir) {
  if (dir.empty()) return false;
  std::string p = lexically_normal(path);
  std::string d = lexically_normal(dir);
  if (p.size() < d.size()) return false;
  if (p.compare(0, d.size(), d) != 0) return false;
  return p.size() == d.size() || p[d.size()] == '/' || d == "/";
}

}  // namespace hvac
