// Environment-variable helpers. HVAC is configured entirely through
// the environment (paper §III-C: HVAC_DATASET_DIR selects the cached
// subtree; the server map and instance counts are also env-driven so
// the LD_PRELOAD shim can bootstrap without any code in the
// application).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hvac {

std::optional<std::string> env_string(const char* name);
std::string env_string_or(const char* name, const std::string& fallback);
int64_t env_int_or(const char* name, int64_t fallback);
bool env_bool_or(const char* name, bool fallback);

// Splits a comma-separated list ("host:1234,host:1235").
std::vector<std::string> split_csv(const std::string& csv);

// Joins path segments with a single '/'.
std::string path_join(const std::string& a, const std::string& b);

// True when `path` is lexically under directory `dir` (or equal).
bool path_under(const std::string& path, const std::string& dir);

// Lexically normalizes "a//b/./c" -> "a/b/c" (no filesystem access, so
// it is safe inside the interception shim).
std::string lexically_normal(const std::string& path);

// `path` relative to `dir`, which must be lexically normal: "." for
// `dir` itself, nullopt when `path` is not under it — what normalizing
// `path` and stripping `dir` would give. Every open asks, so an
// absolute path that is already normal (no "//", "/./", "/../" or
// trailing '/') under an absolute `dir` is compared in place:
// under_dir() allocates nothing and relative_under() only its answer.
// Any other path is normalized first.
std::optional<std::string> relative_under(const std::string& path,
                                          const std::string& dir);
bool under_dir(const std::string& path, const std::string& dir);

}  // namespace hvac
