#include "common/fault_injection.h"

#include <time.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "common/env.h"
#include "common/rng.h"

namespace hvac::fault {

namespace {

constexpr size_t kSiteCount = static_cast<size_t>(Site::kCount);

struct Rule {
  enum class Action { kError, kDelay, kShort };
  Action action = Action::kError;
  ErrorCode code = ErrorCode::kIoError;
  uint32_t delay_ms = 0;
  uint64_t cap_bytes = 0;  // kShort: per-transfer byte budget
  double probability = 1.0;
  uint64_t seed = 0;
  uint64_t after = 0;
  uint64_t max_fires = UINT64_MAX;
  // Per-rule decision index: the k-th check of this rule draws from
  // SplitMix64(seed + k), so the fire/skip sequence is a pure function
  // of the spec, independent of threads' interleaving of *other* rules.
  std::atomic<uint64_t> checks{0};
  std::atomic<uint64_t> fires{0};
};

struct Config {
  std::array<std::vector<std::unique_ptr<Rule>>, kSiteCount> rules;
};

std::mutex g_mutex;
std::shared_ptr<Config> g_config;  // read under g_mutex

struct AtomicSiteStats {
  std::atomic<uint64_t> checks{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> delays{0};
  std::atomic<uint64_t> shorts{0};
};
AtomicSiteStats g_stats[kSiteCount];

Result<Site> parse_site(const std::string& name) {
  for (size_t i = 0; i < kSiteCount; ++i) {
    if (name == site_name(static_cast<Site>(i))) {
      return static_cast<Site>(i);
    }
  }
  return Error(ErrorCode::kInvalidArgument, "unknown fault site: " + name);
}

Result<ErrorCode> parse_code(const std::string& name) {
  if (name == "unavailable") return ErrorCode::kUnavailable;
  if (name == "timeout") return ErrorCode::kTimeout;
  if (name == "io") return ErrorCode::kIoError;
  if (name == "not_found" || name == "notfound") return ErrorCode::kNotFound;
  if (name == "capacity") return ErrorCode::kCapacity;
  if (name == "protocol") return ErrorCode::kProtocol;
  return Error(ErrorCode::kInvalidArgument, "unknown fault code: " + name);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

Result<uint64_t> parse_u64(const std::string& s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') {
    return Error(ErrorCode::kInvalidArgument, "bad integer: " + s);
  }
  return static_cast<uint64_t>(v);
}

// One `site:action[:token]*` rule.
Status parse_rule(const std::string& text, Config* config) {
  const std::vector<std::string> parts = split(text, ':');
  if (parts.size() < 2) {
    return Error(ErrorCode::kInvalidArgument,
                 "fault rule needs site:action — got '" + text + "'");
  }
  HVAC_ASSIGN_OR_RETURN(Site site, parse_site(parts[0]));
  auto rule = std::make_unique<Rule>();

  const std::string& action = parts[1];
  if (action == "error") {
    rule->action = Rule::Action::kError;
  } else if (action.rfind("error=", 0) == 0) {
    rule->action = Rule::Action::kError;
    HVAC_ASSIGN_OR_RETURN(rule->code, parse_code(action.substr(6)));
  } else if (action.rfind("delay_ms=", 0) == 0) {
    rule->action = Rule::Action::kDelay;
    HVAC_ASSIGN_OR_RETURN(uint64_t ms, parse_u64(action.substr(9)));
    rule->delay_ms = static_cast<uint32_t>(ms);
  } else if (action.rfind("short=", 0) == 0) {
    rule->action = Rule::Action::kShort;
    HVAC_ASSIGN_OR_RETURN(rule->cap_bytes, parse_u64(action.substr(6)));
    if (rule->cap_bytes == 0) {
      return Error(ErrorCode::kInvalidArgument, "short=0 would stall");
    }
  } else {
    return Error(ErrorCode::kInvalidArgument,
                 "unknown fault action: " + action);
  }

  for (size_t i = 2; i < parts.size(); ++i) {
    const std::string& token = parts[i];
    if (token.rfind("seed=", 0) == 0) {
      HVAC_ASSIGN_OR_RETURN(rule->seed, parse_u64(token.substr(5)));
    } else if (token.rfind("after=", 0) == 0) {
      HVAC_ASSIGN_OR_RETURN(rule->after, parse_u64(token.substr(6)));
    } else if (token.rfind("count=", 0) == 0) {
      HVAC_ASSIGN_OR_RETURN(rule->max_fires, parse_u64(token.substr(6)));
    } else {
      char* end = nullptr;
      const double p = std::strtod(token.c_str(), &end);
      if (end == token.c_str() || *end != '\0' || p < 0.0 || p > 1.0) {
        return Error(ErrorCode::kInvalidArgument,
                     "bad fault token: " + token);
      }
      rule->probability = p;
    }
  }
  config->rules[static_cast<size_t>(site)].push_back(std::move(rule));
  return Status::Ok();
}

void sleep_ms(uint32_t ms) {
  timespec ts{static_cast<time_t>(ms / 1000),
              static_cast<long>(ms % 1000) * 1'000'000L};
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

}  // namespace

const char* site_name(Site site) {
  switch (site) {
    case Site::kRpcConnect: return "rpc_connect";
    case Site::kRpcSend: return "rpc_send";
    case Site::kRpcRecv: return "rpc_recv";
    case Site::kOpen: return "open";
    case Site::kRead: return "read";
    case Site::kStat: return "stat";
    case Site::kStoreRead: return "store_read";
    case Site::kPfsRead: return "pfs_read";
    case Site::kZcSend: return "zc_send";
    case Site::kJournalAppend: return "journal_append";
    case Site::kJournalFsync: return "journal_fsync";
    case Site::kStoreWrite: return "store_write";
    case Site::kPfsWrite: return "pfs_write";
    case Site::kWriteBarrier: return "write_barrier";
    case Site::kCount: break;
  }
  return "?";
}

namespace detail {

std::atomic<bool> g_enabled{false};

Status inject(Site site) {
  std::shared_ptr<Config> config;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    config = g_config;
  }
  if (!config) return Status::Ok();
  const size_t idx = static_cast<size_t>(site);
  g_stats[idx].checks.fetch_add(1, std::memory_order_relaxed);

  for (const auto& rule : config->rules[idx]) {
    if (rule->action == Rule::Action::kShort) continue;  // cap() only
    const uint64_t k = rule->checks.fetch_add(1, std::memory_order_relaxed);
    if (k < rule->after) continue;
    if (rule->fires.load(std::memory_order_relaxed) >= rule->max_fires) {
      continue;
    }
    if (rule->probability < 1.0 &&
        SplitMix64(rule->seed + k).next_double() >= rule->probability) {
      continue;
    }
    rule->fires.fetch_add(1, std::memory_order_relaxed);
    if (rule->action == Rule::Action::kDelay) {
      g_stats[idx].delays.fetch_add(1, std::memory_order_relaxed);
      sleep_ms(rule->delay_ms);
      continue;  // a delay does not preclude a later error rule
    }
    g_stats[idx].errors.fetch_add(1, std::memory_order_relaxed);
    return Error(rule->code,
                 std::string("injected fault at ") + site_name(site));
  }
  return Status::Ok();
}

size_t cap(Site site, size_t want) {
  std::shared_ptr<Config> config;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    config = g_config;
  }
  if (!config) return want;
  const size_t idx = static_cast<size_t>(site);
  size_t budget = want;
  for (const auto& rule : config->rules[idx]) {
    if (rule->action != Rule::Action::kShort) continue;
    const uint64_t k = rule->checks.fetch_add(1, std::memory_order_relaxed);
    if (k < rule->after) continue;
    if (rule->fires.load(std::memory_order_relaxed) >= rule->max_fires) {
      continue;
    }
    if (rule->probability < 1.0 &&
        SplitMix64(rule->seed + k).next_double() >= rule->probability) {
      continue;
    }
    if (rule->cap_bytes >= budget) continue;  // no-op cap: not a fire
    rule->fires.fetch_add(1, std::memory_order_relaxed);
    g_stats[idx].shorts.fetch_add(1, std::memory_order_relaxed);
    budget = static_cast<size_t>(rule->cap_bytes);
  }
  return budget;
}

}  // namespace detail

Status configure(const std::string& spec) {
  auto config = std::make_shared<Config>();
  bool any = false;
  if (!spec.empty()) {
    for (const std::string& rule : split(spec, ';')) {
      if (rule.empty()) continue;
      HVAC_RETURN_IF_ERROR(parse_rule(rule, config.get()));
      any = true;
    }
  }
  std::lock_guard<std::mutex> lock(g_mutex);
  g_config = any ? std::move(config) : nullptr;
  for (auto& s : g_stats) {
    s.checks.store(0, std::memory_order_relaxed);
    s.errors.store(0, std::memory_order_relaxed);
    s.delays.store(0, std::memory_order_relaxed);
    s.shorts.store(0, std::memory_order_relaxed);
  }
  detail::g_enabled.store(any, std::memory_order_release);
  return Status::Ok();
}

void init_from_env() {
  static std::once_flag once;
  std::call_once(once, [] {
    const auto spec = env_string("HVAC_FAULT");
    if (!spec.has_value() || spec->empty()) return;
    if (Status s = configure(*spec); !s.ok()) {
      // A typo in HVAC_FAULT must not take the process down — report
      // and run clean.
      std::fprintf(stderr, "hvac: ignoring HVAC_FAULT: %s\n",
                   s.error().to_string().c_str());
    }
  });
}

SiteStats stats(Site site) {
  const auto& s = g_stats[static_cast<size_t>(site)];
  return SiteStats{s.checks.load(std::memory_order_relaxed),
                   s.errors.load(std::memory_order_relaxed),
                   s.delays.load(std::memory_order_relaxed),
                   s.shorts.load(std::memory_order_relaxed)};
}

uint64_t total_injected() {
  uint64_t total = 0;
  for (const auto& s : g_stats) {
    total += s.errors.load(std::memory_order_relaxed) +
             s.delays.load(std::memory_order_relaxed) +
             s.shorts.load(std::memory_order_relaxed);
  }
  return total;
}

void reset() { (void)configure(""); }

}  // namespace hvac::fault
