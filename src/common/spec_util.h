// Shared tokenization for the comma-separated CLI spec grammars
// (--faults, --jobs, --elastic, ...), the strict numeric flag parse and
// the SQ_THREADS environment reader built on it.
//
// Every spec parser used to hand-roll its own splitting, and the details
// drifted: parse_fault_spec (getline-based) skipped empty segments but
// kept surrounding whitespace, while parse_jobs_spec (manual find loop)
// rejected whitespace outright.  "fail:1@1, slow:2@2x3" parsed or failed
// depending on which flag it was passed to.  These helpers pin one rule
// for every grammar:
//
//   * items are split on ',';
//   * empty segments (leading/trailing/doubled commas) are skipped;
//   * whitespace AROUND an item is trimmed;
//   * whitespace INSIDE an item is an error, enforced by the strict
//     number parses below (a field containing a space never parses).
//
// Header-only on purpose: the parsers live in different libraries
// (sq_sim, sq_runtime, sq_elastic) and this must not add link edges.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace sq::common {

/// True for the ASCII whitespace the spec grammars may see.
inline bool spec_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' ||
         c == '\f';
}

/// Copy of `s` with surrounding ASCII whitespace removed.
inline std::string spec_trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && spec_space(s[b])) ++b;
  while (e > b && spec_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

/// Split a comma-separated spec into trimmed non-empty items.  Trailing /
/// doubled commas and whitespace around items are tolerated uniformly; an
/// all-whitespace spec yields no items.
inline std::vector<std::string> split_spec_items(const std::string& spec) {
  std::vector<std::string> items;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    std::string item = spec_trim(spec.substr(pos, end - pos));
    if (!item.empty()) items.push_back(std::move(item));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return items;
}

/// Strict full-consumption double parse: rejects empty fields, embedded
/// whitespace, and trailing junk ("1 extra", "1.5x").  Never throws.
inline bool parse_spec_double(const std::string& s, double* out) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (spec_space(c)) return false;
  }
  try {
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    if (used != s.size()) return false;
    *out = v;
    return true;
  } catch (...) {
    return false;
  }
}

/// Strict full-consumption base-10 integer parse (same rules as
/// parse_spec_double; additionally rejects signs so device indices and
/// counts read as plain digits).
inline bool parse_spec_uint(const std::string& s, long long* out) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;
  try {
    std::size_t used = 0;
    const long long v = std::stoll(s, &used);
    if (used != s.size()) return false;
    *out = v;
    return true;
  } catch (...) {
    return false;
  }
}

/// Strict numeric flag value (--threads, --theta, ...): the whole of `s`
/// must parse (parse_spec_uint for integral T, so signs are rejected;
/// parse_spec_double otherwise), be finite and lie in [lo, hi].  On success
/// sets *out and returns ""; otherwise returns a one-line diagnostic naming
/// `flag` and leaves *out untouched.
template <typename T>
std::string parse_flag_number(const std::string& flag, const std::string& s, T lo,
                              T hi, T* out) {
  bool ok = false;
  T v{};
  char range[96];
  if constexpr (std::is_integral_v<T>) {
    long long parsed = 0;
    ok = parse_spec_uint(s, &parsed) && std::cmp_greater_equal(parsed, lo) &&
         std::cmp_less_equal(parsed, hi);
    v = static_cast<T>(parsed);
    std::snprintf(range, sizeof range, "an integer in [%lld, %llu]",
                  static_cast<long long>(lo), static_cast<unsigned long long>(hi));
  } else {
    double parsed = 0.0;
    ok = parse_spec_double(s, &parsed) && std::isfinite(parsed) && parsed >= lo &&
         parsed <= hi;
    v = static_cast<T>(parsed);
    std::snprintf(range, sizeof range, "a finite number in [%g, %g]",
                  static_cast<double>(lo), static_cast<double>(hi));
  }
  if (!ok) return "bad " + flag + " '" + s + "' (want " + range + ")";
  *out = v;
  return "";
}

/// Upper bound of every thread-count knob (--threads, SQ_THREADS).
inline constexpr int kMaxThreads = 256;

/// Strict SQ_THREADS value, same rules as --threads: an integer in
/// [0, kMaxThreads].  Returns "" and sets *out, or a one-line diagnostic.
inline std::string parse_threads_env(const std::string& value, int* out) {
  return parse_flag_number("SQ_THREADS", value, 0, kMaxThreads, out);
}

/// Thread count from the SQ_THREADS environment variable: 0 (hardware
/// concurrency) when unset.  A malformed or out-of-range value prints one
/// line and exits 2, before any caller sizes a pool from it.
inline int env_threads() {
  const char* env = std::getenv("SQ_THREADS");
  if (env == nullptr) return 0;
  int n = 0;
  const std::string err = parse_threads_env(env, &n);
  if (!err.empty()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    std::exit(2);
  }
  return n;
}

}  // namespace sq::common
