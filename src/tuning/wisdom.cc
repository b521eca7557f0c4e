#include "tuning/wisdom.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>

#include "common/fault.h"
#include "lowino/engine_config.h"

namespace lowino {

void WisdomStore::put(const std::string& key, const Int8GemmBlocking& blocking) {
  entries_[key] = blocking;
}

std::optional<Int8GemmBlocking> WisdomStore::get(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

bool WisdomStore::put_string(const std::string& key, const std::string& value) {
  if (key.find('\n') != std::string::npos || value.find('\n') != std::string::npos) {
    return false;
  }
  strings_[key] = value;
  return true;
}

std::optional<std::string> WisdomStore::get_string(const std::string& key) const {
  const auto it = strings_.find(key);
  if (it == strings_.end()) return std::nullopt;
  return it->second;
}

std::string WisdomStore::serialize() const {
  std::ostringstream os;
  os << "# lowino wisdom v1: key = n_blk c_blk k_blk row_blk col_blk nt prefetch\n";
  for (const auto& [key, b] : entries_) {
    os << key << " = " << b.n_blk << ' ' << b.c_blk << ' ' << b.k_blk << ' ' << b.row_blk
       << ' ' << b.col_blk << ' ' << (b.nt_store ? 1 : 0) << ' ' << (b.prefetch ? 1 : 0)
       << '\n';
  }
  // String entries ride in the same file, tagged "str" where a blocking line
  // carries its first (always numeric) value — no ambiguity when parsing.
  for (const auto& [key, value] : strings_) {
    os << key << " = str " << value << '\n';
  }
  return os.str();
}

namespace {

/// Ceiling on any blocking dimension a wisdom file may carry. Far above what
/// the search space ever emits (c_blk * k_blk <= 512^2 already), low enough
/// to reject wrapped negatives and corrupt-file garbage before they reach
/// workspace sizing arithmetic.
constexpr long long kMaxBlockingValue = 1 << 20;

/// Reads one strictly positive bounded integer. istream extraction into an
/// unsigned type silently wraps negative input, so parse through a signed
/// intermediate and range-check explicitly.
bool read_blocking_value(std::istringstream& vals, long long max, std::size_t& out) {
  long long v = 0;
  if (!(vals >> v) || v <= 0 || v > max) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

/// Validates one timing value of a legacy v3 tail: a finite non-negative
/// double with nothing trailing. strtod (not istream extraction) so "1.5x" is
/// rejected rather than read as 1.5.
bool is_seconds(const std::string& token) {
  if (token.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) return false;
  return std::isfinite(v) && v >= 0.0;
}

}  // namespace

WisdomStore WisdomStore::deserialize(const std::string& text) {
  WisdomStore store;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t eq = line.find(" = ");
    if (eq == std::string::npos) continue;
    const std::string key = line.substr(0, eq);
    // "key = str <value>" marks a free-form string entry; the value is the
    // rest of the line verbatim (it may itself contain spaces and '=').
    constexpr std::string_view kStrTag = "str ";
    const std::string payload = line.substr(eq + 3);
    if (payload.size() >= kStrTag.size() &&
        std::string_view(payload).substr(0, kStrTag.size()) == kStrTag) {
      store.strings_[key] = payload.substr(kStrTag.size());
      continue;
    }
    std::istringstream vals(payload);
    Int8GemmBlocking b;
    std::size_t row = 0, col = 0;
    long long nt = 0, pf = 0;
    // Every field must be present, strictly positive and sane; a corrupt or
    // truncated line is rejected whole rather than repaired.
    if (!read_blocking_value(vals, kMaxBlockingValue, b.n_blk) ||
        !read_blocking_value(vals, kMaxBlockingValue, b.c_blk) ||
        !read_blocking_value(vals, kMaxBlockingValue, b.k_blk) ||
        !read_blocking_value(vals, /*max=*/64, row) ||
        !read_blocking_value(vals, /*max=*/64, col) || !(vals >> nt) || !(vals >> pf) ||
        (nt != 0 && nt != 1) || (pf != 0 && pf != 1)) {
      continue;
    }
    b.row_blk = static_cast<int>(row);
    b.col_blk = static_cast<int>(col);
    b.nt_store = nt != 0;
    b.prefetch = pf != 0;
    // Legacy v2 mode token: a token that is present yet unrecognized marks a
    // corrupt/newer file — reject the line. A recognized one is dropped.
    std::string mode_token;
    ExecutionMode ignored_mode;
    if (vals >> mode_token && !parse_execution_mode(mode_token.c_str(), ignored_mode)) {
      continue;
    }
    // Legacy v3 timing tail: five seconds values or none. A truncated or
    // garbled tail signals file corruption and rejects the line.
    std::string tail_token;
    std::size_t tail_count = 0;
    bool tail_bad = false;
    while (vals >> tail_token) {
      if (tail_count >= 5 || !is_seconds(tail_token)) {
        tail_bad = true;
        break;
      }
      ++tail_count;
    }
    if (tail_bad || (tail_count != 0 && tail_count != 5)) continue;
    if (b.valid()) store.entries_[key] = b;
  }
  return store;
}

bool WisdomStore::save(const std::string& path) const {
  // Crash-safe: temp-file write + rename (the SessionPlan::save discipline).
  // A failure or injected fault between the two leaves the previous wisdom
  // file byte-identical on disk.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) return false;
    out << serialize();
    if (!out.flush()) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  try {
    maybe_inject_fault(FaultSite::kPlanLoad);
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<WisdomStore> WisdomStore::load(const std::string& path) {
  maybe_inject_fault(FaultSite::kPlanLoad);
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return deserialize(buf.str());
}

}  // namespace lowino
