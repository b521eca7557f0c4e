#include "tuning/wisdom.h"

#include <sstream>

#include "common/text_file.h"

namespace lowino {

void WisdomStore::put(const std::string& key, const Int8GemmBlocking& blocking) {
  entries_[key] = blocking;
}

std::optional<Int8GemmBlocking> WisdomStore::get(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
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

}  // namespace

WisdomStore WisdomStore::deserialize(const std::string& text) {
  WisdomStore store;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t eq = line.find(" = ");
    if (eq == std::string::npos) continue;
    std::istringstream vals(line.substr(eq + 3));
    Int8GemmBlocking b;
    std::size_t row = 0, col = 0;
    long long nt = 0, pf = 0;
    std::string trailing;
    // Every field must be present, strictly positive and sane, with nothing
    // after the seventh; a corrupt or truncated line is rejected whole rather
    // than repaired.
    if (!read_blocking_value(vals, kMaxBlockingValue, b.n_blk) ||
        !read_blocking_value(vals, kMaxBlockingValue, b.c_blk) ||
        !read_blocking_value(vals, kMaxBlockingValue, b.k_blk) ||
        !read_blocking_value(vals, /*max=*/64, row) ||
        !read_blocking_value(vals, /*max=*/64, col) || !(vals >> nt) || !(vals >> pf) ||
        (nt != 0 && nt != 1) || (pf != 0 && pf != 1) || vals >> trailing) {
      continue;
    }
    b.row_blk = static_cast<int>(row);
    b.col_blk = static_cast<int>(col);
    b.nt_store = nt != 0;
    b.prefetch = pf != 0;
    if (b.valid()) store.entries_[line.substr(0, eq)] = b;
  }
  return store;
}

bool WisdomStore::save(const std::string& path) const { return save_text_file(path, serialize()); }

std::optional<WisdomStore> WisdomStore::load(const std::string& path) {
  const std::optional<std::string> text = load_text_file(path);
  if (!text) return std::nullopt;
  return deserialize(*text);
}

}  // namespace lowino
