// Wisdom store: persisted auto-tuning results (Section 4.3.4: "the optimal
// parameters are saved into a wisdom file and used in inference").
// Plain-text key/value format, no external dependencies. It holds the tuned
// GEMM blocking per wisdom_key() and free-form string entries; the serving
// planner reads only the string entries, tuned blockings are not yet read at
// inference.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "gemm/int8_gemm.h"

namespace lowino {

class WisdomStore {
 public:
  void put(const std::string& key, const Int8GemmBlocking& blocking);
  std::optional<Int8GemmBlocking> get(const std::string& key) const;
  std::size_t size() const { return entries_.size(); }

  /// Free-form string entries, serialized as "key = str <value>" lines in the
  /// same file. Used by the serving planner to remember per-layer engine
  /// decisions ("plan-engine <desc> -> lowino_f4") next to the GEMM blockings
  /// they imply. Values must be single-line (no '\n'); a value containing a
  /// newline is rejected (put_string returns false, nothing stored).
  bool put_string(const std::string& key, const std::string& value);
  std::optional<std::string> get_string(const std::string& key) const;
  std::size_t string_size() const { return strings_.size(); }

  /// Serializes to "key = n_blk c_blk k_blk row col nt pf" lines (v1).
  std::string serialize() const;
  /// Parses serialized text. Malformed lines are skipped whole: truncated
  /// value lists, non-positive / wrapped-negative / absurdly large blocking
  /// values, non-boolean nt/pf flags, and blockings that fail
  /// Int8GemmBlocking::valid() are all rejected (a corrupt wisdom file
  /// degrades to defaults, never to garbage parameters). Lines written by
  /// older versions still load their blocking: v2 appends an execution-mode
  /// token and v3 five timing values after it. Both are validated and then
  /// dropped — an unknown mode token, or a tail that is incomplete,
  /// non-numeric or negative, rejects the line.
  static WisdomStore deserialize(const std::string& text);

  bool save(const std::string& path) const;
  static std::optional<WisdomStore> load(const std::string& path);

 private:
  std::map<std::string, Int8GemmBlocking> entries_;
  std::map<std::string, std::string> strings_;
};

}  // namespace lowino
