// Wisdom store: persisted auto-tuning results (Section 4.3.4: "the optimal
// parameters are saved into a wisdom file and used in inference").
// Plain-text key/value format, no external dependencies. It holds the tuned
// GEMM blocking per wisdom_key(); tuned blockings are not yet read at
// inference. Per-layer engine decisions are recorded by SessionPlan
// (serve/session.h), not here.
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

  /// Serializes to "key = n_blk c_blk k_blk row col nt pf" lines (v1).
  std::string serialize() const;
  /// Parses serialized text. Malformed lines are skipped whole: truncated
  /// value lists, trailing tokens after the seven fields, non-positive /
  /// wrapped-negative / absurdly large blocking values, non-boolean nt/pf
  /// flags, and blockings that fail Int8GemmBlocking::valid() are all
  /// rejected (a corrupt wisdom file degrades to defaults, never to garbage
  /// parameters).
  static WisdomStore deserialize(const std::string& text);

  /// Crash-safe save and load (common/text_file.h).
  bool save(const std::string& path) const;
  static std::optional<WisdomStore> load(const std::string& path);

 private:
  std::map<std::string, Int8GemmBlocking> entries_;
};

}  // namespace lowino
