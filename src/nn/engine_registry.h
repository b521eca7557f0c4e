// Engine registry: the single source of truth behind the EngineKind fan-out
// points (engine_name / engine_token / engine_kind_from_string /
// all_engine_kinds / engine_caps / make_conv_engine — see nn/engines.h).
//
// Each engine family registers one EngineRegistration per kind from its own
// translation unit, so adding an engine touches the new TU plus one line in
// the builtin list of engine_registry.cc — no switch statements to extend.
//
// Static-library caveat (DESIGN.md decision 15): self-registering static
// objects in otherwise-unreferenced TUs are silently dropped by the archiver,
// so registration is NOT automatic. engine_registry() explicitly calls every
// per-TU registration function below; the named call is the symbol reference
// that retains the TU. The registry is built once behind a thread-safe
// magic static — registration functions run before any lookup can observe it.
#pragma once

#include <memory>
#include <vector>

#include "nn/engines.h"

namespace lowino {

/// One engine kind's complete capability + construction record.
struct EngineRegistration {
  EngineKind kind;
  const char* name;   ///< display name — engine_name()
  const char* token;  ///< stable machine token — engine_token()
  bool quantized;     ///< EngineCaps::quantized
  bool post_ops;      ///< EngineCaps::post_ops
  bool u8_handoff;    ///< EngineCaps::u8_handoff
  bool blocked_io;    ///< EngineCaps::blocked_io
  /// Structural shape gate: true exactly when `factory` would accept `desc`
  /// (callers may assume desc.is_valid()). Must match the wrapped
  /// constructor's acceptance set — the conformance fuzzer cross-checks
  /// supports == false against a thrown std::invalid_argument.
  bool (*supports)(const ConvDesc& desc);
  std::unique_ptr<ConvEngine> (*factory)(const ConvDesc& desc);
};

using EngineRegistrations = std::vector<EngineRegistration>;

/// Per-TU registration hooks. Every engine translation unit defines one of
/// these; engine_registry.cc calls them all (the builtin list).
void register_core_engines(EngineRegistrations& regs);          // nn/engines.cc
void register_int8_depthwise_engine(EngineRegistrations& regs); // nn/engine_depthwise.cc

/// The built registry in EngineKind declaration order. Validated on first
/// use: every kind registered exactly once, contiguously from 0.
const EngineRegistrations& engine_registry();

/// Lookup by kind (O(1) — the registry is declaration-ordered).
const EngineRegistration& engine_registration(EngineKind kind);

}  // namespace lowino
