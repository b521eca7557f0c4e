#include "nn/engine_registry.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace lowino {

namespace {

EngineRegistrations build_registry() {
  EngineRegistrations regs;
  // The builtin list: one explicit call per engine translation unit. The
  // named calls are what keep the archiver from dropping the TUs (see the
  // header comment); order here does not matter — the sort below puts the
  // registry in EngineKind declaration order.
  register_core_engines(regs);
  register_int8_depthwise_engine(regs);

  std::sort(regs.begin(), regs.end(), [](const EngineRegistration& a,
                                         const EngineRegistration& b) {
    return static_cast<int>(a.kind) < static_cast<int>(b.kind);
  });
  for (std::size_t i = 0; i < regs.size(); ++i) {
    if (static_cast<std::size_t>(regs[i].kind) != i) {
      throw std::logic_error(
          "engine registry: EngineKind " + std::to_string(i) +
          " missing or registered twice — every enum value needs exactly one "
          "EngineRegistration");
    }
  }
  return regs;
}

}  // namespace

const EngineRegistrations& engine_registry() {
  static const EngineRegistrations regs = build_registry();
  return regs;
}

const EngineRegistration& engine_registration(EngineKind kind) {
  const EngineRegistrations& regs = engine_registry();
  const std::size_t i = static_cast<std::size_t>(kind);
  if (i >= regs.size()) throw std::invalid_argument("unknown engine kind");
  return regs[i];
}

}  // namespace lowino
