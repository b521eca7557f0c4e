// Runtime configuration knobs.
//
// Every LOWINO_* knob the runtime reads goes through RuntimeConfig, which
// layers *programmatic overrides* on top of the process environment:
//
//   RuntimeConfig::set("LOWINO_U8_HANDOFF", "0");   // beats the env
//   config_flag("LOWINO_U8_HANDOFF", true);         // -> false
//
// This is what lets an embedding application (notably serve/PlanOptions)
// configure the engine per plan without mutating the environment — overrides
// are scoped, thread-safe, and invisible to child processes. The raw
// env_long/env_string/env_flag helpers remain for call sites that genuinely
// want the environment only (bench harness output paths etc.).
#pragma once

#include <optional>
#include <string>

namespace lowino {

/// Returns the integer value of environment variable `name`, or `fallback`.
long env_long(const char* name, long fallback);

/// Returns the string value of environment variable `name`, or `fallback`.
std::string env_string(const char* name, const std::string& fallback);

/// Returns true when `name` is set to a truthy value ("1", "true", "yes", "on").
bool env_flag(const char* name, bool fallback = false);

/// Process-wide override store for the LOWINO_* knobs. All methods are
/// thread-safe (a mutex guards the map); reads off the hot paths only.
class RuntimeConfig {
 public:
  /// Sets a programmatic override for `knob`. Overrides beat the environment
  /// in every config_*() read until cleared.
  static void set(const std::string& knob, const std::string& value);

  /// Removes the override for `knob` (environment value becomes visible again).
  static void clear(const std::string& knob);

  /// Removes every override.
  static void clear_all();

  /// The current override value, if any (does not consult the environment).
  static std::optional<std::string> get(const std::string& knob);
};

/// RAII override: applies `value` for `knob` on construction and restores the
/// previous override state (previous value or no-override) on destruction.
/// Used by tests and by serve-plan compilation to scope knob changes.
class ScopedRuntimeOverride {
 public:
  ScopedRuntimeOverride(const std::string& knob, const std::string& value);
  ~ScopedRuntimeOverride();
  ScopedRuntimeOverride(const ScopedRuntimeOverride&) = delete;
  ScopedRuntimeOverride& operator=(const ScopedRuntimeOverride&) = delete;

 private:
  std::string knob_;
  std::optional<std::string> previous_;
};

/// Knob reads: programmatic override first, then the environment, then the
/// fallback. Value parsing matches the env_* helpers exactly.
long config_long(const char* name, long fallback);
std::string config_string(const char* name, const std::string& fallback);
bool config_flag(const char* name, bool fallback = false);

}  // namespace lowino
