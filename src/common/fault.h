// Seeded fault injection for robustness testing.
//
// A *fault point* is a named place in the runtime where an injected failure
// is allowed to surface (as a thrown FaultInjectedError). Production code
// calls maybe_inject_fault(site) at those places; the fault-tolerance layer
// above (serve/server.h) is then tested against deterministic, reproducible
// failures instead of hand-mocked ones.
//
// Cost model (the profiler's discipline, src/profile/profiler.h): while no
// plan is armed — the default — a fault point is ONE relaxed atomic load and
// a branch. No clock, no counter update, no allocation. The serving
// zero-allocation steady-state tests run with fault points compiled in, so
// the disabled path stays honest.
//
// Arming a plan:
//   * Environment: LOWINO_FAULT="site:rate:seed[,site:rate:seed...]"
//     (read through RuntimeConfig at first use, e.g.
//     LOWINO_FAULT=engine-execute:0.01:42). Each triggered check at `site`
//     then fails independently with probability `rate`, decided by a
//     counter-indexed hash of `seed` — the k-th check at a site always makes
//     the same decision, whichever thread performs it.
//   * Programmatic: ScopedFaultPlan (RAII; restores the previous plan on
//     destruction) with fail_rate / fail_next / fail_calls arms. While any
//     plan is installed — even one with no arms — checks are counted, so
//     tests can measure how many times a site is crossed.
//
// Sites (fixed taxonomy, see fault_site_name):
//   session-run     top of InferenceSession::run
//   engine-execute  before each conv engine execution inside a session op
//   plan-load       SessionPlan / WisdomStore persistence, common/text_file.h
//                   (load, and save between temp-file write and rename — the
//                   crash window)
//   arena-alloc     AlignedBuffer (re-)allocation (compile/rebuild time)
//   worker-start    BatchingServer worker session build/rebuild
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace lowino {

enum class FaultSite : std::uint8_t {
  kSessionRun = 0,
  kEngineExecute,
  kPlanLoad,
  kArenaAlloc,
  kWorkerStart,
};
inline constexpr std::size_t kFaultSiteCount = 5;

/// Stable spec/display name ("session-run", "engine-execute", ...).
const char* fault_site_name(FaultSite site);
std::optional<FaultSite> fault_site_from_name(std::string_view name);

/// The exception every injected fault throws. Distinguishable from genuine
/// runtime errors so tests can assert the failure they caused is the failure
/// they observed.
class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(FaultSite site);
  FaultSite site() const { return site_; }

 private:
  FaultSite site_;
};

namespace fault_detail {
/// Constant-initialized: a fault point crossed during static init safely
/// reads `false`.
inline std::atomic<bool> g_fault_enabled{false};
/// Out-of-line slow path: counts the check and throws if the armed plan says
/// this call fails.
void check_and_throw(FaultSite site);
}  // namespace fault_detail

/// True while a fault plan is armed. This relaxed load is the entire
/// disabled-mode cost of a fault point.
inline bool fault_injection_enabled() {
  return fault_detail::g_fault_enabled.load(std::memory_order_relaxed);
}

/// The fault point. Throws FaultInjectedError when the armed plan selects
/// this call; single-branch no-op while no plan is armed.
inline void maybe_inject_fault(FaultSite site) {
  if (!fault_injection_enabled()) return;
  fault_detail::check_and_throw(site);
}

/// Checks observed / faults thrown at `site` since the current plan was
/// armed (both zero while disabled — the disabled path must not count).
std::uint64_t fault_checked_count(FaultSite site);
std::uint64_t fault_injected_count(FaultSite site);

/// Parses a LOWINO_FAULT spec ("site:rate:seed[,...]"; rate in [0,1]).
/// Returns false (and arms nothing) on any malformed field — a typo must not
/// silently run fault-free.
bool fault_spec_valid(std::string_view spec);

/// Installs the process-wide plan described by `spec` (empty spec: disarm).
/// Returns false and leaves the previous plan armed when the spec is
/// malformed. Not meant for the hot path; callers are the env bootstrap,
/// benches and tests.
bool fault_arm_spec(std::string_view spec);

/// Disarms fault injection entirely (checks stop counting).
void fault_disarm();

/// Applies the LOWINO_FAULT knob (via RuntimeConfig, so ScopedRuntimeOverride
/// works). Called lazily by the serving layer's entry points; idempotent and
/// cheap after the first call. Returns fault_injection_enabled().
bool fault_apply_env();

/// RAII fault plan: installs an empty plan on construction (enabling check
/// counting), arms sites via the fail_* calls, and restores the previously
/// installed plan on destruction. Plans are process-wide; construct from one
/// thread at a time (checks themselves are thread-safe).
class ScopedFaultPlan {
 public:
  ScopedFaultPlan();
  ~ScopedFaultPlan();
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;

  /// Every check at `site` fails independently with probability `rate`; the
  /// decision for the k-th check is a pure function of (seed, site, k).
  void fail_rate(FaultSite site, double rate, std::uint64_t seed);

  /// The next `n` checks at `site` all fail; later checks pass.
  void fail_next(FaultSite site, std::uint64_t n = 1);

  /// Checks at `site` whose 0-based index (counted from plan arming) appears
  /// in `indices` fail; all others pass.
  void fail_calls(FaultSite site, std::initializer_list<std::uint64_t> indices);
};

}  // namespace lowino
