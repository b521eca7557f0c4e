// Low-overhead per-stage execution profiler with trace export.
//
// Fixed stage taxonomy (the pipeline stages behind the paper's Figure 10
// breakdown plus the offline phases), recorded through RAII ProfileSpan
// objects into per-thread event buffers. Cost model:
//   * disabled (the default): one relaxed atomic load and a branch per span —
//     no clock read, no store, no allocation;
//   * enabled: two steady-clock reads plus a fixed-slot buffer write per
//     span. A thread's buffer is allocated once on its first span and reused
//     forever; the recording path never takes a lock or allocates.
//
// Per-stage totals are accumulated incrementally and stay exact even when a
// thread's event ring fills (newest events are then dropped from the *trace*
// only, counted in profiler_dropped_events()).
//
// Two sinks:
//   * profiler_summary(): aggregated per-stage / per-thread text table,
//   * profiler_write_chrome_trace(): chrome://tracing-compatible JSON
//     ("trace event format", complete "X" events + thread-name metadata).
//
// Environment knobs (read at process start / process exit):
//   LOWINO_PROFILE=1          enable recording; print the summary to stderr
//                             at exit
//   LOWINO_TRACE_JSON=<path>  additionally write the JSON trace at exit
//
// Nesting: spans of *different* stages nest freely (each is credited its
// inclusive time). A span opened inside a same-stage span records a trace
// event but is excluded from the stage totals, so instrumenting both a caller
// and its callee never double-counts.
//
// Concurrency: profiler_stage_totals(), profiler_thread_count() and
// profiler_dropped_events() are safe to call while spans are open on other
// threads (all shared counters are atomics) — they just don't see spans still
// in flight. profiler_reset(), profiler_summary() and the trace writer want a
// quiescent point (no open spans) for *accurate* results; call them after
// execute() returns — the ThreadPool's fork-join barrier provides the
// happens-before edge.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace lowino {

/// Fixed stage taxonomy. Every instrumented span belongs to exactly one
/// stage; subsystems share the same names so staged and fused executions of
/// the same convolution produce directly comparable breakdowns.
enum class ProfileStage : std::uint8_t {
  kFilterPack = 0,  ///< offline filter transform + quantization + packing
  kInputTransform,  ///< input transform + quantization (incl. the V scatter);
                    ///< the direct engines' quantize / gather of their A rows
  kGemm,            ///< batched INT8 GEMM (incl. the Z scatter); the direct
                    ///< INT8 engines' register tiles, which reduce and run the
                    ///< dequant / post-op / requant store in one pass
  kOutputTransform, ///< de-quant + output transform incl. any fused epilogue
                    ///< (the Winograd engines only)
  kCalibration,     ///< calibration statistics collection and each KL
                    ///< threshold sweep (calibrate_kl)
  kTunerTrial,      ///< one auto-tuner candidate measurement
  kServe,           ///< one serving op inside InferenceSession::run
  kPostOps,         ///< a standalone (unfused) element-wise ReLU/sum pass
};
inline constexpr std::size_t kProfileStageCount = 8;

const char* profile_stage_name(ProfileStage stage);

namespace profile_detail {

/// Constant-initialized so a ProfileSpan constructed during static init (or
/// before the env is applied) safely reads `false`.
inline std::atomic<bool> g_profiler_enabled{false};

struct ThreadLog;
ThreadLog* acquire_thread_log();
std::uint64_t now_ns();
/// Owner-thread bookkeeping at span open: depth and same-stage nesting.
void span_open(ThreadLog* log, ProfileStage stage, bool& nested_same,
               std::uint16_t& depth);
/// Records the finished span (reads the clock for the end timestamp).
void span_close(ThreadLog* log, ProfileStage stage, std::uint64_t start_ns,
                std::uint16_t depth, bool nested_same);

}  // namespace profile_detail

/// True while spans are being recorded. This relaxed load is the entire
/// disabled-mode cost of a ProfileSpan.
inline bool profiler_enabled() {
  return profile_detail::g_profiler_enabled.load(std::memory_order_relaxed);
}

/// Programmatic on/off (the LOWINO_PROFILE env sets the initial state).
/// Toggling while spans are open is safe: a span records iff it observed
/// `enabled` at construction.
void profiler_set_enabled(bool enabled);

/// RAII scoped span. Construct with the stage being entered; destruction
/// records the event on the calling thread's log. Zero allocation after a
/// thread's first span; single-branch no-op while profiling is disabled.
class ProfileSpan {
 public:
  explicit ProfileSpan(ProfileStage stage) {
    if (!profiler_enabled()) return;
    log_ = profile_detail::acquire_thread_log();
    stage_ = stage;
    profile_detail::span_open(log_, stage, nested_same_, depth_);
    start_ns_ = profile_detail::now_ns();
  }
  ~ProfileSpan() {
    if (log_ != nullptr) {
      profile_detail::span_close(log_, stage_, start_ns_, depth_, nested_same_);
    }
  }
  ProfileSpan(const ProfileSpan&) = delete;
  ProfileSpan& operator=(const ProfileSpan&) = delete;

 private:
  profile_detail::ThreadLog* log_ = nullptr;  ///< null => span not recorded
  ProfileStage stage_ = ProfileStage::kFilterPack;
  std::uint16_t depth_ = 0;
  bool nested_same_ = false;
  std::uint64_t start_ns_ = 0;
};

/// Names the calling thread in summaries and traces (truncated to 31 chars).
/// May be called before any span — and before profiling is even enabled —
/// without triggering log registration; the name is applied lazily.
void profiler_set_thread_name(const char* name);

struct ProfileStageTotals {
  double seconds = 0.0;      ///< inclusive busy time summed across threads
  std::uint64_t spans = 0;   ///< recorded spans (same-stage-nested excluded)
};

/// Per-stage totals summed over every thread that ever recorded a span.
/// Exact regardless of ring occupancy. Index with ProfileStage casts.
std::array<ProfileStageTotals, kProfileStageCount> profiler_stage_totals();

/// Threads that have recorded at least one span since process start (logs are
/// never unregistered — a monotonically growing count).
std::size_t profiler_thread_count();

/// Trace events lost to full rings since the last reset (stage totals are
/// unaffected by drops).
std::uint64_t profiler_dropped_events();

/// Clears all recorded events, totals and drop counts. Must be called from a
/// quiescent point (no open spans on any thread).
void profiler_reset();

/// Aggregated per-stage table plus a per-thread busy-time breakdown.
std::string profiler_summary();

/// Writes the chrome://tracing / Perfetto "trace event format" JSON file.
/// Returns false when the file cannot be opened/written.
bool profiler_write_chrome_trace(const std::string& path);

}  // namespace lowino
