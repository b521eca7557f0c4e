// BatchingServer: the dynamic-batching serving front end over
// InferenceSession — single-image requests are coalesced into batches and
// executed by pre-warmed worker sessions compiled from one shared plan.
//
// The concurrency design is testable-first and layered:
//
//   * Batcher — the pure batch-formation policy. A FIFO admission queue over
//     opaque tickets with explicit timestamps on every call. Batching is
//     work-conserving: a free worker closes a batch from whatever is queued,
//     FIFO, up to max_batch, at once — requests that arrive while every
//     worker is busy queue up and ride together in the next batch, so
//     batches fill exactly as far as load makes them. Queued requests whose
//     SLO deadline passes are expired before they ever reach a batch. No
//     clock, no threads, no allocation after construction — every decision
//     is a deterministic function of (queue contents, `now`).
//
//   * ServerCore — the slot machine tying tickets to requests. A fixed pool
//     of slots holds the caller's input/output pointers (callers block in
//     serve(), so zero-copy pointers stay valid) and a per-slot state
//     (Free -> Queued -> Running -> Done / Expired -> Free). All methods
//     take explicit timestamps and do no locking: the threaded server calls
//     them under its mutex, tests call them directly.
//
//   * ManualServer — the deterministic executor for tests: ServerCore driven
//     by an injected VirtualClock and an inline batch-runner callback. One
//     step() performs exactly one iteration of a free worker (expire, then
//     close and run at most one batch), so batch formation, SLO rejection
//     and shutdown drain are unit-testable without threads or sleeps;
//     requests submitted from inside the runner model arrivals while the
//     worker is busy.
//
//   * BatchingServer — the real thing: N worker threads, each owning a
//     ThreadPool and an InferenceSession compiled from the same immutable
//     SessionPlan (worker 0 plans; the rest replay via PlanOptions::reuse).
//     Blocking serve() with per-request SLO; stop() drains in-flight and
//     queued work before joining. The worker hot path performs zero heap
//     allocations in steady state (asserted under the operator-new counter
//     in tests/test_server_stress.cc).
//
// Fault tolerance (the layer this file adds on top of the batching design):
//
//   * Exception containment — a throw anywhere inside batch execution
//     (engine failure, allocation failure, injected fault) is caught at the
//     batch boundary and fails only the affected requests (ServeResult::
//     kFailed); the server lives on. A failed batch's members are retried
//     individually first, so one poisoned request cannot sink its
//     batchmates. ManualServer and BatchingServer share this policy: the
//     same run-then-retry routine and ServerCore::settle_batch, so the
//     deterministic ManualServer tests exercise the production code.
//   * Worker supervision — a worker whose session keeps failing rebuilds it
//     from the shared SessionPlan with capped backoff; a worker whose
//     rebuild fails degrades out of the fleet (clients of a fully-lost
//     fleet get kWorkerLost, never a hang) and health() reports it.
//   * Overload shedding — watermark-based early rejection in the Batcher
//     (see BatcherOptions::shed_high) bounces requests at the door when the
//     queue is hopeless instead of letting them expire inside it.
//
// All of it is deterministic and unit-testable through ManualServer plus the
// seeded fault-injection harness (common/fault.h, LOWINO_FAULT).
//
// Clock injection: the threaded server reads its VirtualClock only for
// timestamps (admission, deadlines, the served-time histograms). A FakeClock
// paired with the *threaded* server never moves on its own, so SLO expiry
// there only follows the test's own advances — deterministic time-driven
// tests belong on ManualServer; the threaded server is for real clocks and
// the TSan stress suite.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "serve/session.h"
#include "tensor/tensor.h"

namespace lowino {

class ThreadPool;

/// All serving timestamps/durations are signed nanosecond counts.
using Nanos = std::int64_t;
inline constexpr Nanos kNoDeadline = std::numeric_limits<Nanos>::max();

/// Injectable time source. Implementations must be monotone non-decreasing.
class VirtualClock {
 public:
  virtual ~VirtualClock() = default;
  virtual Nanos now() = 0;
};

/// std::chrono::steady_clock. Thread-safe, shared via instance().
class RealClock final : public VirtualClock {
 public:
  Nanos now() override;
  static RealClock& instance();
};

/// Manually advanced clock for deterministic tests. Not thread-safe — it
/// pairs with ManualServer, which runs on the test's thread.
class FakeClock final : public VirtualClock {
 public:
  explicit FakeClock(Nanos start = 0) : now_(start) {}
  Nanos now() override { return now_; }
  void set(Nanos t) { now_ = t; }
  void advance(Nanos delta) { now_ += delta; }

 private:
  Nanos now_ = 0;
};

/// Outcome of one serve() call.
enum class ServeResult {
  kOk,         ///< output span holds the request's result
  kQueueFull,  ///< admission queue at capacity (or shedding); never enqueued
  kExpired,    ///< SLO deadline passed while the request was still queued
  kShutdown,   ///< server not running (or stopping); request never enqueued
  kFailed,     ///< this request's execution failed; the failure was contained
               ///< (batchmates unaffected, server still serving, output span
               ///< untouched)
  kWorkerLost, ///< abandoned: the serving worker (or the whole fleet) died
               ///< and could not be rebuilt; output span untouched
};
const char* serve_result_name(ServeResult r);

struct BatcherOptions {
  std::size_t max_batch = 4;   ///< largest batch a free worker closes
  std::size_t capacity = 64;   ///< admission queue bound (>= max_batch)
  /// Overload shedding with hysteresis: once the queue depth reaches
  /// shed_high, new admissions are rejected (Admit::kShed — the request is
  /// bounced *early* instead of expiring pointlessly in a hopeless queue)
  /// until the depth drains back to shed_low. 0 disables shedding;
  /// shed_low == 0 derives shed_high / 2. Requires shed_low < shed_high <=
  /// capacity when enabled.
  std::size_t shed_high = 0;
  std::size_t shed_low = 0;
};

/// Fixed log2 buckets of nanosecond durations: bucket 0 holds [0, 2) ns,
/// bucket i >= 1 holds [2^i, 2^(i+1)) ns, and the last bucket also takes
/// everything longer (2^39 ns is about 9 minutes). A fixed array, so booking
/// a time never allocates and a stats snapshot is a plain copy.
struct LatencyHistogram {
  static constexpr std::size_t kBuckets = 40;
  std::array<std::uint64_t, kBuckets> counts{};

  /// The bucket `ns` lands in (negative durations count as 0).
  static std::size_t bucket_of(Nanos ns);
  void record(Nanos ns) { ++counts[bucket_of(ns)]; }
  std::uint64_t total() const;
};

/// Cumulative serving counters (ServerCore fills them; the threaded server
/// snapshots under its lock).
struct ServeStats {
  std::uint64_t submitted = 0;         ///< admitted into the queue
  std::uint64_t served = 0;            ///< completed with a result
  std::uint64_t rejected_full = 0;     ///< bounced: queue at capacity
  std::uint64_t rejected_expired = 0;  ///< bounced: SLO passed while queued
  std::uint64_t rejected_shed = 0;     ///< bounced early: overload shedding
  std::uint64_t failed = 0;            ///< failed by a contained execution error
  std::uint64_t worker_lost = 0;       ///< abandoned by a dying worker/fleet
  std::uint64_t batch_failures = 0;    ///< batch executions that threw
  std::uint64_t retries = 0;           ///< individual re-runs after a batch failure
  std::uint64_t batches = 0;           ///< batches closed
  std::uint64_t batched_requests = 0;  ///< sum of closed batch sizes
  std::uint64_t closed_full = 0;       ///< batches closed at max_batch
  std::uint64_t closed_linger = 0;     ///< batches closed below max_batch
  std::uint64_t queue_ns_sum = 0;      ///< admission -> batch close, served only
  // Per-request time histograms, served requests only (booked when the
  // request completes, like queue_ns_sum):
  LatencyHistogram queue_ns;  ///< admission -> batch close
  LatencyHistogram exec_ns;   ///< batch close -> settle (the batch's run, plus retry)
  LatencyHistogram total_ns;  ///< admission -> settle

  double mean_batch() const {
    return batches == 0 ? 0.0 : static_cast<double>(batched_requests) / batches;
  }
};

/// Deterministic FIFO batch-formation policy. See the file comment. All
/// methods are O(pending) worst case and never allocate after construction.
class Batcher {
 public:
  /// Admission decision. kShed is an *early* overload rejection: the queue
  /// had room, but the shed watermark said the request would only wait to
  /// die (see BatcherOptions::shed_high).
  enum class Admit { kAdmitted, kFull, kShed };

  explicit Batcher(const BatcherOptions& options);

  /// Enqueues a ticket observed at `now` with an absolute deadline (queued
  /// requests whose deadline passes are expired, never batched). Returns
  /// kFull at capacity, kShed while overload shedding is engaged.
  Admit admit(std::uint32_t ticket, Nanos now, Nanos deadline = kNoDeadline);

  /// Removes every queued ticket whose deadline is <= now, appending them to
  /// `expired` in FIFO order. Returns the number removed.
  std::size_t expire(Nanos now, std::vector<std::uint32_t>& expired);

  /// True when a free worker should close a batch: anything is pending.
  /// A partial batch costs only its filled size (InferenceSession::run over
  /// an n-image prefix), so holding a free worker back buys nothing.
  bool ready() const { return !queue_.empty(); }

  /// Appends up to max_batch tickets (FIFO) to `batch`; returns the count.
  std::size_t pop(std::vector<std::uint32_t>& batch);

  /// Earliest queued SLO deadline: the first instant at which expire()
  /// removes something without a new admission. kNoDeadline when nothing
  /// queued has a deadline.
  Nanos next_event() const;

  /// Removes every queued ticket (FIFO order appended to `out`) regardless
  /// of batch size — the fleet-loss drain, where nothing is left to run them.
  std::size_t clear(std::vector<std::uint32_t>& out);

  std::size_t pending() const { return queue_.size(); }
  Nanos oldest_enqueue() const;  ///< kNoDeadline when empty
  bool shedding() const { return shedding_; }  ///< shed state engaged
  const BatcherOptions& options() const { return options_; }

 private:
  struct Pending {
    std::uint32_t ticket = 0;
    Nanos enqueue_ns = 0;
    Nanos deadline_ns = kNoDeadline;
  };
  void update_shed_after_removal();

  BatcherOptions options_;
  std::size_t shed_low_ = 0;    ///< resolved disengage watermark
  bool shedding_ = false;       ///< hysteresis state
  std::vector<Pending> queue_;  ///< FIFO; reserved to capacity, never grows
};

/// Request slot states. Transitions (all driven by ServerCore):
/// Free -submit-> Queued -close_batch-> Running -complete-> Done -release->
/// Free, with Queued -expire-> Expired -release-> Free and the failure
/// edges Running -fail-> Failed -release-> Free (contained execution error
/// or worker loss) plus Queued -fail_all_queued-> Failed (fleet loss).
enum class SlotState : std::uint8_t {
  kFree, kQueued, kRunning, kDone, kExpired, kFailed
};

/// Ticket-to-request binding + lifecycle + stats over a Batcher. Explicitly
/// clocked and lock-free by design (synchronization belongs to the caller);
/// see the file comment.
class ServerCore {
 public:
  static constexpr std::uint32_t kNoTicket = std::numeric_limits<std::uint32_t>::max();

  explicit ServerCore(const BatcherOptions& options);

  // -- client side ----------------------------------------------------------
  /// Binds (input, output) to a free slot and enqueues it. Returns the slot
  /// ticket, or kNoTicket when the queue is at capacity (stats count the
  /// rejection). The pointers must stay valid until release().
  std::uint32_t submit(const float* input, float* output, Nanos now,
                       Nanos deadline = kNoDeadline);
  SlotState state(std::uint32_t ticket) const;
  /// Frees a kDone/kExpired slot for reuse.
  void release(std::uint32_t ticket);

  // -- scheduler side -------------------------------------------------------
  /// Expires queued requests whose deadline passed; their slots become
  /// kExpired and their tickets are appended to `expired` (the threaded
  /// server then wakes those clients). Returns the number expired.
  std::size_t expire(Nanos now, std::vector<std::uint32_t>& expired);
  /// True when a free worker should close a batch: anything is pending.
  bool ready() const { return batcher_.ready(); }
  /// Closes a batch: pops up to max_batch tickets into `batch`, marks them
  /// kRunning and stamps their close time `now`. Returns the batch size.
  std::size_t close_batch(Nanos now, std::vector<std::uint32_t>& batch);
  /// Marks a closed batch's slots kDone at `now` (clients may collect +
  /// release) and books their queue / execution / total times.
  void complete(std::span<const std::uint32_t> batch, Nanos now);
  /// Marks one kRunning slot kDone at `now` (the per-member path after a
  /// batch-level failure was isolated by individual retries).
  void complete_one(std::uint32_t ticket, Nanos now);
  /// Marks one kRunning slot kFailed. `lost` distinguishes a worker/fleet
  /// loss (client sees kWorkerLost) from a contained execution error
  /// (kFailed); stats count the two separately.
  void fail(std::uint32_t ticket, bool lost = false);
  /// Fails every still-queued request as worker-lost (the fleet-loss drain:
  /// no worker remains to ever run them). Tickets append to `out` so the
  /// caller can wake the blocked clients. Returns the number failed.
  std::size_t fail_all_queued(std::vector<std::uint32_t>& out);
  /// True when a kFailed slot was failed by worker loss (not a contained
  /// execution error).
  bool failed_by_worker_loss(std::uint32_t ticket) const;
  /// Settles a closed batch after its contained run (see run_contained in
  /// server.cc): the one place both servers book a batch's outcome. When the
  /// batch attempt succeeded every member completes. Otherwise it books one
  /// batch failure and one retry per member, completes the members whose
  /// individual retry succeeded (retry_ok[i] != 0) and fails the rest.
  /// Completions are booked at `now`. Returns the number of members failed.
  std::size_t settle_batch(std::span<const std::uint32_t> batch, bool batch_ok,
                           std::span<const std::uint8_t> retry_ok, Nanos now);

  const float* slot_input(std::uint32_t ticket) const;
  float* slot_output(std::uint32_t ticket) const;

  /// Drain mode: no new admissions (submit returns kNoTicket); what is
  /// queued still closes and runs.
  void begin_drain() { draining_ = true; }
  void end_drain() { draining_ = false; }
  bool draining() const { return draining_; }
  /// True when nothing is queued and nothing is running.
  bool idle() const { return batcher_.pending() == 0 && running_ == 0; }

  std::size_t pending() const { return batcher_.pending(); }
  bool shedding() const { return batcher_.shedding(); }
  std::size_t running() const { return running_; }
  std::size_t capacity() const { return slots_.size(); }
  const ServeStats& stats() const { return stats_; }
  const BatcherOptions& options() const { return batcher_.options(); }

 private:
  struct Slot {
    const float* input = nullptr;
    float* output = nullptr;
    Nanos enqueue_ns = 0;
    Nanos close_ns = 0;  ///< batch close (kRunning onward)
    SlotState state = SlotState::kFree;
    bool worker_lost = false;  ///< kFailed flavor: abandoned vs contained
  };
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  ///< free-list (stack), reserved
  Batcher batcher_;
  ServeStats stats_;
  std::size_t running_ = 0;  ///< slots in kRunning
  bool draining_ = false;
};

/// Gather -> prefix run -> scatter: the one batch-execution routine of the
/// serving layer (BatchingServer's workers run every batch through it, and a
/// ManualServer runner over a caller-owned session can too). Copies the
/// input of each of the n tickets of `batch` into lanes 0..n-1 of `in` (the
/// session's compile-time input shape), runs `session` over that n-image
/// prefix (InferenceSession::run(in, out, n), so a partial batch costs its
/// filled size) and copies output lanes 0..n-1 back to the tickets. Lanes
/// n.. of `in` keep whatever an earlier batch left there: the prefix rows do
/// not depend on them (every op is per-image). Allocation-free once `out` has
/// the network output shape (one full run at pre-warm). Reads only slot
/// bindings, which are immutable while the tickets are kRunning, so callers
/// may run it without the server lock.
void run_session_batch(const ServerCore& core, std::span<const std::uint32_t> batch,
                       InferenceSession& session, Tensor<float>& in, Tensor<float>& out);

/// Deterministic single-worker executor for tests (see file comment). The
/// runner is invoked inline from step() with the closed batch's tickets;
/// it reads slot_input() and writes slot_output() through the core.
class ManualServer {
 public:
  using BatchRunner =
      std::function<void(std::span<const std::uint32_t>, ServerCore&)>;

  ManualServer(const BatcherOptions& options, VirtualClock* clock, BatchRunner runner);

  /// Submits at clock->now() with a *relative* SLO budget (kNoDeadline: no
  /// SLO). Returns ServerCore::kNoTicket when the queue is full or draining.
  std::uint32_t submit(std::span<const float> input, std::span<float> output,
                       Nanos slo_ns = kNoDeadline);

  struct StepOutcome {
    std::vector<std::uint32_t> expired;  ///< tickets SLO-expired this step
    std::vector<std::uint32_t> batch;    ///< batch run this step (maybe empty)
    std::vector<std::uint32_t> failed;   ///< batch members failed this step
  };
  /// One iteration of a free worker at clock->now(): expire, then close and
  /// run at most one batch from whatever is queued (FIFO, up to max_batch).
  ///
  /// Exception containment: a runner that throws fails the *batch attempt*,
  /// not its members — each member is then retried individually through the
  /// runner, so one poisoned request cannot sink its batchmates. Members
  /// whose individual retry also throws end kFailed (outcome.failed); the
  /// rest end kDone with their retry's output. step() itself never throws
  /// on a runner exception.
  StepOutcome step();

  /// Runs steps until the core is idle (shutdown drain). Returns steps run.
  std::size_t drain();

  SlotState state(std::uint32_t ticket) const { return core_.state(ticket); }
  void release(std::uint32_t ticket) { core_.release(ticket); }
  ServerCore& core() { return core_; }

 private:
  ServerCore core_;
  VirtualClock* clock_;
  BatchRunner runner_;
};

/// Options for the threaded BatchingServer.
struct ServerOptions {
  std::size_t max_batch = 4;
  /// Default *relative* SLO budget applied when serve() is called with
  /// kUseDefaultSlo. kNoDeadline: requests never expire.
  Nanos default_slo_ns = kNoDeadline;
  std::size_t num_workers = 1;
  /// ThreadPool size of each worker's session (intra-op parallelism).
  std::size_t threads_per_worker = 1;
  /// Admission queue bound; 0 derives num_workers * max_batch * 4.
  std::size_t queue_capacity = 0;
  /// Overload shed watermarks (queue depth; see BatcherOptions::shed_high).
  /// 0 disables shedding; shed_low_watermark == 0 derives high / 2.
  std::size_t shed_high_watermark = 0;
  std::size_t shed_low_watermark = 0;
  /// Timestamp source; null uses RealClock::instance(). See the file comment
  /// for the FakeClock caveat with the threaded server.
  VirtualClock* clock = nullptr;
  /// Planning options for worker 0's compile (pool is overridden per worker;
  /// workers 1..N-1 replay worker 0's plan via PlanOptions::reuse).
  PlanOptions plan;
};

/// Point-in-time fleet health, snapshotted by BatchingServer::health().
/// A degraded server keeps serving on its surviving workers and says so
/// here instead of dying.
struct ServerHealth {
  std::size_t workers = 0;        ///< configured fleet size
  std::size_t workers_live = 0;   ///< worker loops currently serving
  std::uint64_t workers_lost = 0; ///< degraded out (session rebuild failed)
  std::uint64_t restarts = 0;     ///< successful worker session rebuilds
  bool accepting = false;         ///< serve() currently admits
  bool shedding = false;          ///< overload shed engaged right now
  bool degraded() const { return workers_lost > 0; }
};

/// The threaded dynamic-batching server. See the file comment.
class BatchingServer {
 public:
  /// Sentinel for serve(): apply ServerOptions::default_slo_ns.
  static constexpr Nanos kUseDefaultSlo = -1;

  /// Compiles one session per worker (worker 0 measures, the rest replay its
  /// plan) from `calib_input` replicated to max_batch images, pre-warms
  /// every worker, and starts the worker threads. The model must outlive the
  /// server and must not be mutated while it is running.
  BatchingServer(SequentialModel& model, const Tensor<float>& calib_input,
                 const ServerOptions& options);
  ~BatchingServer();  ///< stop()s (draining) if still running

  BatchingServer(const BatchingServer&) = delete;
  BatchingServer& operator=(const BatchingServer&) = delete;

  /// Serves one image synchronously: blocks until the request's batch has
  /// run (kOk), its SLO expired while queued (kExpired), or it never entered
  /// the queue (kQueueFull / kShutdown). `image` must hold input_elems()
  /// floats and `output` output_elems() floats; both spans must stay valid
  /// for the duration of the call (they are read/written in place — no
  /// copies through intermediate queues). Thread-safe; any number of client
  /// threads may call concurrently.
  ServeResult serve(std::span<const float> image, std::span<float> output,
                    Nanos slo_ns = kUseDefaultSlo);

  /// Restarts worker threads after stop(). No-op when running. Workers whose
  /// session was lost to a failed rebuild are re-built here (best effort);
  /// throws std::runtime_error when not a single worker can start.
  void start();
  /// Drains (queued and in-flight requests complete; new serve() calls get
  /// kShutdown) and joins the workers. No-op when stopped.
  void stop();
  bool running() const;

  ServeStats stats() const;    ///< snapshot
  ServerHealth health() const; ///< snapshot (supervision + shed state)
  const SessionPlan& plan() const { return plan_; }
  std::size_t input_elems() const { return input_elems_; }
  std::size_t output_elems() const { return output_elems_; }
  std::size_t max_batch() const { return options_.max_batch; }
  std::size_t num_workers() const { return workers_.size(); }

 private:
  struct Worker {
    std::unique_ptr<ThreadPool> pool;
    std::optional<InferenceSession> session;
    Tensor<float> in;   ///< gather target, shape (max_batch, C, H, W)
    Tensor<float> out;  ///< scatter source, shape (max_batch, ...)
    std::thread thread;
    bool lost = false;  ///< degraded out (guarded by mu_)
  };
  struct SlotSync {
    std::condition_variable cv;  ///< client waits for kDone/kExpired/kFailed
  };

  VirtualClock& clock() const;
  /// Runs each closed batch through run_session_batch without the lock
  /// held; a one-member span is the isolation retry, a one-image run.
  void worker_loop(Worker& worker);
  /// (Re)builds `worker`'s session by replaying the shared plan (worker-start
  /// fault point inside). Strong guarantee: on throw the previous session, if
  /// any, is retained.
  void build_worker_session(Worker& worker);
  /// Rebuild with capped backoff, called with `lk` held (unlocks around the
  /// compile attempts). True on success.
  bool supervise_rebuild(Worker& worker, std::unique_lock<std::mutex>& lk);
  /// Degrades `worker` out of the fleet under the lock; when it was the last
  /// live worker, fails all queued requests as worker-lost and stops
  /// accepting so no client ever hangs on an empty fleet.
  void abandon_worker(Worker& worker);

  ServerOptions options_;
  SessionPlan plan_;
  SequentialModel* model_ = nullptr;  ///< for worker session rebuilds
  Tensor<float> calib_;               ///< replicated calibration input
  std::size_t input_elems_ = 0;
  std::size_t output_elems_ = 0;
  std::vector<Worker> workers_;
  std::unique_ptr<SlotSync[]> slot_sync_;  ///< one per ServerCore slot

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait for admissions / stop
  ServerCore core_;                  ///< guarded by mu_
  std::vector<std::uint32_t> expired_scratch_;  ///< guarded by mu_, reserved
  bool accepting_ = false;  ///< serve() admits only when true
  bool stopping_ = false;   ///< workers exit once the queue drains
  std::size_t workers_live_ = 0;      ///< worker loops running (guarded by mu_)
  std::uint64_t workers_lost_ = 0;    ///< degraded out, cumulative
  std::uint64_t worker_restarts_ = 0; ///< successful session rebuilds
};

}  // namespace lowino
