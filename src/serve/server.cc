#include "serve/server.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/fault.h"
#include "parallel/thread_pool.h"

namespace lowino {
namespace {

/// Absolute deadline of a request admitted at `now` with a relative SLO
/// budget (kNoDeadline budget: never expires; negative budgets clamp to 0,
/// i.e. already expired). Saturates to kNoDeadline instead of overflowing.
Nanos slo_deadline(Nanos now, Nanos slo_ns) {
  if (slo_ns == kNoDeadline) return kNoDeadline;
  const Nanos budget = std::max<Nanos>(slo_ns, 0);
  return now > kNoDeadline - budget ? kNoDeadline : now + budget;
}

/// Exception-contained batch execution, shared by both servers: one attempt
/// over the whole batch and, if that throws, one retry per member alone so a
/// single poisoned request cannot sink its batchmates. Returns true when the
/// batch attempt succeeded; otherwise retry_ok[i] records member i's retry.
/// Never throws; ServerCore::settle_batch books the outcome.
template <class Run>
bool run_contained(std::span<const std::uint32_t> batch, Run&& run,
                   std::vector<std::uint8_t>& retry_ok) {
  try {
    run(batch);
    return true;
  } catch (...) {
    // Fall through to the member-by-member isolation pass.
  }
  retry_ok.assign(batch.size(), 0);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    try {
      run(batch.subspan(i, 1));
      retry_ok[i] = 1;
    } catch (...) {
    }
  }
  return false;
}

}  // namespace

const char* serve_result_name(ServeResult r) {
  switch (r) {
    case ServeResult::kOk: return "ok";
    case ServeResult::kQueueFull: return "queue-full";
    case ServeResult::kExpired: return "expired";
    case ServeResult::kShutdown: return "shutdown";
    case ServeResult::kFailed: return "failed";
    case ServeResult::kWorkerLost: return "worker-lost";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Stats

std::size_t LatencyHistogram::bucket_of(Nanos ns) {
  if (ns < 2) return 0;
  const auto width = static_cast<std::size_t>(std::bit_width(static_cast<std::uint64_t>(ns)));
  return std::min(width - 1, kBuckets - 1);
}

std::uint64_t LatencyHistogram::total() const {
  std::uint64_t n = 0;
  for (const std::uint64_t c : counts) n += c;
  return n;
}

// ---------------------------------------------------------------------------
// Clocks

Nanos RealClock::now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

RealClock& RealClock::instance() {
  static RealClock clock;
  return clock;
}

// ---------------------------------------------------------------------------
// Batcher

Batcher::Batcher(const BatcherOptions& options) : options_(options) {
  if (options_.max_batch < 1) {
    throw std::invalid_argument("Batcher: max_batch must be >= 1");
  }
  if (options_.capacity < options_.max_batch) {
    throw std::invalid_argument("Batcher: capacity must be >= max_batch");
  }
  if (options_.shed_high != 0) {
    if (options_.shed_high > options_.capacity) {
      throw std::invalid_argument("Batcher: shed_high must be <= capacity");
    }
    shed_low_ = options_.shed_low != 0 ? options_.shed_low : options_.shed_high / 2;
    if (shed_low_ >= options_.shed_high) {
      throw std::invalid_argument("Batcher: shed_low must be < shed_high");
    }
  }
  queue_.reserve(options_.capacity);
}

Batcher::Admit Batcher::admit(std::uint32_t ticket, Nanos now, Nanos deadline) {
  if (queue_.size() >= options_.capacity) return Admit::kFull;
  if (options_.shed_high != 0) {
    // Hysteresis: engage at shed_high, disengage only once the queue has
    // drained to shed_low — admissions in between follow the current state,
    // so the server alternates between whole accepted and whole shed bursts
    // instead of flapping per request.
    if (queue_.size() >= options_.shed_high) shedding_ = true;
    if (shedding_) return Admit::kShed;
  }
  queue_.push_back(Pending{ticket, now, deadline});
  return Admit::kAdmitted;
}

void Batcher::update_shed_after_removal() {
  if (shedding_ && queue_.size() <= shed_low_) shedding_ = false;
}

std::size_t Batcher::expire(Nanos now, std::vector<std::uint32_t>& expired) {
  std::size_t kept = 0;
  std::size_t removed = 0;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (queue_[i].deadline_ns <= now) {
      expired.push_back(queue_[i].ticket);
      ++removed;
    } else {
      queue_[kept++] = queue_[i];
    }
  }
  queue_.resize(kept);
  update_shed_after_removal();
  return removed;
}

std::size_t Batcher::pop(std::vector<std::uint32_t>& batch) {
  const std::size_t n = std::min(queue_.size(), options_.max_batch);
  for (std::size_t i = 0; i < n; ++i) batch.push_back(queue_[i].ticket);
  queue_.erase(queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(n));
  update_shed_after_removal();
  return n;
}

std::size_t Batcher::clear(std::vector<std::uint32_t>& out) {
  const std::size_t n = queue_.size();
  for (const Pending& p : queue_) out.push_back(p.ticket);
  queue_.clear();
  update_shed_after_removal();
  return n;
}

Nanos Batcher::next_event() const {
  Nanos event = kNoDeadline;
  for (const Pending& p : queue_) event = std::min(event, p.deadline_ns);
  return event;
}

Nanos Batcher::oldest_enqueue() const {
  return queue_.empty() ? kNoDeadline : queue_.front().enqueue_ns;
}

// ---------------------------------------------------------------------------
// ServerCore

ServerCore::ServerCore(const BatcherOptions& options)
    : slots_(options.capacity), batcher_(options) {
  free_.reserve(slots_.size());
  // Descending so ticket 0 is handed out first (stable, readable tests).
  for (std::size_t i = slots_.size(); i > 0; --i) {
    free_.push_back(static_cast<std::uint32_t>(i - 1));
  }
}

std::uint32_t ServerCore::submit(const float* input, float* output, Nanos now,
                                 Nanos deadline) {
  if (draining_) return kNoTicket;
  if (free_.empty()) {
    ++stats_.rejected_full;
    return kNoTicket;
  }
  const std::uint32_t ticket = free_.back();
  switch (batcher_.admit(ticket, now, deadline)) {
    case Batcher::Admit::kFull:
      ++stats_.rejected_full;
      return kNoTicket;
    case Batcher::Admit::kShed:
      ++stats_.rejected_shed;
      return kNoTicket;
    case Batcher::Admit::kAdmitted:
      break;
  }
  free_.pop_back();
  Slot& slot = slots_[ticket];
  slot.input = input;
  slot.output = output;
  slot.enqueue_ns = now;
  slot.state = SlotState::kQueued;
  slot.worker_lost = false;
  ++stats_.submitted;
  return ticket;
}

SlotState ServerCore::state(std::uint32_t ticket) const {
  return slots_[ticket].state;
}

void ServerCore::release(std::uint32_t ticket) {
  Slot& slot = slots_[ticket];
  assert(slot.state == SlotState::kDone || slot.state == SlotState::kExpired ||
         slot.state == SlotState::kFailed);
  slot.state = SlotState::kFree;
  slot.input = nullptr;
  slot.output = nullptr;
  slot.worker_lost = false;
  free_.push_back(ticket);
}

std::size_t ServerCore::expire(Nanos now, std::vector<std::uint32_t>& expired) {
  const std::size_t base = expired.size();
  const std::size_t n = batcher_.expire(now, expired);
  for (std::size_t i = base; i < expired.size(); ++i) {
    slots_[expired[i]].state = SlotState::kExpired;
    ++stats_.rejected_expired;
  }
  return n;
}

std::size_t ServerCore::close_batch(Nanos now, std::vector<std::uint32_t>& batch) {
  const std::size_t base = batch.size();
  const std::size_t n = batcher_.pop(batch);
  if (n == 0) return 0;
  for (std::size_t i = base; i < batch.size(); ++i) {
    Slot& slot = slots_[batch[i]];
    assert(slot.state == SlotState::kQueued);
    slot.state = SlotState::kRunning;
    slot.close_ns = now;
  }
  running_ += n;
  ++stats_.batches;
  stats_.batched_requests += n;
  if (n >= batcher_.options().max_batch) {
    ++stats_.closed_full;
  } else {
    ++stats_.closed_linger;
  }
  return n;
}

void ServerCore::complete(std::span<const std::uint32_t> batch, Nanos now) {
  for (const std::uint32_t ticket : batch) complete_one(ticket, now);
}

void ServerCore::complete_one(std::uint32_t ticket, Nanos now) {
  Slot& slot = slots_[ticket];
  assert(slot.state == SlotState::kRunning);
  slot.state = SlotState::kDone;
  assert(running_ >= 1);
  --running_;
  ++stats_.served;
  // Booked on completion, so a failed request never reaches the served-only
  // times.
  stats_.queue_ns_sum += static_cast<std::uint64_t>(slot.close_ns - slot.enqueue_ns);
  stats_.queue_ns.record(slot.close_ns - slot.enqueue_ns);
  stats_.exec_ns.record(now - slot.close_ns);
  stats_.total_ns.record(now - slot.enqueue_ns);
}

void ServerCore::fail(std::uint32_t ticket, bool lost) {
  Slot& slot = slots_[ticket];
  assert(slot.state == SlotState::kRunning);
  slot.state = SlotState::kFailed;
  slot.worker_lost = lost;
  assert(running_ >= 1);
  --running_;
  if (lost) {
    ++stats_.worker_lost;
  } else {
    ++stats_.failed;
  }
}

std::size_t ServerCore::fail_all_queued(std::vector<std::uint32_t>& out) {
  const std::size_t base = out.size();
  const std::size_t n = batcher_.clear(out);
  for (std::size_t i = base; i < out.size(); ++i) {
    Slot& slot = slots_[out[i]];
    assert(slot.state == SlotState::kQueued);
    slot.state = SlotState::kFailed;
    slot.worker_lost = true;
  }
  stats_.worker_lost += n;
  return n;
}

std::size_t ServerCore::settle_batch(std::span<const std::uint32_t> batch, bool batch_ok,
                                     std::span<const std::uint8_t> retry_ok, Nanos now) {
  if (batch_ok) {
    complete(batch, now);
    return 0;
  }
  assert(retry_ok.size() == batch.size());
  ++stats_.batch_failures;
  stats_.retries += batch.size();
  std::size_t n_failed = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (retry_ok[i]) {
      complete_one(batch[i], now);
    } else {
      fail(batch[i]);
      ++n_failed;
    }
  }
  return n_failed;
}

bool ServerCore::failed_by_worker_loss(std::uint32_t ticket) const {
  const Slot& slot = slots_[ticket];
  return slot.state == SlotState::kFailed && slot.worker_lost;
}

const float* ServerCore::slot_input(std::uint32_t ticket) const {
  return slots_[ticket].input;
}

float* ServerCore::slot_output(std::uint32_t ticket) const {
  return slots_[ticket].output;
}

void run_session_batch(const ServerCore& core, std::span<const std::uint32_t> batch,
                       InferenceSession& session, Tensor<float>& in, Tensor<float>& out) {
  const std::size_t in_elems = in.size() / session.batch();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    std::memcpy(in.data() + i * in_elems, core.slot_input(batch[i]),
                in_elems * sizeof(float));
  }
  session.run(in, out, batch.size());
  const std::size_t out_elems = out.size() / session.batch();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    std::memcpy(core.slot_output(batch[i]), out.data() + i * out_elems,
                out_elems * sizeof(float));
  }
}

// ---------------------------------------------------------------------------
// ManualServer

ManualServer::ManualServer(const BatcherOptions& options, VirtualClock* clock,
                           BatchRunner runner)
    : core_(options), clock_(clock), runner_(std::move(runner)) {
  if (clock_ == nullptr) throw std::invalid_argument("ManualServer: null clock");
  if (!runner_) throw std::invalid_argument("ManualServer: null runner");
}

std::uint32_t ManualServer::submit(std::span<const float> input, std::span<float> output,
                                   Nanos slo_ns) {
  const Nanos now = clock_->now();
  return core_.submit(input.data(), output.data(), now, slo_deadline(now, slo_ns));
}

ManualServer::StepOutcome ManualServer::step() {
  StepOutcome outcome;
  const Nanos now = clock_->now();
  core_.expire(now, outcome.expired);
  if (!core_.ready()) return outcome;
  core_.close_batch(now, outcome.batch);
  std::vector<std::uint8_t> retry_ok;
  const bool batch_ok = run_contained(
      outcome.batch,
      [&](std::span<const std::uint32_t> tickets) { runner_(tickets, core_); }, retry_ok);
  core_.settle_batch(outcome.batch, batch_ok, retry_ok, clock_->now());
  for (const std::uint32_t t : outcome.batch) {
    if (core_.state(t) == SlotState::kFailed) outcome.failed.push_back(t);
  }
  return outcome;
}

std::size_t ManualServer::drain() {
  core_.begin_drain();
  std::size_t steps = 0;
  while (!core_.idle()) {
    step();
    ++steps;
  }
  return steps;
}

// ---------------------------------------------------------------------------
// BatchingServer

namespace {

BatcherOptions resolve_batcher_options(const ServerOptions& o) {
  BatcherOptions b;
  b.max_batch = o.max_batch;
  b.capacity = o.queue_capacity != 0
                   ? o.queue_capacity
                   : std::max<std::size_t>(o.num_workers, 1) * o.max_batch * 4;
  b.capacity = std::max(b.capacity, b.max_batch);
  b.shed_high = o.shed_high_watermark;
  b.shed_low = o.shed_low_watermark;
  return b;
}

/// Worker supervision tuning: a worker whose batches keep failing wholesale
/// (every member's individual retry threw too — the session itself, not a
/// poisoned input, is the suspect) rebuilds its session after this many
/// consecutive all-failed batches ...
constexpr std::size_t kRebuildThreshold = 3;
/// ... trying this many compiles ...
constexpr int kRebuildAttempts = 3;
/// ... with doubling backoff between attempts, capped.
constexpr Nanos kRebuildBackoffBaseNs = 250'000;   // 250 us
constexpr Nanos kRebuildBackoffCapNs = 5'000'000;  // 5 ms

/// Replicates the calibration input's images cyclically into a max_batch
/// tensor. Replication changes no per-channel value distribution, so KL
/// calibration at the server batch matches calibration on the original
/// input (every op in the network is per-image independent).
Tensor<float> replicate_calibration(const Tensor<float>& calib, std::size_t batch) {
  if (calib.shape().size() != 4) {
    throw std::invalid_argument("BatchingServer: calibration input must be rank-4 NCHW");
  }
  const std::size_t src_batch = calib.dim(0);
  const std::size_t image = calib.size() / src_batch;
  Tensor<float> out({batch, calib.dim(1), calib.dim(2), calib.dim(3)});
  for (std::size_t b = 0; b < batch; ++b) {
    std::memcpy(out.data() + b * image, calib.data() + (b % src_batch) * image,
                image * sizeof(float));
  }
  return out;
}

}  // namespace

VirtualClock& BatchingServer::clock() const {
  return options_.clock != nullptr ? *options_.clock : RealClock::instance();
}

BatchingServer::BatchingServer(SequentialModel& model, const Tensor<float>& calib_input,
                               const ServerOptions& options)
    : options_(options), model_(&model), core_(resolve_batcher_options(options)) {
  if (options_.num_workers < 1) {
    throw std::invalid_argument("BatchingServer: num_workers must be >= 1");
  }
  calib_ = replicate_calibration(calib_input, options_.max_batch);
  input_elems_ = calib_.size() / options_.max_batch;

  workers_ = std::vector<Worker>(options_.num_workers);
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    workers_[w].pool = std::make_unique<ThreadPool>(options_.threads_per_worker);
  }
  // Worker 0 plans (shoot-out / replay / forced engine per the caller's
  // options) and must succeed — a server that cannot build even one session
  // is a construction error, not a degraded fleet. Every other worker
  // replays the resulting immutable plan (identical engine choices, no
  // re-measuring) best-effort: one that fails to build degrades out and is
  // retried at the next start().
  {
    Worker& w0 = workers_.front();
    maybe_inject_fault(FaultSite::kWorkerStart);
    PlanOptions plan = options_.plan;
    plan.pool = w0.pool.get();
    w0.session.emplace(InferenceSession::compile(model, calib_, plan));
    plan_ = w0.session->plan();
    // Pre-warm against the worker's own gather/scatter tensors: the first
    // run shapes `out`, and afterwards the hot path never allocates.
    w0.in.reshape(calib_.shape());
    std::fill(w0.in.data(), w0.in.data() + w0.in.size(), 0.0f);
    w0.session->run(w0.in, w0.out);
  }
  for (std::size_t w = 1; w < workers_.size(); ++w) {
    try {
      build_worker_session(workers_[w]);
    } catch (...) {
      workers_[w].lost = true;
      ++workers_lost_;
    }
  }
  output_elems_ = workers_.front().out.size() / options_.max_batch;

  slot_sync_ = std::make_unique<SlotSync[]>(core_.capacity());
  expired_scratch_.reserve(core_.capacity());
  start();
}

BatchingServer::~BatchingServer() { stop(); }

void BatchingServer::start() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (accepting_) return;
    // Resurrect workers degraded out of a previous run (best effort — a
    // rebuild that fails here just leaves the worker lost for another try).
    for (Worker& w : workers_) {
      if (!w.lost) continue;
      try {
        build_worker_session(w);
        ++worker_restarts_;
      } catch (...) {
      }
    }
    std::size_t live = 0;
    for (const Worker& w : workers_) {
      if (!w.lost) ++live;
    }
    if (live == 0) {
      throw std::runtime_error("BatchingServer::start: no worker could build a session");
    }
    // An abandoned worker's loop returned without a stop() to join it; its
    // dead handle must be joined before a new thread is assigned over it.
    for (Worker& w : workers_) {
      if (w.thread.joinable()) w.thread.join();
    }
    stopping_ = false;
    core_.end_drain();
    accepting_ = true;
    workers_live_ = live;
  }
  for (Worker& w : workers_) {
    if (!w.lost) w.thread = std::thread([this, &w] { worker_loop(w); });
  }
}

void BatchingServer::stop() {
  // Move the joinable handles out under the lock so a concurrent stop() (or
  // a serve()/stop() race) never touches a std::thread from two threads.
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lk(mu_);
    accepting_ = false;
    if (!stopping_) {
      bool any = false;
      for (const Worker& w : workers_) {
        if (w.thread.joinable()) any = true;
      }
      if (any) {
        stopping_ = true;
        core_.begin_drain();
        work_cv_.notify_all();
      }
    }
    to_join.reserve(workers_.size());
    for (Worker& w : workers_) {
      if (w.thread.joinable()) to_join.push_back(std::move(w.thread));
    }
  }
  for (std::thread& t : to_join) t.join();
}

bool BatchingServer::running() const {
  std::lock_guard<std::mutex> lk(mu_);
  return accepting_;
}

ServeStats BatchingServer::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return core_.stats();
}

ServeResult BatchingServer::serve(std::span<const float> image, std::span<float> output,
                                  Nanos slo_ns) {
  if (image.size() != input_elems_ || output.size() != output_elems_) {
    throw std::invalid_argument("BatchingServer::serve: span sizes must be (" +
                                std::to_string(input_elems_) + ", " +
                                std::to_string(output_elems_) + ")");
  }
  const Nanos slo = slo_ns == kUseDefaultSlo ? options_.default_slo_ns : slo_ns;
  std::unique_lock<std::mutex> lk(mu_);
  if (!accepting_) return ServeResult::kShutdown;
  const Nanos now = clock().now();
  const std::uint32_t ticket =
      core_.submit(image.data(), output.data(), now, slo_deadline(now, slo));
  if (ticket == ServerCore::kNoTicket) return ServeResult::kQueueFull;
  work_cv_.notify_one();
  SlotSync& sync = slot_sync_[ticket];
  sync.cv.wait(lk, [&] {
    const SlotState s = core_.state(ticket);
    return s == SlotState::kDone || s == SlotState::kExpired || s == SlotState::kFailed;
  });
  ServeResult result;
  switch (core_.state(ticket)) {
    case SlotState::kDone:
      result = ServeResult::kOk;
      break;
    case SlotState::kExpired:
      result = ServeResult::kExpired;
      break;
    default:
      result = core_.failed_by_worker_loss(ticket) ? ServeResult::kWorkerLost
                                                   : ServeResult::kFailed;
      break;
  }
  core_.release(ticket);
  return result;
}

ServerHealth BatchingServer::health() const {
  std::lock_guard<std::mutex> lk(mu_);
  ServerHealth h;
  h.workers = workers_.size();
  h.workers_live = workers_live_;
  h.workers_lost = workers_lost_;
  h.restarts = worker_restarts_;
  h.accepting = accepting_;
  h.shedding = core_.shedding();
  return h;
}

void BatchingServer::worker_loop(Worker& worker) {
  std::vector<std::uint32_t> batch;
  batch.reserve(options_.max_batch);
  std::vector<std::uint8_t> retry_ok;
  retry_ok.reserve(options_.max_batch);
  // Consecutive batches in which *every* member failed even on its
  // individual retry. Partial failures reset it: when retries succeed the
  // session is healthy and the failure was input-bound, not worker-bound.
  std::size_t consecutive_failures = 0;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    // Work-conserving: expire overdue SLOs, then close whatever is queued.
    // A free worker only ever waits on an empty queue, where no deadline
    // can pass, so the wait needs no timeout.
    for (;;) {
      expired_scratch_.clear();
      core_.expire(clock().now(), expired_scratch_);
      for (const std::uint32_t t : expired_scratch_) slot_sync_[t].cv.notify_one();
      if (core_.ready()) break;
      if (stopping_) {
        if (workers_live_ > 0) --workers_live_;
        return;
      }
      work_cv_.wait(lk);
    }
    batch.clear();
    core_.close_batch(clock().now(), batch);
    // More is queued than one batch holds (a burst that arrived while every
    // worker was busy): hand it to another idle worker before going busy.
    if (core_.pending() > 0) work_cv_.notify_one();
    lk.unlock();
    // Lock-free by contract: a kRunning slot's bindings are immutable until
    // it settles, and the mutex acquire that closed the batch ordered them.
    const bool batch_ok = run_contained(
        batch,
        [&](std::span<const std::uint32_t> tickets) {
          run_session_batch(core_, tickets, *worker.session, worker.in, worker.out);
        },
        retry_ok);
    lk.lock();
    const std::size_t n_failed = core_.settle_batch(batch, batch_ok, retry_ok, clock().now());
    consecutive_failures = n_failed == batch.size() ? consecutive_failures + 1 : 0;
    for (const std::uint32_t t : batch) slot_sync_[t].cv.notify_one();
    if (consecutive_failures >= kRebuildThreshold) {
      if (supervise_rebuild(worker, lk)) {
        consecutive_failures = 0;
      } else {
        abandon_worker(worker);
        return;  // lk unlocks on scope exit
      }
    }
  }
}

void BatchingServer::build_worker_session(Worker& worker) {
  maybe_inject_fault(FaultSite::kWorkerStart);
  PlanOptions plan = options_.plan;
  plan.pool = worker.pool.get();
  plan.reuse = &plan_;
  InferenceSession session = InferenceSession::compile(*model_, calib_, plan);
  // Pre-warm before installing, so a throw anywhere above (including
  // injected session-run faults) retains the worker's previous session.
  worker.in.reshape(calib_.shape());
  std::fill(worker.in.data(), worker.in.data() + worker.in.size(), 0.0f);
  session.run(worker.in, worker.out);
  worker.session.emplace(std::move(session));
  worker.lost = false;
}

bool BatchingServer::supervise_rebuild(Worker& worker, std::unique_lock<std::mutex>& lk) {
  // Compile outside the lock — rebuilds are slow and the surviving workers
  // must keep serving. The worker's own tensors/session are safe to touch
  // unlocked: only this thread ever uses them.
  lk.unlock();
  bool ok = false;
  Nanos backoff = kRebuildBackoffBaseNs;
  for (int attempt = 0; attempt < kRebuildAttempts && !ok; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(backoff));
      backoff = std::min<Nanos>(backoff * 2, kRebuildBackoffCapNs);
    }
    try {
      build_worker_session(worker);
      ok = true;
    } catch (...) {
    }
  }
  lk.lock();
  if (ok) ++worker_restarts_;
  return ok;
}

void BatchingServer::abandon_worker(Worker& worker) {
  worker.lost = true;
  worker.session.reset();
  ++workers_lost_;
  if (workers_live_ > 0) --workers_live_;
  if (workers_live_ == 0) {
    // Fleet loss: nothing is left to ever run the queue. Fail everything
    // still queued as worker-lost and stop admitting, so no client hangs on
    // an empty fleet.
    accepting_ = false;
    expired_scratch_.clear();
    core_.fail_all_queued(expired_scratch_);
    for (const std::uint32_t t : expired_scratch_) slot_sync_[t].cv.notify_one();
  }
}

}  // namespace lowino
