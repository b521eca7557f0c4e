// Tests for the dynamic-batching serving front end (src/serve/server.h).
//
// The deterministic half drives the Batcher / ServerCore / ManualServer
// layers with an injected FakeClock — work-conserving batch formation, SLO
// rejection, FIFO fairness and shutdown drain are exercised without threads
// or sleeps. The differential half is the serving-correctness contract:
// batched execution (including partial batches with stale lanes) must be
// bit-identical per request to a serial batch-1 session on the same inputs,
// across MiniVGG and MiniResNet and every batch size 1..max — first through
// the deterministic ManualServer, then through the real threaded
// BatchingServer under concurrent clients.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/fault.h"
#include "common/rng.h"
#include "nn/model_zoo.h"
#include "parallel/thread_pool.h"
#include "serve/server.h"
#include "serve/session.h"

namespace lowino {
namespace {

Tensor<float> random_input(std::size_t batch, std::size_t hw, std::uint64_t seed) {
  Tensor<float> t({batch, 1, hw, hw});
  Rng rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i) t.data()[i] = rng.uniform(-1.0f, 1.0f);
  return t;
}

constexpr Nanos kMs = 1000000;

BatcherOptions batcher_options(std::size_t max_batch, std::size_t capacity) {
  BatcherOptions o;
  o.max_batch = max_batch;
  o.capacity = capacity;
  return o;
}

bool admitted(Batcher::Admit a) { return a == Batcher::Admit::kAdmitted; }

// --- Batcher: the pure policy ----------------------------------------------

TEST(Batcher, ReadyWheneverAnythingIsPending) {
  Batcher b(batcher_options(4, 16));
  EXPECT_FALSE(b.ready()) << "nothing queued";
  ASSERT_TRUE(admitted(b.admit(7, /*now=*/1000)));
  EXPECT_TRUE(b.ready()) << "a lone request closes at once: no linger";
  std::vector<std::uint32_t> batch;
  EXPECT_EQ(b.pop(batch), 1u);
  EXPECT_EQ(batch.front(), 7u);
  EXPECT_FALSE(b.ready());

  for (std::uint32_t t = 0; t < 5; ++t) ASSERT_TRUE(admitted(b.admit(t, 2000)));
  batch.clear();
  EXPECT_EQ(b.pop(batch), 4u) << "what queued meanwhile closes up to max_batch";
  EXPECT_EQ(batch, (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_TRUE(b.ready());
  batch.clear();
  EXPECT_EQ(b.pop(batch), 1u);
  EXPECT_EQ(batch.front(), 4u);
  EXPECT_EQ(b.pending(), 0u);
}

TEST(Batcher, NextEventIsTheEarliestSloDeadline) {
  Batcher b(batcher_options(4, 16));
  EXPECT_EQ(b.next_event(), kNoDeadline) << "empty queue";
  ASSERT_TRUE(admitted(b.admit(0, 0)));
  EXPECT_EQ(b.next_event(), kNoDeadline) << "no queued request has a deadline";
  ASSERT_TRUE(admitted(b.admit(1, kMs, /*deadline=*/7 * kMs)));
  ASSERT_TRUE(admitted(b.admit(2, 2 * kMs, /*deadline=*/3 * kMs)));
  EXPECT_EQ(b.next_event(), 3 * kMs) << "the earliest deadline, not the oldest request";
  std::vector<std::uint32_t> expired;
  ASSERT_EQ(b.expire(3 * kMs, expired), 1u);
  EXPECT_EQ(b.next_event(), 7 * kMs);
  std::vector<std::uint32_t> batch;
  b.pop(batch);
  EXPECT_EQ(b.next_event(), kNoDeadline);

  // At the epoch end nothing wraps: a request admitted one tick before it
  // keeps kNoDeadline, stays ready and never expires.
  const Nanos late = std::numeric_limits<Nanos>::max() - 1;
  ASSERT_TRUE(admitted(b.admit(3, late)));
  EXPECT_EQ(b.next_event(), kNoDeadline);
  EXPECT_TRUE(b.ready());
  expired.clear();
  EXPECT_EQ(b.expire(late, expired), 0u);
}

TEST(Batcher, SloDeadlineExpiresQueuedRequests) {
  Batcher b(batcher_options(4, 16));
  ASSERT_TRUE(admitted(b.admit(0, 0, /*deadline=*/10 * kMs)));
  ASSERT_TRUE(admitted(b.admit(1, 0, /*deadline=*/kNoDeadline)));
  ASSERT_TRUE(admitted(b.admit(2, 0, /*deadline=*/3 * kMs)));
  EXPECT_EQ(b.next_event(), 3 * kMs) << "earliest deadline";
  std::vector<std::uint32_t> expired;
  EXPECT_EQ(b.expire(3 * kMs - 1, expired), 0u);
  EXPECT_EQ(b.expire(10 * kMs, expired), 2u) << "both due deadlines expire at once";
  EXPECT_EQ(expired, (std::vector<std::uint32_t>{0, 2})) << "FIFO order";
  std::vector<std::uint32_t> batch;
  EXPECT_EQ(b.pop(batch), 1u);
  EXPECT_EQ(batch.front(), 1u) << "expired tickets never reach a batch";
}

TEST(Batcher, CapacityBoundsAdmissions) {
  Batcher b(batcher_options(2, 3));
  EXPECT_TRUE(admitted(b.admit(0, 0)));
  EXPECT_TRUE(admitted(b.admit(1, 0)));
  EXPECT_TRUE(admitted(b.admit(2, 0)));
  EXPECT_FALSE(admitted(b.admit(3, 0))) << "queue at capacity";
  std::vector<std::uint32_t> batch;
  EXPECT_EQ(b.pop(batch), 2u) << "pop is bounded by max_batch, not capacity";
  EXPECT_TRUE(admitted(b.admit(3, 0))) << "capacity freed by the pop";
}

TEST(Batcher, FifoAcrossMultipleBatches) {
  Batcher b(batcher_options(3, 16));
  for (std::uint32_t t = 0; t < 8; ++t) ASSERT_TRUE(admitted(b.admit(t, t)));
  std::vector<std::uint32_t> batch;
  b.pop(batch);
  EXPECT_EQ(batch, (std::vector<std::uint32_t>{0, 1, 2}));
  batch.clear();
  b.pop(batch);
  EXPECT_EQ(batch, (std::vector<std::uint32_t>{3, 4, 5}));
  batch.clear();
  EXPECT_EQ(b.pop(batch), 2u);
  EXPECT_EQ(batch, (std::vector<std::uint32_t>{6, 7}));
}

TEST(Batcher, RejectsDegenerateOptions) {
  EXPECT_THROW(Batcher(batcher_options(0, 4)), std::invalid_argument);
  EXPECT_THROW(Batcher(batcher_options(4, 2)), std::invalid_argument);
}

// --- ServerCore: slots + lifecycle -----------------------------------------

TEST(ServerCore, SlotLifecycleAndReuse) {
  ServerCore core(batcher_options(2, 4));
  float in[1] = {1.0f}, out[1] = {0.0f};
  const std::uint32_t t = core.submit(in, out, /*now=*/0);
  ASSERT_NE(t, ServerCore::kNoTicket);
  EXPECT_EQ(core.state(t), SlotState::kQueued);
  EXPECT_EQ(core.slot_input(t), in);
  EXPECT_EQ(core.slot_output(t), out);

  std::vector<std::uint32_t> batch;
  ASSERT_TRUE(core.ready());
  EXPECT_EQ(core.close_batch(2 * kMs, batch), 1u);
  EXPECT_EQ(core.state(t), SlotState::kRunning);
  EXPECT_EQ(core.running(), 1u);
  core.complete(batch, 3 * kMs);
  EXPECT_EQ(core.state(t), SlotState::kDone);
  EXPECT_TRUE(core.idle());
  core.release(t);
  EXPECT_EQ(core.state(t), SlotState::kFree);

  EXPECT_EQ(core.submit(in, out, 0), t) << "released slot is reused";
  EXPECT_EQ(core.stats().submitted, 2u);
  EXPECT_EQ(core.stats().served, 1u);
  EXPECT_EQ(core.stats().closed_linger, 1u);
  EXPECT_EQ(core.stats().queue_ns_sum, static_cast<std::uint64_t>(2 * kMs));
}

TEST(ServerCore, QueueFullAndExpiryAreCountedSeparately) {
  ServerCore core(batcher_options(2, 2));
  float in[1], out[1];
  ASSERT_NE(core.submit(in, out, 0, /*deadline=*/5), ServerCore::kNoTicket);
  ASSERT_NE(core.submit(in, out, 0), ServerCore::kNoTicket);
  EXPECT_EQ(core.submit(in, out, 0), ServerCore::kNoTicket);
  EXPECT_EQ(core.stats().rejected_full, 1u);

  std::vector<std::uint32_t> expired;
  EXPECT_EQ(core.expire(10, expired), 1u);
  EXPECT_EQ(core.state(expired.front()), SlotState::kExpired);
  EXPECT_EQ(core.stats().rejected_expired, 1u);
  core.release(expired.front());
  EXPECT_NE(core.submit(in, out, 20), ServerCore::kNoTicket)
      << "expired slot is reusable after release";
}

TEST(ServerCore, DrainBlocksAdmissionButRunsWhatIsQueued) {
  ServerCore core(batcher_options(4, 8));
  float in[1], out[1];
  ASSERT_NE(core.submit(in, out, 0), ServerCore::kNoTicket);
  core.begin_drain();
  EXPECT_EQ(core.submit(in, out, 0), ServerCore::kNoTicket);
  EXPECT_EQ(core.stats().submitted, 1u) << "drain-time submit is not an admission";
  EXPECT_TRUE(core.ready()) << "the queued partial batch still closes";
  std::vector<std::uint32_t> batch;
  EXPECT_EQ(core.close_batch(0, batch), 1u);
}

// --- ManualServer: the deterministic executor -------------------------------

/// Runner that records batch compositions and "serves" each request by
/// writing input[0] + 100 to its output.
struct RecordingRunner {
  std::vector<std::vector<std::uint32_t>> batches;

  ManualServer::BatchRunner fn() {
    return [this](std::span<const std::uint32_t> tickets, ServerCore& core) {
      batches.emplace_back(tickets.begin(), tickets.end());
      for (const std::uint32_t t : tickets) {
        core.slot_output(t)[0] = core.slot_input(t)[0] + 100.0f;
      }
    };
  }
};

TEST(ManualServer, FullBatchCloseServesAllRequests) {
  FakeClock clock;
  RecordingRunner runner;
  ManualServer server(batcher_options(3, 8), &clock, runner.fn());
  float in[4], out[4];
  std::uint32_t tickets[4];
  for (int i = 0; i < 4; ++i) {
    in[i] = static_cast<float>(i);
    tickets[i] = server.submit({&in[i], 1}, {&out[i], 1});
    ASSERT_NE(tickets[i], ServerCore::kNoTicket);
  }
  const ManualServer::StepOutcome o = server.step();
  EXPECT_TRUE(o.expired.empty());
  EXPECT_EQ(o.batch.size(), 3u) << "full batch closes; 4th request stays queued";
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(server.state(tickets[i]), SlotState::kDone);
    EXPECT_EQ(out[i], in[i] + 100.0f);
  }
  EXPECT_EQ(server.state(tickets[3]), SlotState::kQueued);
  EXPECT_EQ(server.core().stats().closed_full, 1u);
}

TEST(ManualServer, IdleServerRunsALoneRequestAtAdmission) {
  FakeClock clock(5 * kMs);
  RecordingRunner runner;
  ManualServer server(batcher_options(4, 8), &clock, runner.fn());
  float in[1] = {1.0f}, out[1] = {-1.0f};
  const std::uint32_t t = server.submit({in, 1}, {out, 1});
  ASSERT_NE(t, ServerCore::kNoTicket);

  // Same instant, no clock advance: a free worker does not wait for company.
  const ManualServer::StepOutcome o = server.step();
  EXPECT_EQ(o.batch, (std::vector<std::uint32_t>{t}));
  EXPECT_EQ(server.state(t), SlotState::kDone);
  EXPECT_EQ(out[0], 101.0f);
  const ServeStats& stats = server.core().stats();
  EXPECT_EQ(stats.queue_ns_sum, 0u) << "closed at its admission instant";
  EXPECT_EQ(stats.queue_ns.counts[LatencyHistogram::bucket_of(0)], 1u);
  EXPECT_EQ(stats.queue_ns.total(), 1u);
  EXPECT_EQ(stats.closed_linger, 1u) << "closed below max_batch";
  EXPECT_EQ(stats.closed_full, 0u);
  EXPECT_TRUE(server.step().batch.empty()) << "nothing left to run";
}

TEST(ManualServer, ArrivalsDuringARunFormTheNextBatch) {
  // Six requests arrive while the worker runs a lone first request; the
  // runner submits them itself, 0.1 ms apart, as clients of a busy server.
  FakeClock clock;
  constexpr int kArrivals = 6;
  float in[1 + kArrivals], out[1 + kArrivals];
  std::uint32_t tickets[1 + kArrivals];
  ManualServer* server_ptr = nullptr;
  std::vector<std::vector<std::uint32_t>> batches;
  ManualServer server(
      batcher_options(4, 16), &clock,
      [&](std::span<const std::uint32_t> batch, ServerCore& core) {
        batches.emplace_back(batch.begin(), batch.end());
        if (batches.size() == 1) {
          for (int i = 1; i <= kArrivals; ++i) {
            clock.advance(kMs / 10);
            tickets[i] = server_ptr->submit({&in[i], 1}, {&out[i], 1});
          }
        }
        for (const std::uint32_t t : batch) {
          core.slot_output(t)[0] = core.slot_input(t)[0] + 100.0f;
        }
      });
  server_ptr = &server;
  for (int i = 0; i <= kArrivals; ++i) in[i] = static_cast<float>(i);
  tickets[0] = server.submit({&in[0], 1}, {&out[0], 1});

  EXPECT_EQ(server.step().batch, (std::vector<std::uint32_t>{tickets[0]}));
  EXPECT_EQ(server.core().pending(), static_cast<std::size_t>(kArrivals));
  EXPECT_EQ(server.step().batch,
            (std::vector<std::uint32_t>{tickets[1], tickets[2], tickets[3], tickets[4]}))
      << "the first four arrivals ride together, FIFO";
  EXPECT_EQ(server.step().batch, (std::vector<std::uint32_t>{tickets[5], tickets[6]}))
      << "the rest close at once, without waiting to fill";
  EXPECT_TRUE(server.step().batch.empty());
  ASSERT_EQ(batches.size(), 3u);
  for (int i = 0; i <= kArrivals; ++i) {
    EXPECT_EQ(server.state(tickets[i]), SlotState::kDone) << i;
    EXPECT_EQ(out[i], in[i] + 100.0f) << i;
  }
  const ServeStats& stats = server.core().stats();
  EXPECT_EQ(stats.closed_full, 1u);
  EXPECT_EQ(stats.closed_linger, 2u);
  EXPECT_EQ(stats.batched_requests, 7u);
  // Arrivals at 0.1..0.6 ms, all closed at 0.6 ms (the runner's clock).
  EXPECT_EQ(stats.queue_ns_sum, static_cast<std::uint64_t>((5 + 4 + 3 + 2 + 1 + 0) * kMs / 10));
}

TEST(ManualServer, SloExpiredRequestsAreRejectedNotServed) {
  FakeClock clock;
  RecordingRunner runner;
  ManualServer server(batcher_options(4, 8), &clock, runner.fn());
  float in[3] = {1, 2, 3}, out[3] = {-1, -1, -1};
  const std::uint32_t t0 = server.submit({&in[0], 1}, {&out[0], 1}, /*slo=*/5 * kMs);
  const std::uint32_t t1 = server.submit({&in[1], 1}, {&out[1], 1} /* no SLO */);
  const std::uint32_t t2 = server.submit({&in[2], 1}, {&out[2], 1}, /*slo=*/8 * kMs);

  clock.advance(10 * kMs);  // the worker was busy past both deadlines
  const ManualServer::StepOutcome o = server.step();
  EXPECT_EQ(o.expired, (std::vector<std::uint32_t>{t0, t2}));
  EXPECT_EQ(server.state(t0), SlotState::kExpired);
  EXPECT_EQ(server.state(t2), SlotState::kExpired);
  EXPECT_EQ(out[0], -1.0f) << "an expired request's output is never written";
  EXPECT_EQ(out[2], -1.0f);
  EXPECT_EQ(o.batch, (std::vector<std::uint32_t>{t1})) << "the survivor runs in the same step";
  EXPECT_EQ(server.state(t1), SlotState::kDone);
  EXPECT_EQ(out[1], 102.0f);
  EXPECT_EQ(server.core().stats().rejected_expired, 2u);
}

TEST(ManualServer, ShutdownDrainsInFlightRequestsInOrder) {
  FakeClock clock;
  RecordingRunner runner;
  ManualServer server(batcher_options(4, 16), &clock, runner.fn());
  float in[10], out[10];
  std::uint32_t tickets[10];
  for (int i = 0; i < 10; ++i) {
    in[i] = static_cast<float>(i);
    tickets[i] = server.submit({&in[i], 1}, {&out[i], 1});
    ASSERT_NE(tickets[i], ServerCore::kNoTicket);
  }
  // Drain must serve everything queued and preserve FIFO batch order.
  server.drain();
  ASSERT_EQ(runner.batches.size(), 3u);
  EXPECT_EQ(runner.batches[0].size(), 4u);
  EXPECT_EQ(runner.batches[1].size(), 4u);
  EXPECT_EQ(runner.batches[2].size(), 2u) << "final partial batch closes in drain";
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(server.state(tickets[i]), SlotState::kDone);
    EXPECT_EQ(out[i], in[i] + 100.0f);
    server.release(tickets[i]);
  }
  std::vector<std::uint32_t> flat;
  for (const auto& b : runner.batches) flat.insert(flat.end(), b.begin(), b.end());
  EXPECT_EQ(flat, (std::vector<std::uint32_t>(tickets, tickets + 10))) << "FIFO";
  EXPECT_EQ(server.submit({&in[0], 1}, {&out[0], 1}), ServerCore::kNoTicket)
      << "drained server admits nothing";
}

// --- Differential: batched serving is bit-identical to serial run -----------
//
// The serving construction promises each client the *same bits* a dedicated
// batch-1 session would have produced. Two ingredients make this hold and
// both are pinned here: calibration must not depend on the batch dimension
// (single-image calibration replicated to the session batch + the
// LOWINO_CALIB_STRIDE=1 override, neutralizing the tile-count-dependent
// calibration stride), and every op must be per-image independent (so stale
// data in unused lanes of a partial batch cannot bleed into live lanes).

/// A ManualServer runner over a caller-owned batched session, through the
/// serving layer's own gather -> prefix run -> scatter (run_session_batch,
/// the routine BatchingServer's workers call). Lanes n.. keep whatever the
/// previous batch left there — deliberately, to prove stale lanes are
/// harmless.
class SessionRunner {
 public:
  explicit SessionRunner(InferenceSession& session) : session_(session) {
    in_.reshape({session_.batch(), 1, 16, 16});
    std::fill(in_.data(), in_.data() + in_.size(), 0.0f);
    session_.run(in_, out_);
    out_elems_ = out_.size() / session_.batch();
  }

  std::size_t out_elems() const { return out_elems_; }

  ManualServer::BatchRunner fn() {
    return [this](std::span<const std::uint32_t> tickets, ServerCore& core) {
      run_session_batch(core, tickets, session_, in_, out_);
    };
  }

 private:
  InferenceSession& session_;
  std::size_t out_elems_ = 0;
  Tensor<float> in_, out_;
};

void check_batched_vs_serial(SequentialModel&& model, const char* model_name) {
  // Pin the calibration tile stride: it depends on the *total* tile count,
  // which scales with batch — the one knob that would legitimately make a
  // batch-4 session quantize differently from a batch-1 session.
  ScopedRuntimeOverride calib_stride("LOWINO_CALIB_STRIDE", "1");
  ThreadPool& pool = ThreadPool::global();
  constexpr std::size_t kMaxBatch = 4, kHw = 16;
  const Tensor<float> calib1 = random_input(1, kHw, 4242);
  Tensor<float> calibB({kMaxBatch, 1, kHw, kHw});
  for (std::size_t b = 0; b < kMaxBatch; ++b) {
    std::memcpy(calibB.data() + b * calib1.size(), calib1.data(),
                calib1.size() * sizeof(float));
  }

  for (const EngineKind kind : {EngineKind::kInt8Direct, EngineKind::kLoWinoF4}) {
    PlanOptions options;
    options.forced_engine = kind;
    options.pool = &pool;
    InferenceSession serial = InferenceSession::compile(model, calib1, options);
    InferenceSession batched = InferenceSession::compile(model, calibB, options);

    SessionRunner runner(batched);
    FakeClock clock;
    ManualServer server(batcher_options(kMaxBatch, 16), &clock, runner.fn());

    std::uint64_t seed = 1;
    for (std::size_t k = 1; k <= kMaxBatch; ++k) {  // every batch size
      std::vector<Tensor<float>> inputs;
      std::vector<std::vector<float>> outputs(k);
      std::vector<std::uint32_t> tickets(k);
      for (std::size_t i = 0; i < k; ++i) {
        inputs.push_back(random_input(1, kHw, 1000 * seed++ + i));
        outputs[i].assign(runner.out_elems(), -1.0f);
        tickets[i] = server.submit(inputs[i].span(), outputs[i]);
        ASSERT_NE(tickets[i], ServerCore::kNoTicket);
      }
      // All k queued before the worker frees up, so they ride together.
      const ManualServer::StepOutcome o = server.step();
      ASSERT_EQ(o.batch.size(), k);

      Tensor<float> ref;
      for (std::size_t i = 0; i < k; ++i) {
        serial.run(inputs[i], ref);
        ASSERT_EQ(ref.size(), outputs[i].size());
        EXPECT_EQ(0, std::memcmp(outputs[i].data(), ref.data(),
                                 ref.size() * sizeof(float)))
            << model_name << " engine " << engine_token(kind) << " batch size " << k
            << " request " << i << ": batched bits differ from serial run";
        server.release(tickets[i]);
      }
    }
  }
}

TEST(ServerDifferential, BatchedBitIdenticalToSerialMiniVgg) {
  check_batched_vs_serial(make_minivgg(), "minivgg");
}

TEST(ServerDifferential, BatchedBitIdenticalToSerialMiniResNet) {
  check_batched_vs_serial(make_miniresnet(), "miniresnet");
}

// The threaded server end to end: concurrent clients, real clock, both
// workers replaying one plan — every response must still be bit-identical to
// the serial session, whatever batches the scheduler formed.
TEST(ServerDifferential, ThreadedServerMatchesSerialUnderConcurrency) {
  ScopedRuntimeOverride calib_stride("LOWINO_CALIB_STRIDE", "1");
  constexpr std::size_t kClients = 8, kPerClient = 4, kHw = 16;
  SequentialModel model = make_miniresnet();
  const Tensor<float> calib = random_input(1, kHw, 99);

  ThreadPool pool(1);
  PlanOptions serial_options;
  serial_options.forced_engine = EngineKind::kLoWinoF4;
  serial_options.pool = &pool;
  InferenceSession serial = InferenceSession::compile(model, calib, serial_options);

  // Precompute the serial reference bits for every request.
  std::vector<Tensor<float>> inputs;
  std::vector<std::vector<float>> refs;
  Tensor<float> ref_out;
  for (std::size_t i = 0; i < kClients * kPerClient; ++i) {
    inputs.push_back(random_input(1, kHw, 777 + i));
    serial.run(inputs.back(), ref_out);
    refs.emplace_back(ref_out.data(), ref_out.data() + ref_out.size());
  }

  ServerOptions options;
  options.max_batch = 4;
  options.num_workers = 2;
  options.threads_per_worker = 1;
  options.plan.forced_engine = EngineKind::kLoWinoF4;
  BatchingServer server(model, calib, options);
  ASSERT_EQ(server.input_elems(), calib.size());
  ASSERT_EQ(server.output_elems(), refs.front().size());

  std::vector<int> mismatches(kClients, 0);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<float> out(server.output_elems());
      for (std::size_t r = 0; r < kPerClient; ++r) {
        const std::size_t i = c * kPerClient + r;
        const ServeResult res = server.serve(inputs[i].span(), out);
        if (res != ServeResult::kOk ||
            std::memcmp(out.data(), refs[i].data(), out.size() * sizeof(float)) != 0) {
          ++mismatches[c];
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(mismatches[c], 0) << "client " << c;
  }

  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.served, kClients * kPerClient);
  EXPECT_EQ(stats.rejected_full + stats.rejected_expired, 0u);
  EXPECT_GE(stats.batches, (kClients * kPerClient) / options.max_batch);
  EXPECT_EQ(stats.batched_requests, stats.served);
}

// --- BatchingServer lifecycle ----------------------------------------------

TEST(BatchingServer, StopDrainsAndRejectsThenRestarts) {
  SequentialModel model = make_minivgg();
  const Tensor<float> calib = random_input(1, 16, 11);
  ServerOptions options;
  options.max_batch = 2;
  options.plan.forced_engine = EngineKind::kInt8Direct;
  BatchingServer server(model, calib, options);
  EXPECT_TRUE(server.running());

  std::vector<float> in(server.input_elems(), 0.5f), out(server.output_elems());
  EXPECT_EQ(server.serve(in, out), ServeResult::kOk);

  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.serve(in, out), ServeResult::kShutdown);
  server.stop();  // idempotent

  server.start();
  EXPECT_TRUE(server.running());
  EXPECT_EQ(server.serve(in, out), ServeResult::kOk);
  EXPECT_EQ(server.stats().served, 2u);
}

TEST(BatchingServer, ServeValidatesSpanSizes) {
  SequentialModel model = make_minivgg();
  const Tensor<float> calib = random_input(1, 16, 12);
  ServerOptions options;
  options.max_batch = 2;
  options.plan.forced_engine = EngineKind::kInt8Direct;
  BatchingServer server(model, calib, options);
  std::vector<float> in(server.input_elems() + 1), out(server.output_elems());
  EXPECT_THROW(server.serve(in, out), std::invalid_argument);
  std::vector<float> in2(server.input_elems()), out2(server.output_elems() - 1);
  EXPECT_THROW(server.serve(in2, out2), std::invalid_argument);
}

// --- Overload shedding -------------------------------------------------------

TEST(Batcher, ShedWatermarksEngageAndDisengageWithHysteresis) {
  BatcherOptions o = batcher_options(2, 8);
  o.shed_high = 4;
  o.shed_low = 2;
  Batcher b(o);
  for (std::uint32_t t = 0; t < 4; ++t) ASSERT_TRUE(admitted(b.admit(t, 0)));
  EXPECT_FALSE(b.shedding()) << "watermark reached, but not checked until an admit";
  EXPECT_EQ(b.admit(4, 0), Batcher::Admit::kShed) << "depth 4 >= shed_high engages";
  EXPECT_TRUE(b.shedding());
  EXPECT_EQ(b.admit(5, 0), Batcher::Admit::kShed) << "stays engaged above shed_low";

  std::vector<std::uint32_t> batch;
  EXPECT_EQ(b.pop(batch), 2u);  // depth 4 -> 2 == shed_low: disengage
  EXPECT_FALSE(b.shedding());
  EXPECT_TRUE(admitted(b.admit(6, 0))) << "hysteresis reopened the door";
}

TEST(Batcher, ShedLowDefaultsToHalfOfShedHigh) {
  BatcherOptions o = batcher_options(1, 8);
  o.shed_high = 4;  // shed_low derives 2
  Batcher b(o);
  for (std::uint32_t t = 0; t < 4; ++t) ASSERT_TRUE(admitted(b.admit(t, 0)));
  EXPECT_EQ(b.admit(9, 0), Batcher::Admit::kShed);
  std::vector<std::uint32_t> batch;
  b.pop(batch);  // depth 3 > derived shed_low
  EXPECT_TRUE(b.shedding());
  batch.clear();
  b.pop(batch);  // depth 2 == derived shed_low
  EXPECT_FALSE(b.shedding());
}

TEST(Batcher, RejectsDegenerateShedWatermarks) {
  BatcherOptions high = batcher_options(2, 8);
  high.shed_high = 9;  // > capacity
  EXPECT_THROW(Batcher{high}, std::invalid_argument);
  BatcherOptions inverted = batcher_options(2, 8);
  inverted.shed_high = 3;
  inverted.shed_low = 3;  // must be < shed_high
  EXPECT_THROW(Batcher{inverted}, std::invalid_argument);
}

TEST(ServerCore, ShedRejectionsAreCountedSeparately) {
  BatcherOptions o = batcher_options(2, 8);
  o.shed_high = 4;
  o.shed_low = 2;
  ServerCore core(o);
  float in[1], out[1];
  for (int i = 0; i < 4; ++i) ASSERT_NE(core.submit(in, out, 0), ServerCore::kNoTicket);
  EXPECT_EQ(core.submit(in, out, 0), ServerCore::kNoTicket);
  EXPECT_TRUE(core.shedding());
  EXPECT_EQ(core.stats().rejected_shed, 1u);
  EXPECT_EQ(core.stats().rejected_full, 0u) << "shed and full are distinct causes";
  std::vector<std::uint32_t> batch;
  core.close_batch(0, batch);  // depth 4 -> 2: disengages
  EXPECT_FALSE(core.shedding());
  EXPECT_NE(core.submit(in, out, 0), ServerCore::kNoTicket);
}

// --- Failure containment: slot transitions ----------------------------------

TEST(ServerCore, FailedSlotsCountAndRecycle) {
  ServerCore core(batcher_options(2, 4));
  float in[1] = {1}, out[1] = {0};
  const std::uint32_t t0 = core.submit(in, out, 0);
  const std::uint32_t t1 = core.submit(in, out, 0);
  std::vector<std::uint32_t> batch;
  ASSERT_EQ(core.close_batch(0, batch), 2u);

  core.fail(t0);
  core.complete_one(t1, 0);
  EXPECT_EQ(core.state(t0), SlotState::kFailed);
  EXPECT_FALSE(core.failed_by_worker_loss(t0)) << "contained error, not abandonment";
  EXPECT_EQ(core.state(t1), SlotState::kDone);
  EXPECT_TRUE(core.idle());
  EXPECT_EQ(core.stats().failed, 1u);
  EXPECT_EQ(core.stats().served, 1u);

  core.release(t0);
  core.release(t1);
  EXPECT_NE(core.submit(in, out, 0), ServerCore::kNoTicket)
      << "a failed slot recycles like any other";
}

TEST(ServerCore, FleetLossFailsEveryQueuedRequest) {
  ServerCore core(batcher_options(4, 8));
  float in[1], out[1];
  std::uint32_t tickets[3];
  for (int i = 0; i < 3; ++i) {
    tickets[i] = core.submit(in, out, 0);
    ASSERT_NE(tickets[i], ServerCore::kNoTicket);
  }
  std::vector<std::uint32_t> failed;
  EXPECT_EQ(core.fail_all_queued(failed), 3u);
  EXPECT_EQ(failed, (std::vector<std::uint32_t>(tickets, tickets + 3))) << "FIFO";
  for (const std::uint32_t t : tickets) {
    EXPECT_EQ(core.state(t), SlotState::kFailed);
    EXPECT_TRUE(core.failed_by_worker_loss(t)) << "fleet loss, not a contained error";
    core.release(t);
  }
  EXPECT_EQ(core.stats().worker_lost, 3u);
  EXPECT_EQ(core.stats().failed, 0u);
  EXPECT_TRUE(core.idle());
}

// --- Failure containment: ManualServer retry isolation ----------------------

constexpr float kPoison = -666.0f;

/// Runner that throws whenever any request in the span carries the poison
/// marker; healthy requests serve input + 100 (RecordingRunner's contract).
ManualServer::BatchRunner poison_runner() {
  return [](std::span<const std::uint32_t> tickets, ServerCore& core) {
    for (const std::uint32_t t : tickets) {
      if (core.slot_input(t)[0] == kPoison) throw std::runtime_error("poisoned input");
    }
    for (const std::uint32_t t : tickets) {
      core.slot_output(t)[0] = core.slot_input(t)[0] + 100.0f;
    }
  };
}

TEST(ManualServer, PoisonedRequestIsIsolatedFromItsBatchmates) {
  FakeClock clock;
  ManualServer server(batcher_options(3, 8), &clock, poison_runner());
  float in[3] = {1.0f, kPoison, 3.0f}, out[3] = {-1, -1, -1};
  std::uint32_t tickets[3];
  for (int i = 0; i < 3; ++i) tickets[i] = server.submit({&in[i], 1}, {&out[i], 1});

  const ManualServer::StepOutcome o = server.step();
  ASSERT_EQ(o.batch.size(), 3u);
  EXPECT_EQ(o.failed, (std::vector<std::uint32_t>{tickets[1]}));
  EXPECT_EQ(server.state(tickets[0]), SlotState::kDone);
  EXPECT_EQ(server.state(tickets[1]), SlotState::kFailed);
  EXPECT_EQ(server.state(tickets[2]), SlotState::kDone);
  EXPECT_EQ(out[0], 101.0f);
  EXPECT_EQ(out[1], -1.0f) << "a failed request's output is never written";
  EXPECT_EQ(out[2], 103.0f);

  const ServeStats& stats = server.core().stats();
  EXPECT_EQ(stats.batch_failures, 1u);
  EXPECT_EQ(stats.retries, 3u) << "every member re-ran individually";
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.served, 2u);
}

TEST(ManualServer, TransientBatchFailureRecoversEveryMember) {
  FakeClock clock;
  int calls = 0;
  // Throws only on the very first invocation — a transient fault, gone by
  // retry time.
  ManualServer::BatchRunner runner = [&calls](std::span<const std::uint32_t> tickets,
                                              ServerCore& core) {
    if (calls++ == 0) throw std::runtime_error("transient");
    for (const std::uint32_t t : tickets) {
      core.slot_output(t)[0] = core.slot_input(t)[0] + 100.0f;
    }
  };
  ManualServer server(batcher_options(2, 8), &clock, std::move(runner));
  float in[2] = {1, 2}, out[2] = {-1, -1};
  std::uint32_t tickets[2];
  for (int i = 0; i < 2; ++i) tickets[i] = server.submit({&in[i], 1}, {&out[i], 1});

  const ManualServer::StepOutcome o = server.step();
  EXPECT_TRUE(o.failed.empty()) << "both retries succeeded";
  EXPECT_EQ(out[0], 101.0f);
  EXPECT_EQ(out[1], 102.0f);
  EXPECT_EQ(server.core().stats().batch_failures, 1u);
  EXPECT_EQ(server.core().stats().retries, 2u);
  EXPECT_EQ(server.core().stats().served, 2u);
  EXPECT_EQ(server.core().stats().failed, 0u);
}

// --- Served-request times: queue_ns_sum and the log2 histograms --------------

TEST(ServeStats, LatencyHistogramBucketsAreLog2Nanoseconds) {
  EXPECT_EQ(LatencyHistogram::bucket_of(-5), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(2), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_of(3), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_of(4), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1023), 9u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1024), 10u);
  EXPECT_EQ(LatencyHistogram::bucket_of(kMs), 19u) << "2^19 <= 1e6 < 2^20";
  EXPECT_EQ(LatencyHistogram::bucket_of(std::numeric_limits<Nanos>::max()),
            LatencyHistogram::kBuckets - 1)
      << "the last bucket takes everything longer";
}

/// Serves input + 100; each call first spends `exec` of fake time, then
/// crosses the session-run fault point (where a ScopedFaultPlan may fail it).
ManualServer::BatchRunner timed_runner(FakeClock& clock, Nanos exec) {
  return [&clock, exec](std::span<const std::uint32_t> tickets, ServerCore& core) {
    clock.advance(exec);
    maybe_inject_fault(FaultSite::kSessionRun);
    for (const std::uint32_t t : tickets) {
      core.slot_output(t)[0] = core.slot_input(t)[0] + 100.0f;
    }
  };
}

TEST(ServeStats, HistogramsBookQueueExecutionAndTotalTimes) {
  FakeClock clock;
  ManualServer server(batcher_options(2, 8), &clock, timed_runner(clock, 3 * kMs));
  float in[2] = {1, 2}, out[2] = {-1, -1};
  const std::uint32_t t0 = server.submit({&in[0], 1}, {&out[0], 1});
  clock.advance(2 * kMs);
  const std::uint32_t t1 = server.submit({&in[1], 1}, {&out[1], 1});
  clock.advance(kMs);  // full batch closes at 3 ms, settles at 6 ms
  ASSERT_EQ(server.step().batch.size(), 2u);

  const ServeStats& stats = server.core().stats();
  EXPECT_EQ(stats.queue_ns_sum, static_cast<std::uint64_t>(3 * kMs + kMs));
  const auto expect_counts = [](const LatencyHistogram& h,
                                std::initializer_list<std::pair<Nanos, std::uint64_t>> want) {
    LatencyHistogram expected;
    for (const auto& [ns, n] : want) expected.counts[LatencyHistogram::bucket_of(ns)] += n;
    EXPECT_EQ(h.counts, expected.counts);
  };
  expect_counts(stats.queue_ns, {{3 * kMs, 1}, {kMs, 1}});  // buckets 21 and 19
  expect_counts(stats.exec_ns, {{3 * kMs, 2}});
  expect_counts(stats.total_ns, {{6 * kMs, 1}, {4 * kMs, 1}});  // buckets 22 and 21
  EXPECT_EQ(stats.total_ns.total(), 2u);
  server.release(t0);
  server.release(t1);
}

TEST(ServeStats, FailedRetryAddsNothingToServedTimes) {
  FakeClock clock;
  ManualServer server(batcher_options(2, 8), &clock, timed_runner(clock, kMs));
  float in[2] = {1, 2}, out[2] = {-1, -1};
  const std::uint32_t t0 = server.submit({&in[0], 1}, {&out[0], 1});
  clock.advance(kMs);
  const std::uint32_t t1 = server.submit({&in[1], 1}, {&out[1], 1});
  clock.advance(2 * kMs);  // both queued: 3 ms and 2 ms at the close

  // Session-run checks in step(): 0 the batch attempt, 1 member 0's retry,
  // 2 member 1's retry. Failing 0 and 2 serves member 0 alone.
  ScopedFaultPlan plan;
  plan.fail_calls(FaultSite::kSessionRun, {0, 2});
  const ManualServer::StepOutcome o = server.step();
  ASSERT_EQ(o.batch.size(), 2u);
  EXPECT_EQ(o.failed, (std::vector<std::uint32_t>{t1}));

  // Closed at 3 ms, settled at 6 ms (three 1 ms runner calls).
  const ServeStats& stats = server.core().stats();
  EXPECT_EQ(stats.served, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.queue_ns_sum, static_cast<std::uint64_t>(3 * kMs))
      << "only the served member's admission -> close time";
  EXPECT_EQ(stats.queue_ns.total(), 1u);
  EXPECT_EQ(stats.exec_ns.total(), 1u);
  EXPECT_EQ(stats.total_ns.total(), 1u);
  EXPECT_EQ(stats.exec_ns.counts[LatencyHistogram::bucket_of(3 * kMs)], 1u);
  EXPECT_EQ(stats.total_ns.counts[LatencyHistogram::bucket_of(6 * kMs)], 1u);
  server.release(t0);
  server.release(t1);
}

// --- Deadline arithmetic at the epoch end (overflow regression) -------------

TEST(ManualServer, HugeSloSaturatesInsteadOfOverflowing) {
  // A clock near the epoch end plus a finite SLO must saturate to
  // kNoDeadline — a wrapped negative deadline would expire the request on
  // the spot.
  FakeClock clock(std::numeric_limits<Nanos>::max() - 2);
  RecordingRunner runner;
  ManualServer server(batcher_options(1, 4), &clock, runner.fn());
  float in[1] = {1.0f}, out[1] = {-1.0f};
  const std::uint32_t t = server.submit({in, 1}, {out, 1}, /*slo_ns=*/5 * kMs);
  ASSERT_NE(t, ServerCore::kNoTicket);
  const ManualServer::StepOutcome o = server.step();
  EXPECT_TRUE(o.expired.empty());
  ASSERT_EQ(o.batch.size(), 1u);
  EXPECT_EQ(server.state(t), SlotState::kDone);
  EXPECT_EQ(out[0], 101.0f);
}

TEST(BatchingServer, PlanIsSharedAcrossWorkers) {
  SequentialModel model = make_minivgg();
  const Tensor<float> calib = random_input(1, 16, 13);
  ServerOptions options;
  options.max_batch = 2;
  options.num_workers = 2;
  options.plan.forced_engine = EngineKind::kLoWinoF2;
  BatchingServer server(model, calib, options);
  EXPECT_EQ(server.plan().batch, options.max_batch);
  for (const SessionPlan::ConvChoice& c : server.plan().convs) {
    EXPECT_EQ(c.engine, EngineKind::kLoWinoF2);
  }
  EXPECT_EQ(server.num_workers(), 2u);
}

// --- Fault injection end to end ---------------------------------------------
//
// The acceptance scenario: a seeded engine-execute fault is steered into one
// request of a full batch. That request — and only that request — must come
// back kFailed; its batchmates must receive bit-identical serial results from
// their isolation retries; the server must keep serving afterward; and the
// stats must count exactly one failure. Deterministic: ManualServer +
// ScopedFaultPlan::fail_calls, no threads, no clocks.

TEST(ServerFault, InjectedEngineFaultFailsOneRequestBatchmatesExact) {
  ScopedRuntimeOverride calib_stride("LOWINO_CALIB_STRIDE", "1");
  ThreadPool& pool = ThreadPool::global();
  constexpr std::size_t kMaxBatch = 4, kHw = 16;
  SequentialModel model = make_minivgg();
  const Tensor<float> calib1 = random_input(1, kHw, 31);
  Tensor<float> calibB({kMaxBatch, 1, kHw, kHw});
  for (std::size_t b = 0; b < kMaxBatch; ++b) {
    std::memcpy(calibB.data() + b * calib1.size(), calib1.data(),
                calib1.size() * sizeof(float));
  }

  PlanOptions options;
  options.forced_engine = EngineKind::kLoWinoF4;
  options.pool = &pool;
  InferenceSession serial = InferenceSession::compile(model, calib1, options);
  InferenceSession batched = InferenceSession::compile(model, calibB, options);

  SessionRunner runner(batched);
  FakeClock clock;
  ManualServer server(batcher_options(kMaxBatch, 16), &clock, runner.fn());

  // Serial reference bits + submissions, all with injection disabled.
  std::vector<Tensor<float>> inputs;
  std::vector<std::vector<float>> refs;
  std::vector<std::vector<float>> outputs(kMaxBatch);
  std::uint32_t tickets[kMaxBatch];
  Tensor<float> ref;
  for (std::size_t i = 0; i < kMaxBatch; ++i) {
    inputs.push_back(random_input(1, kHw, 500 + i));
    serial.run(inputs[i], ref);
    refs.emplace_back(ref.data(), ref.data() + ref.size());
    outputs[i].assign(ref.size(), -1.0f);
    tickets[i] = server.submit(inputs[i].span(), outputs[i]);
    ASSERT_NE(tickets[i], ServerCore::kNoTicket);
  }

  ScopedFaultPlan plan;
  serial.run(inputs[0], ref);  // probe: engine-execute checks per session run
  const std::uint64_t k = fault_checked_count(FaultSite::kEngineExecute);
  ASSERT_GT(k, 0u);
  // step() crosses engine-execute in order: batch attempt, then one
  // isolation retry per member. Failing check 0 sinks the batch attempt at
  // its first conv (consuming exactly one check — the aborted run never
  // reaches the rest). Member 0's retry then completes, consuming checks
  // 1..k; check k+1 is the first conv of member 1's retry. Failing it steers
  // the fault into request 1 and nothing else.
  plan.fail_calls(FaultSite::kEngineExecute, {0, k + 1});

  const ManualServer::StepOutcome o = server.step();
  ASSERT_EQ(o.batch.size(), kMaxBatch);
  EXPECT_EQ(o.failed, (std::vector<std::uint32_t>{tickets[1]}));
  EXPECT_EQ(server.state(tickets[1]), SlotState::kFailed);
  EXPECT_FALSE(server.core().failed_by_worker_loss(tickets[1]));
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
    EXPECT_EQ(server.state(tickets[i]), SlotState::kDone);
    EXPECT_EQ(0, std::memcmp(outputs[i].data(), refs[i].data(),
                             refs[i].size() * sizeof(float)))
        << "batchmate " << i << " must get the exact serial bits from its retry";
  }
  for (const float v : outputs[1]) ASSERT_EQ(v, -1.0f) << "failed output untouched";

  const ServeStats& stats = server.core().stats();
  EXPECT_EQ(stats.failed, 1u) << "exactly one failure";
  EXPECT_EQ(stats.worker_lost, 0u);
  EXPECT_EQ(stats.batch_failures, 1u);
  EXPECT_EQ(stats.retries, kMaxBatch);
  EXPECT_EQ(stats.served, kMaxBatch - 1);
  for (std::size_t i = 0; i < kMaxBatch; ++i) server.release(tickets[i]);

  // The server keeps serving: with the armed calls spent, a fresh request
  // returns the exact serial bits.
  std::vector<float> after(refs[0].size(), -1.0f);
  const std::uint32_t t = server.submit(inputs[0].span(), after);
  ASSERT_NE(t, ServerCore::kNoTicket);
  server.step();
  EXPECT_EQ(server.state(t), SlotState::kDone);
  EXPECT_EQ(0, std::memcmp(after.data(), refs[0].data(), refs[0].size() * sizeof(float)));
}

// --- Batch isolation of non-finite pixels ------------------------------------
//
// A request whose pixels hold NaN, +-Inf and +-FLT_MAX shares a batch with
// three clean ones on a real MiniResNet session, through run_session_batch.
// Every op is per-image, so the clean requests must get exactly their solo
// bits — also from a solo run that follows the poisoned batch, with its
// pixels still in the stale lanes — and the poisoned request's logits must
// stay finite: the FP32 stem stores u8 bytes (NaN as quantized zero, +-Inf
// saturated), so nothing non-finite passes it.

TEST(ManualServer, NonFinitePixelsStayInTheirRequest) {
  ScopedRuntimeOverride calib_stride("LOWINO_CALIB_STRIDE", "1");
  constexpr std::size_t kMaxBatch = 4, kHw = 16, kPoisoned = 1;
  SequentialModel model = make_miniresnet();
  const Tensor<float> calib1 = random_input(1, kHw, 61);
  Tensor<float> calibB({kMaxBatch, 1, kHw, kHw});
  for (std::size_t b = 0; b < kMaxBatch; ++b) {
    std::memcpy(calibB.data() + b * calib1.size(), calib1.data(),
                calib1.size() * sizeof(float));
  }
  std::vector<Tensor<float>> inputs;
  for (std::size_t i = 0; i < kMaxBatch; ++i) inputs.push_back(random_input(1, kHw, 700 + i));
  const float inf = std::numeric_limits<float>::infinity();
  const float big = std::numeric_limits<float>::max();
  const float poison[] = {std::numeric_limits<float>::quiet_NaN(), inf, -inf, big, -big};
  float* px = inputs[kPoisoned].data();
  for (std::size_t i = 0; i < inputs[kPoisoned].size(); i += 7) px[i] = poison[(i / 7) % 5];

  for (const EngineKind kind : {EngineKind::kInt8Direct, EngineKind::kLoWinoF4}) {
    PlanOptions options;
    options.forced_engine = kind;
    options.pool = &ThreadPool::global();
    InferenceSession batched = InferenceSession::compile(model, calibB, options);
    SessionRunner runner(batched);
    FakeClock clock;
    ManualServer server(batcher_options(kMaxBatch, 16), &clock, runner.fn());
    const auto serve_solo = [&](std::size_t i) {
      std::vector<float> out(runner.out_elems(), -1.0f);
      const std::uint32_t t = server.submit(inputs[i].span(), out);
      EXPECT_EQ(server.step().batch, (std::vector<std::uint32_t>{t}));
      EXPECT_EQ(server.state(t), SlotState::kDone);
      server.release(t);
      return out;
    };

    std::vector<std::vector<float>> solo(kMaxBatch);
    for (std::size_t i = 0; i < kMaxBatch; ++i) {
      if (i != kPoisoned) solo[i] = serve_solo(i);
    }
    std::vector<std::vector<float>> outputs(kMaxBatch);
    std::vector<std::uint32_t> tickets(kMaxBatch);
    for (std::size_t i = 0; i < kMaxBatch; ++i) {
      outputs[i].assign(runner.out_elems(), -1.0f);
      tickets[i] = server.submit(inputs[i].span(), outputs[i]);
    }
    ASSERT_EQ(server.step().batch, tickets);
    for (std::size_t i = 0; i < kMaxBatch; ++i) {
      EXPECT_EQ(server.state(tickets[i]), SlotState::kDone);
      server.release(tickets[i]);
      if (i == kPoisoned) {
        for (const float v : outputs[i]) {
          ASSERT_TRUE(std::isfinite(v)) << engine_token(kind) << ": poisoned logit " << v;
        }
        continue;
      }
      EXPECT_EQ(0, std::memcmp(outputs[i].data(), solo[i].data(),
                               solo[i].size() * sizeof(float)))
          << engine_token(kind) << " request " << i << ": batched bits differ from its solo run";
    }
    const std::vector<float> after = serve_solo(kMaxBatch - 1);
    EXPECT_EQ(0, std::memcmp(after.data(), solo[kMaxBatch - 1].data(),
                             after.size() * sizeof(float)))
        << engine_token(kind) << ": stale poisoned lanes changed a later solo run";
  }
}

// --- Worker supervision (threaded, deterministic via budgeted fault plans) --

TEST(ServerFault, WorkerRebuildsItsSessionAfterRepeatedFailures) {
  ScopedRuntimeOverride calib_stride("LOWINO_CALIB_STRIDE", "1");
  SequentialModel model = make_minivgg();
  const Tensor<float> calib = random_input(1, 16, 21);
  ServerOptions options;
  options.max_batch = 1;
  options.num_workers = 1;
  options.plan.forced_engine = EngineKind::kInt8Direct;
  BatchingServer server(model, calib, options);
  std::vector<float> in(server.input_elems(), 0.25f);
  std::vector<float> ref(server.output_elems(), -1.0f);
  std::vector<float> out(server.output_elems(), -1.0f);
  ASSERT_EQ(server.serve(in, ref), ServeResult::kOk) << "healthy baseline";

  // Every aborted run consumes exactly one engine-execute check (the first
  // conv throws, the rest never execute). A batch-of-1 serve burns two: the
  // batch attempt and the lone member's retry. Budget 6 = three wholesale
  // failures — exactly the supervisor's rebuild threshold — after which the
  // budget is spent and the rebuild's pre-warm run succeeds.
  ScopedFaultPlan plan;
  plan.fail_next(FaultSite::kEngineExecute, 6);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(server.serve(in, out), ServeResult::kFailed) << "serve " << i;
  }

  EXPECT_EQ(server.serve(in, out), ServeResult::kOk) << "rebuilt worker serves again";
  EXPECT_EQ(0, std::memcmp(out.data(), ref.data(), ref.size() * sizeof(float)))
      << "the rebuilt session must produce the same bits as the original";
  const ServerHealth h = server.health();
  EXPECT_EQ(h.restarts, 1u);
  EXPECT_EQ(h.workers_live, 1u);
  EXPECT_FALSE(h.degraded());
  EXPECT_TRUE(h.accepting);
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.failed, 3u);
  EXPECT_EQ(stats.batch_failures, 3u);
  EXPECT_EQ(stats.retries, 3u);
}

TEST(ServerFault, FleetLossDegradesCleanlyAndNeverHangs) {
  ScopedRuntimeOverride calib_stride("LOWINO_CALIB_STRIDE", "1");
  SequentialModel model = make_minivgg();
  const Tensor<float> calib = random_input(1, 16, 22);
  ServerOptions options;
  options.max_batch = 1;
  options.num_workers = 1;
  options.plan.forced_engine = EngineKind::kInt8Direct;
  BatchingServer server(model, calib, options);
  std::vector<float> in(server.input_elems(), 0.25f), out(server.output_elems());

  // Unlimited engine faults kill every run; unlimited worker-start faults
  // kill every rebuild attempt. Three failed serves trip the supervisor,
  // the rebuild exhausts its attempts, and the lone worker abandons —
  // taking the fleet with it.
  ScopedFaultPlan plan;
  plan.fail_rate(FaultSite::kEngineExecute, 1.0, /*seed=*/0);
  plan.fail_rate(FaultSite::kWorkerStart, 1.0, /*seed=*/0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(server.serve(in, out), ServeResult::kFailed) << "serve " << i;
  }
  // Post-loss serves must resolve cleanly — kWorkerLost while the
  // abandonment races the submission, kShutdown once it lands — and the
  // degraded state must become visible. Bounded loop, no hang either way.
  ServeResult r = ServeResult::kOk;
  for (int i = 0; i < 1000 && r != ServeResult::kShutdown; ++i) {
    r = server.serve(in, out);
    ASSERT_TRUE(r == ServeResult::kWorkerLost || r == ServeResult::kShutdown)
        << serve_result_name(r);
  }
  EXPECT_EQ(r, ServeResult::kShutdown) << "a lost fleet stops accepting";

  const ServerHealth h = server.health();
  EXPECT_EQ(h.workers, 1u);
  EXPECT_EQ(h.workers_live, 0u);
  EXPECT_EQ(h.workers_lost, 1u);
  EXPECT_EQ(h.restarts, 0u);
  EXPECT_FALSE(h.accepting);
  EXPECT_TRUE(h.degraded());

  // start() retries the lost worker's session build: still sabotaged ->
  // throws; healed (plan destroyed below restores no-faults) -> serves.
  EXPECT_THROW(server.start(), std::runtime_error);
}

TEST(ServerFault, StartResurrectsLostWorkersOnceFaultsClear) {
  ScopedRuntimeOverride calib_stride("LOWINO_CALIB_STRIDE", "1");
  SequentialModel model = make_minivgg();
  const Tensor<float> calib = random_input(1, 16, 23);
  ServerOptions options;
  options.max_batch = 1;
  options.num_workers = 1;
  options.plan.forced_engine = EngineKind::kInt8Direct;
  BatchingServer server(model, calib, options);
  std::vector<float> in(server.input_elems(), 0.25f);
  std::vector<float> ref(server.output_elems(), -1.0f);
  std::vector<float> out(server.output_elems(), -2.0f);
  ASSERT_EQ(server.serve(in, ref), ServeResult::kOk);

  {
    ScopedFaultPlan plan;
    plan.fail_rate(FaultSite::kEngineExecute, 1.0, 0);
    plan.fail_rate(FaultSite::kWorkerStart, 1.0, 0);
    for (int i = 0; i < 3; ++i) ASSERT_EQ(server.serve(in, out), ServeResult::kFailed);
    while (server.health().workers_live != 0) std::this_thread::yield();
  }
  // Faults cleared: start() rebuilds the lost worker and serving resumes
  // with the original bits.
  server.start();
  const ServerHealth h = server.health();
  EXPECT_EQ(h.workers_live, 1u);
  EXPECT_EQ(h.restarts, 1u);
  EXPECT_TRUE(h.accepting);
  EXPECT_EQ(server.serve(in, out), ServeResult::kOk);
  EXPECT_EQ(0, std::memcmp(out.data(), ref.data(), ref.size() * sizeof(float)));
}

}  // namespace
}  // namespace lowino
