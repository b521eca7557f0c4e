// Concurrency stress for the BatchingServer: many client threads hammering
// serve() while a controller start/stop-churns the worker fleet, plus the
// worker-hot-path allocation contract. This binary is part of the `stress`
// aggregate the tsan-stress preset runs — under ThreadSanitizer any data
// race in the admission queue / slot machine / drain protocol is a hard
// failure.
//
// Response integrity: every request uses an input with a precomputed serial
// reference, so a lost, duplicated or cross-wired response shows up as a
// wrong-bits or wrong-count failure, not a flake.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/fault.h"
#include "common/rng.h"
#include "nn/model_zoo.h"
#include "parallel/thread_pool.h"
#include "serve/server.h"
#include "serve/session.h"

// ---------------------------------------------------------------------------
// Global operator-new counting (the test_serve.cc pattern): replacement is
// binary-wide, counting a single relaxed atomic, so the zero-allocation
// window below observes every C++ heap allocation from any thread.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
// The nothrow variants must be replaced too: libstdc++'s temporary-buffer
// machinery (std::stable_sort) allocates with nothrow new but frees through
// plain operator delete — leaving nothrow new to the runtime while replacing
// delete is an alloc/dealloc mismatch under AddressSanitizer.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace lowino {
namespace {

std::uint64_t heap_alloc_count() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

Tensor<float> random_input(std::size_t hw, std::uint64_t seed) {
  Tensor<float> t({1, 1, hw, hw});
  Rng rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i) t.data()[i] = rng.uniform(-1.0f, 1.0f);
  return t;
}

TEST(ServerStress, ConcurrentClientsWithStartStopChurn) {
  // Bit-compare against a batch-1 serial session: pin the calibration stride
  // (batch-count dependent otherwise) exactly like the differential tests.
  ScopedRuntimeOverride calib_stride("LOWINO_CALIB_STRIDE", "1");
  constexpr std::size_t kHw = 16, kInputs = 16, kClients = 8, kPerClient = 24;

  SequentialModel model = make_minivgg();
  const Tensor<float> calib = random_input(kHw, 5);

  ThreadPool pool(1);
  PlanOptions serial_options;
  serial_options.forced_engine = EngineKind::kInt8Direct;
  serial_options.pool = &pool;
  InferenceSession serial = InferenceSession::compile(model, calib, serial_options);

  std::vector<Tensor<float>> inputs;
  std::vector<std::vector<float>> refs;
  Tensor<float> ref_out;
  for (std::size_t i = 0; i < kInputs; ++i) {
    inputs.push_back(random_input(kHw, 6000 + i));
    serial.run(inputs.back(), ref_out);
    refs.emplace_back(ref_out.data(), ref_out.data() + ref_out.size());
  }

  ServerOptions options;
  options.max_batch = 4;
  options.num_workers = 2;
  options.threads_per_worker = 1;
  options.queue_capacity = 64;
  options.plan.forced_engine = EngineKind::kInt8Direct;
  BatchingServer server(model, calib, options);

  std::atomic<std::uint64_t> ok{0}, bounced{0}, wrong{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<float> out(server.output_elems());
      for (std::size_t r = 0; r < kPerClient; ++r) {
        const std::size_t i = (c * kPerClient + r) % kInputs;
        std::fill(out.begin(), out.end(), -1.0f);
        switch (server.serve(inputs[i].span(), out)) {
          case ServeResult::kOk:
            ok.fetch_add(1);
            if (std::memcmp(out.data(), refs[i].data(),
                            out.size() * sizeof(float)) != 0) {
              wrong.fetch_add(1);
            }
            break;
          case ServeResult::kShutdown:
          case ServeResult::kQueueFull:
            bounced.fetch_add(1);  // well-defined rejection, never half-served
            break;
          case ServeResult::kExpired:
          case ServeResult::kFailed:
          case ServeResult::kWorkerLost:
            wrong.fetch_add(1);  // no SLO and no faults armed: all would be bugs
            break;
        }
      }
    });
  }
  // Start/stop churn while the clients hammer: each stop() must drain every
  // admitted request (the clients above would otherwise hang or see
  // wrong-bit responses) and each start() must serve correctly again.
  for (int cycle = 0; cycle < 4; ++cycle) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server.stop();
    server.start();
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(ok.load() + bounced.load(), kClients * kPerClient)
      << "every request must resolve to exactly one outcome";
  EXPECT_GT(ok.load(), 0u);
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.served, ok.load()) << "no lost or duplicated responses";
  EXPECT_EQ(stats.batched_requests, stats.served);
  EXPECT_EQ(stats.rejected_expired, 0u);
}

TEST(ServerStress, WorkerHotPathIsAllocationFree) {
  SequentialModel model = make_minivgg();
  const Tensor<float> calib = random_input(16, 7);
  ServerOptions options;
  options.max_batch = 2;
  options.num_workers = 1;
  options.threads_per_worker = 1;
  options.plan.forced_engine = EngineKind::kInt8Direct;
  BatchingServer server(model, calib, options);

  std::vector<float> in(server.input_elems(), 0.25f), out(server.output_elems());
  // Warm up: first serves may fault in lazily-initialized runtime state
  // (condition-variable internals, profiler TLS, ...).
  for (int i = 0; i < 20; ++i) {
    ASSERT_EQ(server.serve(in, out), ServeResult::kOk);
  }

  const std::uint64_t heap_before = heap_alloc_count();
  bool all_ok = true;
  for (int i = 0; i < 200; ++i) {
    all_ok = all_ok && server.serve(in, out) == ServeResult::kOk;
  }
  const std::uint64_t heap_after = heap_alloc_count();
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(heap_after - heap_before, 0u)
      << "steady-state serve round trip (admission -> batch -> session.run -> "
         "scatter -> wake) must not touch the heap";
}

// Start/stop alone, repeated quickly: the drain protocol must terminate with
// an empty queue and joinable workers every time, with no client traffic to
// push it along.
TEST(ServerStress, RepeatedStartStopQuiesces) {
  SequentialModel model = make_minivgg();
  const Tensor<float> calib = random_input(16, 8);
  ServerOptions options;
  options.max_batch = 4;
  options.num_workers = 2;
  options.plan.forced_engine = EngineKind::kInt8Direct;
  BatchingServer server(model, calib, options);
  std::vector<float> in(server.input_elems(), 1.0f), out(server.output_elems());
  for (int i = 0; i < 10; ++i) {
    server.stop();
    EXPECT_FALSE(server.running());
    server.start();
    EXPECT_TRUE(server.running());
    EXPECT_EQ(server.serve(in, out), ServeResult::kOk);
  }
}

// Satellite: stop() racing active serve() traffic. Unlike the churn test
// above there is no settling sleep between lifecycle flips — the controller
// flips stop()/start() back-to-back so nearly every cycle catches clients
// mid-admission or mid-wait. Under TSan (tsan-stress preset) this is the
// drain-protocol race detector; in any mode a request that hangs instead of
// resolving to kShutdown fails via the ctest timeout.
TEST(ServerStress, StopDuringActiveServeResolvesEveryRequest) {
  ScopedRuntimeOverride calib_stride("LOWINO_CALIB_STRIDE", "1");
  constexpr std::size_t kHw = 16, kInputs = 8, kClients = 8, kPerClient = 48;

  SequentialModel model = make_minivgg();
  const Tensor<float> calib = random_input(kHw, 9);

  ThreadPool pool(1);
  PlanOptions serial_options;
  serial_options.forced_engine = EngineKind::kInt8Direct;
  serial_options.pool = &pool;
  InferenceSession serial = InferenceSession::compile(model, calib, serial_options);

  std::vector<Tensor<float>> inputs;
  std::vector<std::vector<float>> refs;
  Tensor<float> ref_out;
  for (std::size_t i = 0; i < kInputs; ++i) {
    inputs.push_back(random_input(kHw, 9100 + i));
    serial.run(inputs.back(), ref_out);
    refs.emplace_back(ref_out.data(), ref_out.data() + ref_out.size());
  }

  ServerOptions options;
  options.max_batch = 4;
  options.num_workers = 2;
  options.threads_per_worker = 1;
  options.queue_capacity = 32;
  options.plan.forced_engine = EngineKind::kInt8Direct;
  BatchingServer server(model, calib, options);

  std::atomic<std::uint64_t> ok{0}, bounced{0}, wrong{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<float> out(server.output_elems());
      for (std::size_t r = 0; r < kPerClient; ++r) {
        const std::size_t i = (c * kPerClient + r) % kInputs;
        std::fill(out.begin(), out.end(), -1.0f);
        switch (server.serve(inputs[i].span(), out)) {
          case ServeResult::kOk:
            ok.fetch_add(1);
            if (std::memcmp(out.data(), refs[i].data(),
                            out.size() * sizeof(float)) != 0) {
              wrong.fetch_add(1);
            }
            break;
          case ServeResult::kShutdown:
          case ServeResult::kQueueFull:
            bounced.fetch_add(1);
            break;
          case ServeResult::kExpired:
          case ServeResult::kFailed:
          case ServeResult::kWorkerLost:
            wrong.fetch_add(1);  // no SLO and no faults armed
            break;
        }
      }
    });
  }
  // Back-to-back flips: stop() must resolve every admitted request (kOk with
  // correct bits, or kShutdown) before returning, even while clients are
  // concurrently inside serve().
  for (int cycle = 0; cycle < 16; ++cycle) {
    server.stop();
    server.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(ok.load() + bounced.load(), kClients * kPerClient)
      << "every request must resolve to exactly one outcome, never hang";
  EXPECT_EQ(server.stats().served, ok.load());
}

// Fault soak: randomized engine-execute faults at a few percent while
// concurrent clients hammer a two-worker fleet. The contract under fire:
// every response is either kOk with bit-exact output, or a clean failure
// that left the caller's buffer untouched — never wrong bits, never a lost
// or duplicated ticket, never a hang.
TEST(ServerStress, FaultSoakEveryResponseIsCorrectOrCleanlyFailed) {
  ScopedRuntimeOverride calib_stride("LOWINO_CALIB_STRIDE", "1");
  constexpr std::size_t kHw = 16, kInputs = 8, kClients = 6, kPerClient = 32;

  SequentialModel model = make_minivgg();
  const Tensor<float> calib = random_input(kHw, 11);

  ThreadPool pool(1);
  PlanOptions serial_options;
  serial_options.forced_engine = EngineKind::kInt8Direct;
  serial_options.pool = &pool;
  InferenceSession serial = InferenceSession::compile(model, calib, serial_options);

  std::vector<Tensor<float>> inputs;
  std::vector<std::vector<float>> refs;
  Tensor<float> ref_out;
  for (std::size_t i = 0; i < kInputs; ++i) {
    inputs.push_back(random_input(kHw, 11000 + i));
    serial.run(inputs.back(), ref_out);
    refs.emplace_back(ref_out.data(), ref_out.data() + ref_out.size());
  }

  ServerOptions options;
  options.max_batch = 4;
  options.num_workers = 2;
  options.threads_per_worker = 1;
  options.queue_capacity = 64;
  options.plan.forced_engine = EngineKind::kInt8Direct;
  BatchingServer server(model, calib, options);

  std::atomic<std::uint64_t> ok{0}, failed{0}, bounced{0}, wrong{0};
  std::uint64_t injected = 0;
  {
    ScopedFaultPlan fault_plan;
    fault_plan.fail_rate(FaultSite::kEngineExecute, 0.05, /*seed=*/42);

    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::vector<float> out(server.output_elems());
        for (std::size_t r = 0; r < kPerClient; ++r) {
          const std::size_t i = (c * kPerClient + r) % kInputs;
          std::fill(out.begin(), out.end(), -1.0f);
          switch (server.serve(inputs[i].span(), out)) {
            case ServeResult::kOk:
              ok.fetch_add(1);
              if (std::memcmp(out.data(), refs[i].data(),
                              out.size() * sizeof(float)) != 0) {
                wrong.fetch_add(1);
              }
              break;
            case ServeResult::kFailed: {
              failed.fetch_add(1);
              // A failed serve must not have scribbled on the caller's buffer.
              bool untouched = true;
              for (const float v : out) untouched = untouched && v == -1.0f;
              if (!untouched) wrong.fetch_add(1);
              break;
            }
            case ServeResult::kWorkerLost:
            case ServeResult::kShutdown:
            case ServeResult::kQueueFull:
              bounced.fetch_add(1);  // clean rejection; fleet may degrade
              break;
            case ServeResult::kExpired:
              wrong.fetch_add(1);  // no SLO was set
              break;
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    injected = fault_injected_count(FaultSite::kEngineExecute);
    // Quiesce before the plan is torn down: a worker could still be inside a
    // supervised rebuild (and therefore inside fault checks) — disarming
    // under its feet would race the plan mutation.
    server.stop();
  }

  EXPECT_EQ(wrong.load(), 0u) << "a fault must never surface as wrong bits";
  EXPECT_EQ(ok.load() + failed.load() + bounced.load(), kClients * kPerClient)
      << "every request must resolve to exactly one outcome, never hang";
  EXPECT_GT(injected, 0u) << "the soak must actually have injected faults";
  EXPECT_GT(ok.load(), 0u);
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.served, ok.load()) << "no lost or duplicated responses";
  EXPECT_EQ(stats.failed, failed.load());
  // Disarmed now: start() must resurrect any lost workers and the fleet must
  // serve correct bits again without further intervention.
  server.start();
  std::vector<float> out(server.output_elems(), -1.0f);
  ASSERT_EQ(server.serve(inputs[0].span(), out), ServeResult::kOk);
  EXPECT_EQ(std::memcmp(out.data(), refs[0].data(), out.size() * sizeof(float)), 0);
  EXPECT_EQ(server.health().workers_live, server.health().workers);
}

}  // namespace
}  // namespace lowino
