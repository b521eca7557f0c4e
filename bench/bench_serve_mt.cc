// Multi-threaded serving benchmark: open- and closed-loop synthetic load
// against the BatchingServer on MiniResNet, sweeping worker counts and
// comparing the two ways to spend W cores:
//
//   serial       1 worker, max_batch=1 — the no-batching baseline
//   partitioned  W workers, each with a 1-thread pool (core partitioning;
//                every worker owns a pre-warmed session sharing one plan)
//   intra-op     1 worker with a W-thread pool (parallelism inside the
//                convolution kernels instead of across requests)
//
// Closed loop saturates the server with back-to-back clients and reports
// capacity (QPS). Open loop replays Poisson arrivals at ~70% of that
// measured capacity and reports the latency distribution an SLO would see.
// Every cell prints one greppable line:
//
//   serve-mt: model=MiniResNet mode=partitioned workers=2 loop=closed \
//       qps=812.4 p50_ms=4.91 p99_ms=9.80 mean_batch=3.96 served=4062
//
// Env: LOWINO_BENCH_SERVE_MS   measurement window per cell (default 500)
//      LOWINO_BENCH_SERVE_MAXW worker-sweep ceiling (default: hardware
//                              concurrency; powers of two up to this)
//      LOWINO_BENCH_HW         input height/width (default 32)
//      LOWINO_BENCH_SERVE_BATCH max batch per worker (default 4)
//      LOWINO_BENCH_SERVE_FAULT engine-execute fault rate in [0,1]; when
//                              > 0 the sweep is replaced by a fault soak
//                              (see run_fault_soak below) whose exit code
//                              is the verdict — non-zero on any violation
//      LOWINO_BENCH_SERVE_SEED fault-soak decision seed (default 42)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/env.h"
#include "common/fault.h"
#include "nn/model_zoo.h"
#include "parallel/thread_pool.h"
#include "serve/server.h"
#include "serve/session.h"

namespace lowino {
namespace {

using Clock = std::chrono::steady_clock;

Tensor<float> random_input(std::size_t hw, std::uint64_t seed) {
  Tensor<float> t({1, 1, hw, hw});
  Rng rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i) t.data()[i] = rng.uniform(-1.0f, 1.0f);
  return t;
}

struct LoadResult {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_batch = 0.0;
  std::uint64_t served = 0;
  std::uint64_t bounced = 0;
};

double percentile_ms(std::vector<double>& sorted_ms, double q) {
  if (sorted_ms.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(sorted_ms.size() - 1));
  return sorted_ms[idx];
}

/// Drive `clients` threads against the server for `seconds`. With
/// `rate_per_client` == 0 each client issues back-to-back requests (closed
/// loop); otherwise each client draws exponential inter-arrival gaps at that
/// rate and sleeps until the scheduled arrival before issuing (open loop —
/// latency includes any backlog the client's previous request left behind).
LoadResult run_load(BatchingServer& server, const Tensor<float>& image,
                    std::size_t clients, double seconds, double rate_per_client) {
  const ServeStats before = server.stats();
  std::atomic<bool> stop{false};
  std::vector<std::vector<double>> lat_ms(clients);
  std::vector<std::uint64_t> bounced(clients, 0);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  const auto t0 = Clock::now();
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(0x5e12f0 + c);
      std::vector<float> out(server.output_elems());
      lat_ms[c].reserve(1 << 16);
      auto next_arrival = Clock::now();
      while (!stop.load(std::memory_order_relaxed)) {
        if (rate_per_client > 0.0) {
          const double gap_s =
              -std::log(1.0 - static_cast<double>(rng.uniform(0.0f, 0.999999f))) /
              rate_per_client;
          next_arrival += std::chrono::nanoseconds(static_cast<std::int64_t>(gap_s * 1e9));
          std::this_thread::sleep_until(next_arrival);
        }
        const auto start = rate_per_client > 0.0 ? next_arrival : Clock::now();
        const ServeResult r = server.serve(image.span(), out);
        const auto end = Clock::now();
        if (r == ServeResult::kOk) {
          lat_ms[c].push_back(
              std::chrono::duration<double, std::milli>(end - start).count());
        } else {
          ++bounced[c];
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  const double elapsed = std::chrono::duration<double>(Clock::now() - t0).count();

  LoadResult result;
  std::vector<double> all;
  for (auto& v : lat_ms) all.insert(all.end(), v.begin(), v.end());
  for (auto b : bounced) result.bounced += b;
  std::sort(all.begin(), all.end());
  const ServeStats after = server.stats();
  result.served = after.served - before.served;
  result.qps = static_cast<double>(all.size()) / elapsed;
  result.p50_ms = percentile_ms(all, 0.50);
  result.p99_ms = percentile_ms(all, 0.99);
  const std::uint64_t batches = after.batches - before.batches;
  result.mean_batch =
      batches != 0 ? static_cast<double>(after.batched_requests - before.batched_requests) /
                         static_cast<double>(batches)
                   : 0.0;
  return result;
}

void print_cell(const char* mode, std::size_t workers, const char* loop,
                const LoadResult& r) {
  std::printf(
      "serve-mt: model=MiniResNet mode=%s workers=%zu loop=%s qps=%.1f "
      "p50_ms=%.3f p99_ms=%.3f mean_batch=%.2f served=%llu bounced=%llu\n",
      mode, workers, loop, r.qps, r.p50_ms, r.p99_ms, r.mean_batch,
      static_cast<unsigned long long>(r.served),
      static_cast<unsigned long long>(r.bounced));
}

/// Fault soak: randomized engine-execute faults while concurrent clients
/// hammer a two-worker fleet, with every response checked against a serial
/// batch-1 reference. The verdict is the exit code: 0 iff every response was
/// either bit-exact kOk or a clean failure that left the caller's buffer
/// untouched, the ticket accounting balanced (no lost or duplicated
/// responses), the soak actually injected faults, and the fleet served
/// correct bits again once the faults cleared. One greppable line:
///
///   serve-mt: model=MiniResNet mode=partitioned workers=2 loop=fault-soak \
///       rate=0.0100 injected=37 ok=512 failed=29 bounced=3 wrong=0 \
///       restarts=1 workers_lost=0 verdict=PASS
int run_fault_soak(double rate, std::size_t hw, double window_s,
                   std::size_t max_batch) {
  // Bit-compare against batch-1 serial references: pin the calibration
  // stride (batch-count dependent otherwise), exactly like the differential
  // tests, and force one engine so the serial plan matches the server's.
  ScopedRuntimeOverride calib_stride("LOWINO_CALIB_STRIDE", "1");
  const auto seed = static_cast<std::uint64_t>(env_long("LOWINO_BENCH_SERVE_SEED", 42));
  constexpr std::size_t kInputs = 8, kClients = 8;

  SequentialModel model = make_miniresnet(hw);
  const Tensor<float> calib = random_input(hw, 42);

  ThreadPool pool(1);
  PlanOptions serial_options;
  serial_options.forced_engine = EngineKind::kLoWinoF4;
  serial_options.pool = &pool;
  InferenceSession serial = InferenceSession::compile(model, calib, serial_options);

  std::vector<Tensor<float>> inputs;
  std::vector<std::vector<float>> refs;
  Tensor<float> ref_out;
  for (std::size_t i = 0; i < kInputs; ++i) {
    inputs.push_back(random_input(hw, 4300 + i));
    serial.run(inputs[i], ref_out);
    refs.emplace_back(ref_out.data(), ref_out.data() + ref_out.size());
  }

  ServerOptions o;
  o.max_batch = max_batch;
  o.num_workers = 2;
  o.threads_per_worker = 1;
  o.queue_capacity = 64;
  o.plan.forced_engine = EngineKind::kLoWinoF4;
  BatchingServer server(model, calib, o);

  std::atomic<std::uint64_t> ok{0}, failed{0}, bounced{0}, wrong{0};
  std::uint64_t injected = 0;
  {
    ScopedFaultPlan fault_plan;
    fault_plan.fail_rate(FaultSite::kEngineExecute, rate, seed);

    std::atomic<bool> stop{false};
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::vector<float> out(server.output_elems());
        for (std::uint64_t r = 0; !stop.load(std::memory_order_relaxed); ++r) {
          const std::size_t i = (c + r) % kInputs;
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
              bool untouched = true;
              for (const float v : out) untouched = untouched && v == -1.0f;
              if (!untouched) wrong.fetch_add(1);
              break;
            }
            case ServeResult::kWorkerLost:
            case ServeResult::kShutdown:
            case ServeResult::kQueueFull:
              bounced.fetch_add(1);
              break;
            case ServeResult::kExpired:
              wrong.fetch_add(1);  // no SLO was set
              break;
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(window_s));
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : clients) t.join();
    injected = fault_injected_count(FaultSite::kEngineExecute);
    // Quiesce before the plan scope closes: a worker may be mid-rebuild and
    // therefore still inside fault checks.
    server.stop();
  }

  const ServeStats stats = server.stats();
  const ServerHealth mid_health = server.health();

  // Faults cleared: the fleet must resurrect and serve correct bits again.
  bool recovered = false;
  server.start();
  {
    std::vector<float> out(server.output_elems(), -1.0f);
    recovered = server.serve(inputs[0].span(), out) == ServeResult::kOk &&
                std::memcmp(out.data(), refs[0].data(),
                            out.size() * sizeof(float)) == 0 &&
                server.health().workers_live == server.health().workers;
  }
  server.stop();

  const bool pass = wrong.load() == 0 && injected > 0 && ok.load() > 0 &&
                    stats.served == ok.load() && stats.failed == failed.load() &&
                    recovered;
  std::printf(
      "serve-mt: model=MiniResNet mode=partitioned workers=2 loop=fault-soak "
      "rate=%.4f injected=%llu ok=%llu failed=%llu bounced=%llu wrong=%llu "
      "restarts=%llu workers_lost=%llu recovered=%d verdict=%s\n",
      rate, static_cast<unsigned long long>(injected),
      static_cast<unsigned long long>(ok.load()),
      static_cast<unsigned long long>(failed.load()),
      static_cast<unsigned long long>(bounced.load()),
      static_cast<unsigned long long>(wrong.load()),
      static_cast<unsigned long long>(mid_health.restarts),
      static_cast<unsigned long long>(mid_health.workers_lost),
      recovered ? 1 : 0, pass ? "PASS" : "FAIL");
  if (stats.served != ok.load() || stats.failed != failed.load()) {
    std::printf("fault-soak: ticket accounting mismatch: stats.served=%llu "
                "client_ok=%llu stats.failed=%llu client_failed=%llu\n",
                static_cast<unsigned long long>(stats.served),
                static_cast<unsigned long long>(ok.load()),
                static_cast<unsigned long long>(stats.failed),
                static_cast<unsigned long long>(failed.load()));
  }
  return pass ? 0 : 1;
}

int bench_main() {
  const std::size_t hw = static_cast<std::size_t>(env_long("LOWINO_BENCH_HW", 32));
  const double window_s =
      static_cast<double>(env_long("LOWINO_BENCH_SERVE_MS", 500)) / 1000.0;
  const std::size_t max_batch =
      static_cast<std::size_t>(env_long("LOWINO_BENCH_SERVE_BATCH", 4));
  const std::size_t hardware = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t max_workers = static_cast<std::size_t>(
      env_long("LOWINO_BENCH_SERVE_MAXW", static_cast<long>(hardware)));

  // Fault-soak mode replaces the sweep entirely; its verdict is the exit code.
  const std::string fault_rate_str = env_string("LOWINO_BENCH_SERVE_FAULT", "");
  if (!fault_rate_str.empty()) {
    double rate = 0.0;
    try {
      std::size_t used = 0;
      rate = std::stod(fault_rate_str, &used);
      if (used != fault_rate_str.size() || !(rate >= 0.0) || rate > 1.0) {
        std::fprintf(stderr, "bad LOWINO_BENCH_SERVE_FAULT (want rate in [0,1]): %s\n",
                     fault_rate_str.c_str());
        return 2;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "bad LOWINO_BENCH_SERVE_FAULT (want rate in [0,1]): %s\n",
                   fault_rate_str.c_str());
      return 2;
    }
    if (rate > 0.0) return run_fault_soak(rate, hw, window_s, max_batch);
  }

  SequentialModel model = make_miniresnet(hw);
  const Tensor<float> calib = random_input(hw, 42);
  const Tensor<float> image = random_input(hw, 43);

  std::printf("BatchingServer load sweep: MiniResNet hw=%zu max_batch=%zu "
              "window=%.0fms cores=%zu\n\n",
              hw, max_batch, 1e3 * window_s, hardware);

  // Serial baseline: no batching, one worker, closed loop with one client.
  double serial_qps = 0.0;
  {
    ServerOptions o;
    o.max_batch = 1;
    o.num_workers = 1;
    o.threads_per_worker = 1;
    BatchingServer server(model, calib, o);
    const LoadResult r = run_load(server, image, /*clients=*/1, window_s, 0.0);
    print_cell("serial", 1, "closed", r);
    serial_qps = r.qps;
    server.stop();
  }

  std::vector<std::size_t> sweep;
  for (std::size_t w = 1; w <= max_workers; w *= 2) sweep.push_back(w);

  struct Mode {
    const char* name;
    bool partitioned;  // workers=W pools of 1 vs 1 pool of W
  };
  const Mode modes[] = {{"partitioned", true}, {"intra-op", false}};

  std::printf("\n%-13s %8s %12s %12s %12s %12s %10s\n", "mode", "workers",
              "closed qps", "vs serial", "open p50ms", "open p99ms", "batch");
  bench::print_rule(86);
  for (const std::size_t w : sweep) {
    for (const Mode& mode : modes) {
      ServerOptions o;
      o.max_batch = max_batch;
      o.num_workers = mode.partitioned ? w : 1;
      o.threads_per_worker = mode.partitioned ? 1 : w;
      BatchingServer server(model, calib, o);

      // Capacity first: enough back-to-back clients to keep every worker's
      // next batch queued. Sized by the server's workers, not by w: the
      // derived queue holds num_workers * max_batch * 4 requests, and a
      // client count past it turns the closed loop into a retry storm of
      // kQueueFull bounces.
      const std::size_t clients = 2 * o.num_workers * max_batch;
      const LoadResult closed = run_load(server, image, clients, window_s, 0.0);
      print_cell(mode.name, w, "closed", closed);

      // Then the latency distribution at ~70% of that measured capacity.
      const double rate_per_client =
          0.7 * closed.qps / static_cast<double>(clients);
      const LoadResult open =
          run_load(server, image, clients, window_s, rate_per_client);
      print_cell(mode.name, w, "open", open);
      server.stop();

      std::printf("%-13s %8zu %12.1f %11.2fx %12.3f %12.3f %10.2f\n", mode.name,
                  w, closed.qps, serial_qps != 0.0 ? closed.qps / serial_qps : 0.0,
                  open.p50_ms, open.p99_ms, closed.mean_batch);
    }
  }
  std::printf("\nserial baseline: %.1f qps; `vs serial` is closed-loop capacity "
              "relative to it.\n", serial_qps);
  return 0;
}

}  // namespace
}  // namespace lowino

int main() { return lowino::bench_main(); }
