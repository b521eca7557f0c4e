// Fixed-load benchmark suite: whole-request latency and throughput of the zoo
// nets under served and offline inference, plus a per-layer breakdown of
// where that time goes.
//
//   bench_suite --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--out <result.json>]
//
// One process runs one workload (kWorkloads), so peak RSS is per workload.
// The seed fixes the request images, the calibration batch and the open-loop
// arrival schedule. Every run sets up three times (setup_s is the median),
// warms up for kWarmupSeconds, then measures for --seconds with the profiler
// off. Every response is checked against a reference; a mismatch fails the
// run.
//
// --trace 1 runs the same load and then times each layer from the outside,
// through its public API: BatchingServer::stats() for the server, a loop of
// InferenceSession::run for the session (unprofiled and profiled runs
// alternate; the profiler's stage totals give the Winograd stage split), one
// make_conv_engine replica per planned convolution, int8_gemm_packed as the
// machine reference, and compile(PlanOptions::reuse) for plan replay.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. --out writes every metric the run measured, the fingerprint
// (git sha, nproc, CPU, VNNI, plan signature) and the per-convolution table.
#include <cpuid.h>
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/cpu_features.h"
#include "common/rng.h"
#include "common/timer.h"
#include "gemm/int8_gemm.h"
#include "nn/model_zoo.h"
#include "parallel/thread_pool.h"
#include "profile/profiler.h"
#include "quant/quantize.h"
#include "serve/server.h"
#include "serve/session.h"

#ifndef BENCH_GIT_SHA
#define BENCH_GIT_SHA "unknown"
#endif

namespace lowino {
namespace {

using Clock = std::chrono::steady_clock;

enum class Net { kResNet, kVgg, kMobileNet };
enum class Load { kOpen, kOffline };

struct Workload {
  const char* name;
  Net net;
  std::size_t hw;
  Load load;
  /// Correctness floor on logit_snr_db: the lowest value over seeds 1..10
  /// when the benchmark was added, minus 3 dB. Below it, quantization broke.
  double snr_floor_db;
};

// Why each workload exists is in README.md. Every workload uses one intra-op
// thread: two-thread runs varied about three times as much on a 4-vCPU VM.
// Three workloads, because each run also pays about 20 s of setup (three
// shoot-out compiles) and the window has to be long enough to average over
// the shared VM's slow spells.
constexpr Workload kWorkloads[] = {
    {"resnet_open_50rps", Net::kResNet, 32, Load::kOpen, 21.5},
    {"vgg64_offline_b16", Net::kVgg, 64, Load::kOffline, 21.0},
    {"mobilenet_offline_b16", Net::kMobileNet, 32, Load::kOffline, 23.5},
};

// Open-loop arrivals per second. At 100 req/s the server is about half busy,
// and slowdowns of a shared VM multiplied p99 by up to 7 within one set of
// seeds; at 50 req/s batches still carry ~1.2 of 4 lanes.
constexpr double kOpenRate = 50.0;
constexpr std::size_t kClients = 4;       ///< open-loop client threads (= nproc of the reference VM)
constexpr std::size_t kOfflineBatch = 16;
constexpr std::size_t kImages = 64;       ///< seeded images: requests and the SNR set
constexpr double kWarmupSeconds = 2.0;
constexpr int kSetupReps = 3;
constexpr double kLoopBudgetS = 2.0;      ///< session loop budget (trace)
constexpr double kReplicaBudgetS = 0.25;  ///< per-conv replica budget (trace)

constexpr const char* kForbiddenEnv[] = {
    "LOWINO_FUSE_POSTOPS", "LOWINO_U8_HANDOFF", "LOWINO_EXECUTION_MODE",
    "LOWINO_CALIB_STRIDE", "LOWINO_NUM_THREADS", "LOWINO_FAULT",
    "LOWINO_PROFILE",      "LOWINO_TRACE_JSON",
};

// ---------------------------------------------------------------------------
// Metrics and output

enum class Kind { kEndToEnd, kLayer, kDetail };

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Kind kind = Kind::kDetail;
};

struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double snr_db = 0.0;
  bool correct = true;
  std::string plan_signature;
  std::string conv_rows;  ///< JSON array body of the per-conv table

  void add(Kind kind, std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit), kind});
  }
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const Report& r, std::optional<Kind> only) {
  std::string s = "{";
  for (const Metric& m : r.metrics) {
    if (only && m.kind != *only) continue;
    if (s.size() > 1) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + json_number(m.value) + ", \"unit\": \"" +
         m.unit + "\"}";
  }
  return s + "}";
}

// ---------------------------------------------------------------------------
// Small helpers

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile (q in (0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

Tensor<float> seeded_images(std::size_t n, std::size_t hw, std::uint64_t seed) {
  Tensor<float> t({n, 1, hw, hw});
  Rng rng(seed);
  for (float& v : t.span()) v = rng.uniform(-1.0f, 1.0f);
  return t;
}

/// Images [first, first + n) of a batch, as their own batch.
Tensor<float> slice_images(const Tensor<float>& images, std::size_t first, std::size_t n) {
  Tensor<float> t({n, images.dim(1), images.dim(2), images.dim(3)});
  const std::size_t elems = images.size() / images.dim(0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t src = (first + i) % images.dim(0);
    std::memcpy(t.data() + i * elems, images.data() + src * elems, elems * sizeof(float));
  }
  return t;
}

SequentialModel make_model(Net net, std::size_t hw) {
  switch (net) {
    case Net::kResNet: return make_miniresnet(hw);
    case Net::kVgg: return make_minivgg(hw);
    case Net::kMobileNet: return make_minimobilenet(hw);
  }
  throw std::logic_error("unknown net");
}

/// Engine and dtype tokens per planned convolution ("lowino_f4:f32>u8,...").
std::string plan_signature(const SessionPlan& plan) {
  std::string s;
  for (const SessionPlan::ConvChoice& c : plan.convs) {
    if (!s.empty()) s += ",";
    s += std::string(engine_token(c.engine)) + ":" + dtype_token(c.in_dtype) + ">" +
         dtype_token(c.out_dtype);
  }
  return s;
}

double median_of(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

std::string cpu_brand() {
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  char brand[49] = {};
  for (unsigned i = 0; i < 3; ++i) {
    unsigned regs[4] = {};
    __get_cpuid(0x80000002u + i, &regs[0], &regs[1], &regs[2], &regs[3]);
    std::memcpy(brand + 16 * i, regs, sizeof regs);
  }
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  s.erase(s.find_last_not_of(' ') + 1);
  for (char& ch : s) {
    if (ch == '"' || ch == '\\') ch = ' ';
  }
  return s;
}

// ---------------------------------------------------------------------------
// Load generation

/// One call that completed with correct bits. Latency is timed from the
/// request's due time (open loop) or issue time (offline); lag is how late
/// the generator issued: issue minus due time (open), or issue minus the
/// previous completion (offline).
struct Call {
  double latency_ms = 0.0;
  double lag_ms = 0.0;
  double service_ms = 0.0;  ///< issue to completion
  std::uint64_t images = 0;
};

/// What one measured window produced.
struct LoadResult {
  std::vector<Call> calls;
  std::uint64_t attempted = 0;  ///< images
  std::uint64_t failed = 0;     ///< images failed, rejected or expired
  std::uint64_t wrong = 0;      ///< images completed with wrong bits
  double window_s = 0.0;        ///< start to last completion
  double issue_window_s = 0.0;  ///< start to last issue
  void merge(const LoadResult& o) {
    calls.insert(calls.end(), o.calls.begin(), o.calls.end());
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    window_s = std::max(window_s, o.window_s);
    issue_window_s = std::max(issue_window_s, o.issue_window_s);
  }
  std::vector<double> field(double Call::*member) const {
    std::vector<double> v;
    v.reserve(calls.size());
    for (const Call& c : calls) v.push_back(c.*member);
    return v;
  }
};

/// One seeded Poisson schedule conditioned on its count: rate * seconds
/// arrivals placed uniformly in [0, seconds), so every seed offers exactly
/// the nominal rate and only the burst pattern varies.
std::vector<double> poisson_schedule(double rate, double seconds, std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(std::llround(rate * seconds));
  std::vector<double> due(n);
  Rng rng(seed);
  for (double& t : due) t = rng.next_double() * seconds;
  std::sort(due.begin(), due.end());
  return due;
}

/// Drives kClients threads against the server; they consume the schedule in
/// order (open loop). Every response is compared bitwise with refs[image].
LoadResult drive_server(BatchingServer& server, const Tensor<float>& images,
                        const std::vector<std::vector<float>>& refs,
                        const std::vector<double>& schedule) {
  const std::size_t image_elems = images.size() / images.dim(0);
  std::vector<LoadResult> logs(kClients);
  std::atomic<std::size_t> next{0};
  const auto start = Clock::now();
  const auto client = [&](std::size_t c) {
    LoadResult& log = logs[c];
    std::vector<float> out(server.output_elems());
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= schedule.size()) break;
      const std::size_t image = i % kImages;
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(schedule[i]));
      std::this_thread::sleep_until(due);
      const auto issue = Clock::now();
      const ServeResult r = server.serve(
          {images.data() + image * image_elems, image_elems}, out);
      const auto end = Clock::now();
      ++log.attempted;
      log.issue_window_s = std::chrono::duration<double>(issue - start).count();
      log.window_s = std::chrono::duration<double>(end - start).count();
      if (r != ServeResult::kOk) {
        ++log.failed;
      } else if (std::memcmp(out.data(), refs[image].data(), out.size() * sizeof(float)) != 0) {
        ++log.wrong;
      } else {
        log.calls.push_back({ms_between(due, end), ms_between(due, issue), ms_between(issue, end),
                             1});
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();
  LoadResult all;
  for (const LoadResult& log : logs) all.merge(log);
  return all;
}

/// Runs session.run(batch) back to back for `seconds`; every output must
/// equal `expect` bitwise.
LoadResult drive_offline(InferenceSession& session, const Tensor<float>& batch,
                         const Tensor<float>& expect, double seconds) {
  LoadResult r;
  Tensor<float> out;
  const std::uint64_t images = batch.dim(0);
  const auto start = Clock::now();
  auto prev_end = start;
  while (Clock::now() - start < std::chrono::duration<double>(seconds)) {
    const auto issue = Clock::now();
    session.run(batch, out);
    const auto end = Clock::now();
    r.attempted += images;
    r.issue_window_s = std::chrono::duration<double>(issue - start).count();
    r.window_s = std::chrono::duration<double>(end - start).count();
    if (std::memcmp(out.data(), expect.data(), expect.size() * sizeof(float)) != 0) {
      r.wrong += images;
    } else {
      r.calls.push_back({ms_between(issue, end), ms_between(prev_end, issue),
                         ms_between(issue, end), images});
    }
    prev_end = end;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Per-layer replicas (trace)

/// One convolution as the session runs it: its FP32 input at the session
/// batch, the fused residual (empty when none), and whether the session hands
/// input / residual over as u8.
struct ConvSite {
  ConvLayer* layer = nullptr;
  Tensor<float> input;
  Tensor<float> residual;
  bool input_u8 = false;
  bool residual_u8 = false;
};

struct Sites {
  std::vector<ConvSite> fp32;       ///< non-quantizable convs (the stem)
  std::vector<ConvSite> planned;    ///< in SessionPlan::convs order
};

/// Replays the model's FP32 forward at the batch of `input`, recording every
/// convolution's input. The u8 flags follow the plan's dtype tokens through
/// ReLU / maxpool passthroughs, as the session's type-assignment pass does.
Sites capture_sites(SequentialModel& model, const SessionPlan& plan,
                    const Tensor<float>& input) {
  Sites sites;
  Tensor<float> cur = input, next;
  bool cur_u8 = false;
  const auto out_u8 = [&](std::size_t i) {
    return i < plan.convs.size() && plan.convs[i].out_dtype == DType::kU8;
  };
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    Layer& layer = model.layer(i);
    if (auto* conv = dynamic_cast<ConvLayer*>(&layer)) {
      ConvSite site{conv, cur, {}, cur_u8, false};
      conv->forward(cur, next, false);
      if (conv->quantizable()) {
        sites.planned.push_back(std::move(site));
        cur_u8 = out_u8(sites.planned.size() - 1);
      } else {
        sites.fp32.push_back(std::move(site));
        cur_u8 = false;
      }
    } else if (auto* res = dynamic_cast<ResidualBlock*>(&layer)) {
      Tensor<float> mid;
      sites.planned.push_back({&res->conv1(), cur, {}, cur_u8, false});
      res->conv1().forward(cur, mid, false);
      for (float& v : mid.span()) v = std::max(v, 0.0f);
      const bool mid_u8 = out_u8(sites.planned.size() - 1);
      sites.planned.push_back({&res->conv2(), mid, cur, mid_u8, cur_u8});
      res->forward(cur, next, false);
      cur_u8 = out_u8(sites.planned.size() - 1);
    } else {
      layer.forward(cur, next, false);
      if (dynamic_cast<DenseLayer*>(&layer) != nullptr) cur_u8 = false;
    }
    std::swap(cur, next);
  }
  const std::size_t batch = input.dim(0);
  if (sites.planned.size() != plan.convs.size()) {
    throw std::runtime_error("plan has " + std::to_string(plan.convs.size()) +
                             " convolutions, the model " +
                             std::to_string(sites.planned.size()));
  }
  for (std::size_t i = 0; i < sites.planned.size(); ++i) {
    if (sites.planned[i].layer->conv_desc(batch).to_string() != plan.convs[i].desc) {
      throw std::runtime_error("plan conv " + std::to_string(i) + " does not match the model");
    }
  }
  return sites;
}

struct ReplicaTiming {
  double seconds = 0.0;    ///< median run
  double calib_s = 0.0;    ///< calibrate + finalize_calibration
  double pack_s = 0.0;     ///< set_filters
};

/// Abs-max hand-off scale for a replica's u8 edge. Only the timing matters
/// here, and it does not depend on the scale.
QuantParams edge_params(const Tensor<float>& t) {
  return QuantParams::from_threshold(std::max(abs_max(t.span()), 1e-6f));
}

std::vector<std::uint8_t> quantized(const Tensor<float>& t, const QuantParams& qp) {
  std::vector<std::uint8_t> q(t.size());
  quantize_u8_shift128(t.span(), qp.scale, q);
  return q;
}

/// Builds the planned engine for one site through make_conv_engine, with the
/// session's fused epilogue and u8 hand-off dtypes, and times its run().
ReplicaTiming time_replica(const SessionPlan::ConvChoice& choice, const ConvSite& site,
                           ThreadPool& pool) {
  const std::size_t batch = site.input.dim(0);
  const ConvDesc desc = site.layer->conv_desc(batch);
  std::unique_ptr<ConvEngine> engine = make_conv_engine(choice.engine, desc);
  ReplicaTiming t;
  Timer timer;
  if (engine_caps(choice.engine, desc).quantized) {
    engine->calibrate(site.input.span());
    engine->finalize_calibration();
  }
  t.calib_s = timer.seconds();
  timer.restart();
  engine->set_filters(site.layer->weights(), site.layer->bias());
  t.pack_s = timer.seconds();

  Tensor<float> out({batch, desc.out_channels, desc.out_height(), desc.out_width()});
  engine->run(site.input.span(), out.span(), &pool);  // FP32 output sets the u8 scale

  PostOps post;
  post.relu = choice.fuse_relu;
  std::vector<std::uint8_t> in_u8, out_u8, res_u8;
  if (site.residual.size() != 0) {
    if (site.residual_u8) {
      const QuantParams qp = edge_params(site.residual);
      res_u8 = quantized(site.residual, qp);
      post.sum_u8 = res_u8.data();
      post.sum_u8_inv_scale = qp.inv_scale;
    } else {
      post.sum = site.residual.data();
    }
  }
  const bool typed = choice.in_dtype == DType::kU8 || choice.out_dtype == DType::kU8 ||
                     post.sum_u8 != nullptr;
  if (choice.in_dtype == DType::kU8) {
    const QuantParams qp = edge_params(site.input);
    in_u8 = quantized(site.input, qp);
    engine->set_input_u8(qp);
  }
  if (choice.out_dtype == DType::kU8) {
    out_u8.assign(out.size(), 0);
    engine->set_output_u8(edge_params(out));
  }
  const void* in_ptr = in_u8.empty() ? static_cast<const void*>(site.input.data()) : in_u8.data();
  void* out_ptr = out_u8.empty() ? static_cast<void*>(out.data()) : out_u8.data();
  t.seconds = time_it(
                  [&] {
                    if (typed) {
                      engine->run_typed(in_ptr, out_ptr, &pool, post);
                    } else {
                      engine->run(site.input.span(), out.span(), &pool, post);
                    }
                  },
                  /*warmup=*/1, /*min_iters=*/3, /*max_iters=*/100000, kReplicaBudgetS)
                  .median;
  return t;
}

/// GMAC/s of a fixed compute-bound int8_gemm_packed problem (384 x 256 x 256,
/// one thread): the machine reference every traced run measures, and the
/// denominator of conv<i>.pct_ref.
double reference_gemm_gmacs() {
  constexpr std::size_t n = 384, c = 256, k = 256;
  Rng rng(7);
  AlignedBuffer<std::uint8_t> a(n * c);
  AlignedBuffer<std::int8_t> b(c * k), packed(c * k);
  AlignedBuffer<std::int32_t> out(n * k);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<std::uint8_t>(rng.next_below(256));
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<std::int8_t>(static_cast<int>(rng.next_below(256)) - 128);
  }
  pack_b_vpdpbusd(b.data(), c, k, packed.data());
  const Int8GemmBlocking blocking;
  const double s =
      time_it([&] { int8_gemm_packed(a.data(), c, packed.data(), nullptr, out.data(), k, n, c, k,
                                     blocking); },
              /*warmup=*/3, /*min_iters=*/5, /*max_iters=*/100000, /*budget_seconds=*/0.3)
          .median;
  return static_cast<double>(n * c * k) / s / 1e9;
}

/// The traced pass over one session: the GEMM reference, the session run
/// loop, the per-conv replicas and plan replay. `calib` is the batch the
/// session was compiled from; `batch` is what it runs.
void trace_session(SequentialModel& model, InferenceSession& session, const Tensor<float>& calib,
                   const Tensor<float>& batch, Report& report) {
  const double ref_gmacs = reference_gemm_gmacs();
  report.add(Kind::kLayer, "gemm.ref_gmacs", ref_gmacs, "GMAC/s");
  const SessionPlan& plan = session.plan();
  ThreadPool& pool = session.pool();
  Tensor<float> out;

  // Unprofiled and profiled runs alternate, so a drift of the shared VM's
  // speed hits both alike; the profiled runs' stage totals split the
  // session's time into the Winograd stages.
  std::vector<double> plain_ms, traced_ms;
  session.run(batch, out);
  profiler_reset();
  const auto loop_start = Clock::now();
  while (traced_ms.size() < 3 ||
         Clock::now() - loop_start < std::chrono::duration<double>(kLoopBudgetS)) {
    for (const bool profiled : {false, true}) {
      profiler_set_enabled(profiled);
      const auto t0 = Clock::now();
      session.run(batch, out);
      (profiled ? traced_ms : plain_ms).push_back(ms_between(t0, Clock::now()));
    }
  }
  profiler_set_enabled(false);
  const double run_ms = median_of(plain_ms);
  const auto totals = profiler_stage_totals();
  double traced_total_ms = 0.0;
  for (double v : traced_ms) traced_total_ms += v;
  const auto stage_ms = [&](ProfileStage s) {
    return 1e3 * totals[static_cast<std::size_t>(s)].seconds;
  };
  const double in_ms = stage_ms(ProfileStage::kInputTransform);
  const double gemm_ms = stage_ms(ProfileStage::kGemm);
  const double out_ms = stage_ms(ProfileStage::kOutputTransform);
  const double post_ms = stage_ms(ProfileStage::kPostOps);
  const double self_ms = stage_ms(ProfileStage::kServe) - in_ms - gemm_ms - out_ms - post_ms;
  const double runs = static_cast<double>(traced_ms.size());
  const auto stage = [&](const char* name, double total_ms) {
    report.add(Kind::kLayer, std::string("stage.") + name + "_pct",
               100.0 * total_ms / traced_total_ms, "%");
    report.add(Kind::kDetail, std::string("stage.") + name + "_ms", total_ms / runs, "ms");
  };
  stage("input_transform", in_ms);
  stage("gemm", gemm_ms);
  stage("output_transform", out_ms);
  stage("post_ops", post_ms);
  stage("serve_self", self_ms);
  report.add(Kind::kLayer, "trace.overhead_pct", 100.0 * (median_of(traced_ms) / run_ms - 1.0),
             "%");

  // Replicas: the stem through ConvLayer::forward_fp32, every planned conv
  // through make_conv_engine.
  Sites sites = capture_sites(model, plan, batch);
  const std::size_t n = batch.dim(0);
  double stem_ms = 0.0;
  for (ConvSite& site : sites.fp32) {
    const ConvDesc d = site.layer->conv_desc(n);
    Tensor<float> y({n, d.out_channels, d.out_height(), d.out_width()});
    stem_ms += 1e3 * time_it([&] { site.layer->forward_fp32(site.input.span(), y.span(), n); },
                             1, 3, 100000, kReplicaBudgetS)
                         .median;
  }
  double convs_ms = 0.0, calib_s = 0.0, pack_s = 0.0;
  std::string rows;
  for (std::size_t i = 0; i < sites.planned.size(); ++i) {
    const SessionPlan::ConvChoice& choice = plan.convs[i];
    const ReplicaTiming t = time_replica(choice, sites.planned[i], pool);
    const double gmacs =
        sites.planned[i].layer->conv_desc(n).direct_macs() / t.seconds / 1e9;
    const double pct = 100.0 * gmacs / ref_gmacs;
    convs_ms += 1e3 * t.seconds;
    calib_s += t.calib_s;
    pack_s += t.pack_s;
    // conv0 and conv1 exist in every zoo net; the rest go to --out only.
    const Kind kind = i < 2 ? Kind::kLayer : Kind::kDetail;
    const std::string prefix = "conv" + std::to_string(i);
    report.add(kind, prefix + ".ms", 1e3 * t.seconds, "ms");
    report.add(kind, prefix + ".gmacs", gmacs, "GMAC/s");
    report.add(kind, prefix + ".pct_ref", pct, "%");
    if (!rows.empty()) rows += ",\n    ";
    rows += "{\"index\": " + std::to_string(i) + ", \"layer\": \"" + choice.layer +
            "\", \"desc\": \"" + choice.desc + "\", \"engine\": \"" +
            engine_token(choice.engine) + "\", \"dtype\": \"" + dtype_token(choice.in_dtype) +
            ":" + dtype_token(choice.out_dtype) + "\", \"ms\": " +
            json_number(1e3 * t.seconds) + ", \"gmacs\": " + json_number(gmacs) +
            ", \"pct_ref\": " + json_number(pct) + "}";
  }
  report.conv_rows = rows;
  report.add(Kind::kLayer, "stem.ms", stem_ms, "ms");
  report.add(Kind::kLayer, "convs.ms", convs_ms, "ms");

  std::size_t u8_edges = 0;
  for (const SessionPlan::ConvChoice& c : plan.convs) {
    u8_edges += (c.in_dtype == DType::kU8 ? 1 : 0) + (c.out_dtype == DType::kU8 ? 1 : 0);
  }
  report.add(Kind::kLayer, "session.run_ms", run_ms, "ms");
  report.add(Kind::kLayer, "session.unattributed_ms", run_ms - stem_ms - convs_ms, "ms");
  report.add(Kind::kLayer, "session.arena_mib",
             static_cast<double>(plan.arena_bytes) / (1024.0 * 1024.0), "MiB");
  report.add(Kind::kLayer, "session.op_count", static_cast<double>(session.op_count()), "count");
  report.add(Kind::kLayer, "session.u8_edges", static_cast<double>(u8_edges), "count");

  // Plan replay: what a worker rebuild or a server restart pays.
  PlanOptions replay;
  replay.pool = &pool;
  replay.reuse = &plan;
  Timer replay_timer;
  InferenceSession::compile(model, calib, replay);
  report.add(Kind::kLayer, "setup.replay_s", replay_timer.seconds(), "s");
  report.add(Kind::kLayer, "setup.calibration_s", calib_s, "s");
  report.add(Kind::kLayer, "setup.filter_pack_s", pack_s, "s");
}

// ---------------------------------------------------------------------------
// Workloads

/// Metrics every workload derives from its measured window.
void report_window(const LoadResult& r, double rss_mib, double snr_db,
                   Report& report) {
  report.attempted += r.attempted;
  report.failed += r.failed + r.wrong;
  report.snr_db = snr_db;
  const std::vector<double> latency = r.field(&Call::latency_ms);
  double ok_images = 0.0;
  for (const Call& c : r.calls) ok_images += static_cast<double>(c.images);
  // On a shared VM the host lends the cores under our vCPUs to other tenants
  // for seconds to minutes at a time, and every call runs up to 1.8x slower
  // while it does; the share of slow calls follows the neighbours, not the
  // program. The fastest calls are the least disturbed, so the p1 is the
  // gated latency (README.md, "Why the p1"); p50, p99 and throughput (a
  // mean) go to the result file.
  report.add(Kind::kEndToEnd, "lat_p1_ms", percentile(latency, 0.01), "ms");
  report.add(Kind::kDetail, "lat_p50_ms", percentile(latency, 0.50), "ms");
  report.add(Kind::kDetail, "lat_p99_ms", percentile(latency, 0.99), "ms");
  report.add(Kind::kDetail, "throughput_ips", r.window_s > 0.0 ? ok_images / r.window_s : 0.0,
             "img/s");
  report.add(Kind::kEndToEnd, "peak_rss_mib", rss_mib, "MiB");
  report.add(Kind::kEndToEnd, "logit_snr_db", snr_db, "dB");
  report.add(Kind::kDetail, "lat_samples", static_cast<double>(latency.size()), "count");
  report.add(Kind::kDetail, "error_rate",
             r.attempted == 0 ? 1.0
                              : static_cast<double>(r.failed + r.wrong) /
                                    static_cast<double>(r.attempted),
             "ratio");
  report.add(Kind::kLayer, "loadgen.lag_p99_ms", percentile(r.field(&Call::lag_ms), 0.99), "ms");
  report.add(Kind::kLayer, "loadgen.offered_rps",
             r.issue_window_s > 0.0 ? static_cast<double>(r.attempted) / r.issue_window_s : 0.0,
             "img/s");
}

/// Served logits against the FP32 SequentialModel::forward of the same
/// images, run `batch` images at a time so the reference adds no more memory
/// than the compile's own FP32 pass.
double logit_snr_db(SequentialModel& model, const Tensor<float>& images, std::size_t batch,
                    std::span<const float> served) {
  std::vector<float> fp32;
  for (std::size_t first = 0; first < images.dim(0); first += batch) {
    const Tensor<float>& out = model.forward(slice_images(images, first, batch), false);
    fp32.insert(fp32.end(), out.data(), out.data() + out.size());
  }
  return quantization_error(fp32, served).signal_to_noise_db;
}

/// The timed setups and the plan each one chose. The shoot-out times its
/// candidates on a shared VM, so near-tied engines can swap between setups;
/// the workload then measures the plan most setups agreed on.
struct SetupResult {
  std::vector<double> seconds;
  std::vector<SessionPlan> plans;

  /// Reports setup_s and session.plan_flips (setups whose plan differs from
  /// the first one's) and returns the plan the workload must measure (the
  /// first of the most frequent).
  const SessionPlan& report(Report& report) const {
    std::vector<std::string> sigs;
    for (const SessionPlan& p : plans) sigs.push_back(plan_signature(p));
    std::size_t modal = 0, flips = 0;
    for (std::size_t i = 0; i < sigs.size(); ++i) {
      if (std::count(sigs.begin(), sigs.end(), sigs[i]) >
          std::count(sigs.begin(), sigs.end(), sigs[modal])) {
        modal = i;
      }
      if (sigs[i] != sigs.front()) {
        ++flips;
        std::fprintf(stderr, "bench_suite: setup %zu planned %s, setup 0 %s\n", i,
                     sigs[i].c_str(), sigs.front().c_str());
      }
    }
    report.add(Kind::kEndToEnd, "setup_s", median_of(seconds), "s");
    report.add(Kind::kLayer, "session.plan_flips", static_cast<double>(flips), "count");
    report.plan_signature = sigs[modal];
    return plans[modal];
  }
};

void run_serve(const Workload& w, std::uint64_t seed, double seconds, bool trace,
               Report& report) {
  SequentialModel model = make_model(w.net, w.hw);
  const Tensor<float> images = seeded_images(kImages, w.hw, seed * 1000 + 1);
  const ServerOptions options;  // the defaults: max_batch 4, linger 1 ms, 1 x 1 thread
  const Tensor<float> calib = seeded_images(options.max_batch, w.hw, seed * 1000 + 2);

  SetupResult setup;
  std::unique_ptr<BatchingServer> server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    Timer t;
    server = std::make_unique<BatchingServer>(model, calib, options);
    setup.seconds.push_back(t.seconds());
    setup.plans.push_back(server->plan());
  }
  const SessionPlan& plan = setup.report(report);
  if (plan_signature(server->plan()) != report.plan_signature) {
    server.reset();
    ServerOptions replay_options = options;
    replay_options.plan.reuse = &plan;
    server = std::make_unique<BatchingServer>(model, calib, replay_options);
  }

  // The correctness reference: the server's plan replayed at the server
  // batch, each image alone in lane 0.
  ThreadPool pool(1);
  PlanOptions replay;
  replay.pool = &pool;
  replay.reuse = &server->plan();
  InferenceSession reference = InferenceSession::compile(model, calib, replay);
  std::vector<std::vector<float>> refs(kImages);
  std::vector<float> served_logits;
  {
    Tensor<float> lane(calib.shape()), out;
    lane.zero();
    const std::size_t elems = images.size() / kImages;
    for (std::size_t i = 0; i < kImages; ++i) {
      std::memcpy(lane.data(), images.data() + i * elems, elems * sizeof(float));
      reference.run(lane, out);
      refs[i].assign(out.data(), out.data() + server->output_elems());
      served_logits.insert(served_logits.end(), refs[i].begin(), refs[i].end());
    }
  }
  const double snr_db = logit_snr_db(model, images, options.max_batch, served_logits);

  drive_server(*server, images, refs, poisson_schedule(kOpenRate, kWarmupSeconds, seed * 1000 + 3));
  const ServeStats before = server->stats();
  const LoadResult r =
      drive_server(*server, images, refs, poisson_schedule(kOpenRate, seconds, seed * 1000 + 4));
  const ServeStats after = server->stats();
  report_window(r, peak_rss_mib(), snr_db, report);

  const double served = static_cast<double>(after.served - before.served);
  const double batches = static_cast<double>(after.batches - before.batches);
  const double queue_ms = served > 0.0 ? 1e-6 * static_cast<double>(after.queue_ns_sum -
                                                                    before.queue_ns_sum) / served
                                       : 0.0;
  const double done_ms = mean(r.field(&Call::service_ms));
  report.add(Kind::kLayer, "server.queue_pct", done_ms > 0.0 ? 100.0 * queue_ms / done_ms : 0.0,
             "%");
  report.add(Kind::kDetail, "server.queue_ms_mean", queue_ms, "ms");
  report.add(Kind::kLayer, "server.service_ms_mean", done_ms - queue_ms, "ms");
  report.add(Kind::kLayer, "server.lane_fill",
             batches > 0.0 ? static_cast<double>(after.batched_requests - before.batched_requests) /
                                 (batches * static_cast<double>(options.max_batch))
                           : 0.0,
             "ratio");
  report.add(Kind::kLayer, "server.linger_close_pct",
             batches > 0.0
                 ? 100.0 * static_cast<double>(after.closed_linger - before.closed_linger) / batches
                 : 0.0,
             "%");
  if (r.window_s > 0.0 && static_cast<double>(r.calls.size()) / r.window_s < 0.98 * kOpenRate) {
    std::fprintf(stderr, "bench_suite: served below 98%% of the offered rate; a backlog is "
                         "growing, so latency measures the backlog\n");
  }

  if (trace) {
    trace_session(model, reference, calib, slice_images(images, 0, options.max_batch), report);
  }
}

void run_offline(const Workload& w, std::uint64_t seed, double seconds, bool trace,
                 Report& report) {
  SequentialModel model = make_model(w.net, w.hw);
  const Tensor<float> images = seeded_images(kImages, w.hw, seed * 1000 + 1);
  const Tensor<float> batch = slice_images(images, 0, kOfflineBatch);
  const Tensor<float> calib = seeded_images(kOfflineBatch, w.hw, seed * 1000 + 2);
  ThreadPool pool(1);
  PlanOptions plan_options;
  plan_options.pool = &pool;

  SetupResult setup;
  std::optional<InferenceSession> session;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    session.reset();
    Timer t;
    session.emplace(InferenceSession::compile(model, calib, plan_options));
    setup.seconds.push_back(t.seconds());
    setup.plans.push_back(session->plan());
  }
  const SessionPlan& plan = setup.report(report);
  if (plan_signature(session->plan()) != report.plan_signature) {
    session.reset();
    plan_options.reuse = &plan;
    session.emplace(InferenceSession::compile(model, calib, plan_options));
  }

  // Every measured run must reproduce the first run's output bit for bit.
  Tensor<float> expect, out;
  session->run(batch, expect);
  std::vector<float> logits(expect.data(), expect.data() + expect.size());
  for (std::size_t first = kOfflineBatch; first < kImages; first += kOfflineBatch) {
    session->run(slice_images(images, first, kOfflineBatch), out);
    logits.insert(logits.end(), out.data(), out.data() + out.size());
  }
  const double snr_db = logit_snr_db(model, images, kOfflineBatch, logits);

  drive_offline(*session, batch, expect, kWarmupSeconds);
  const LoadResult r = drive_offline(*session, batch, expect, seconds);
  report_window(r, peak_rss_mib(), snr_db, report);
  // No server runs: every batch is full, nothing queues or lingers, and the
  // service time is one run() call.
  report.add(Kind::kLayer, "server.queue_pct", 0.0, "%");
  report.add(Kind::kLayer, "server.service_ms_mean", mean(r.field(&Call::service_ms)), "ms");
  report.add(Kind::kLayer, "server.lane_fill", 1.0, "ratio");
  report.add(Kind::kLayer, "server.linger_close_pct", 0.0, "%");

  if (trace) trace_session(model, *session, calib, batch, report);
}

// ---------------------------------------------------------------------------
// Command line

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    try {
      if (flag == "--workload") {
        for (const Workload& w : kWorkloads) {
          if (value == w.name) a.workload = &w;
        }
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
        have_seconds = a.seconds > 0.0 && a.seconds <= 600.0;
      } else if (flag == "--trace") {
        have_trace = value == "0" || value == "1";
        a.trace = value == "1";
      } else if (flag == "--out") {
        a.out = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || a.workload == nullptr || !have_seed || !have_seconds || !have_trace) {
    return std::nullopt;
  }
  return a;
}

bool write_out(const std::string& path, const Args& args, const Report& report) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n  \"seconds\": %s,\n"
               "  \"trace\": %d,\n  \"fingerprint\": {\"git_sha\": \"%s\", \"nproc\": %zu, "
               "\"cpu\": \"%s\", \"vnni\": %s, \"plan\": \"%s\"},\n"
               "  \"correct\": %s,\n  \"attempted\": %llu,\n  \"failed\": %llu,\n"
               "  \"metrics\": %s,\n  \"convs\": [\n    %s\n  ]\n}\n",
               args.workload->name, static_cast<unsigned long long>(args.seed),
               json_number(args.seconds).c_str(), args.trace ? 1 : 0, BENCH_GIT_SHA,
               usable_cpus(), cpu_brand().c_str(),
               cpu_features().has_vnni_kernels() ? "true" : "false",
               report.plan_signature.c_str(), report.correct ? "true" : "false",
               static_cast<unsigned long long>(report.attempted),
               static_cast<unsigned long long>(report.failed),
               metrics_json(report, std::nullopt).c_str(), report.conv_rows.c_str());
  return std::fclose(f) == 0;
}

int bench_main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: bench_suite --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--out <file>]\nworkloads:");
    for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  // Knobs that change plans, threading or instrumentation would make runs
  // incomparable; the benchmark owns all of them.
  for (const char* name : kForbiddenEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr, "bench_suite: refusing to run with %s set\n", name);
      return 2;
    }
  }
  // glibc raises its mmap threshold each time a large block is freed, so
  // whether a later activation-sized buffer lands in the heap (and stays
  // resident after free) depends on the order of the shoot-out's frees:
  // peak RSS of one VGG plan read 383 to 417 MiB. A fixed threshold maps and
  // unmaps every block of 128 KiB or more, and the peak repeats to 0.1 MiB.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const Workload& w = *args->workload;
  std::printf("bench_suite: workload=%s seed=%llu seconds=%g trace=%d\n", w.name,
              static_cast<unsigned long long>(args->seed), args->seconds, args->trace ? 1 : 0);

  Report report;
  if (w.load == Load::kOffline) {
    run_offline(w, args->seed, args->seconds, args->trace, report);
  } else {
    run_serve(w, args->seed, args->seconds, args->trace, report);
  }

  if (report.failed != 0 || !(report.snr_db >= w.snr_floor_db)) {
    report.correct = false;
    std::fprintf(stderr, "bench_suite: %llu of %llu images failed or mismatched; logit SNR "
                 "%.2f dB (floor %.1f dB)\n",
                 static_cast<unsigned long long>(report.failed),
                 static_cast<unsigned long long>(report.attempted), report.snr_db,
                 w.snr_floor_db);
  }

  std::printf("fingerprint: sha=%s nproc=%zu cpu=\"%s\" vnni=%d plan=%s\n", BENCH_GIT_SHA,
              usable_cpus(), cpu_brand().c_str(), cpu_features().has_vnni_kernels() ? 1 : 0,
              report.plan_signature.c_str());
  // The untraced pass also lists the ungated metrics (p50, p99, throughput).
  for (const Metric& m : report.metrics) {
    if (m.kind == (args->trace ? Kind::kLayer : Kind::kEndToEnd) ||
        (!args->trace && m.kind == Kind::kDetail)) {
      std::printf("  %-28s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  if (!args->out.empty() && !write_out(args->out, *args, report)) {
    std::fprintf(stderr, "bench_suite: cannot write %s\n", args->out.c_str());
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              metrics_json(report, args->trace ? Kind::kLayer : Kind::kEndToEnd).c_str());
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace lowino

int main(int argc, char** argv) {
  try {
    return lowino::bench_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_suite: %s\n", e.what());
    return 1;
  }
}
