// Auto-tuning scenario (Section 4.3.4): search the blocking space for one
// convolutional layer, persist the winner to a wisdom file, and show the
// speedup over the default configuration.
//
//   build/examples/tune_layer [C] [K] [HW] [batch]
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "parallel/thread_pool.h"
#include "tuning/tuner.h"
#include "tuning/wisdom.h"

int main(int argc, char** argv) {
  using namespace lowino;
  ConvDesc desc;
  desc.in_channels = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 256;
  desc.out_channels = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 256;
  desc.height = desc.width = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 28;
  desc.batch = argc > 4 ? std::strtoul(argv[4], nullptr, 10) : 8;
  desc.kernel = 3;
  desc.pad = 1;

  std::printf("Tuning the F(4x4,3x3) batched GEMM for %s ...\n", desc.to_string().c_str());
  TuneOptions options;
  options.seconds_per_candidate = 0.05;
  const TuneResult result = tune_layer(desc, 4, &ThreadPool::global(), options);

  std::printf("  candidates evaluated : %zu\n", result.evaluated);
  std::printf("  default blocking     : %.3f ms\n", result.default_seconds * 1e3);
  std::printf("  best blocking        : %.3f ms  (%s)\n", result.best_seconds * 1e3,
              result.best.to_string().c_str());
  std::printf("  speedup              : %.2fx\n",
              result.default_seconds / result.best_seconds);

  // Persist the winning blocking to the wisdom file under the layer's key.
  const char* path = "lowino_wisdom.txt";
  const std::string key = wisdom_key(desc, 4);
  WisdomStore store;
  if (auto existing = WisdomStore::load(path)) store = *existing;
  store.put(key, result.best);
  if (!store.save(path)) {
    std::fprintf(stderr, "could not save %s\n", path);
    return 1;
  }
  std::printf("  saved to %s (%zu entries)\n", path, store.size());

  // Demonstrate the load path: the file gives back the blocking just saved.
  const auto loaded = WisdomStore::load(path);
  const std::optional<Int8GemmBlocking> reloaded = loaded ? loaded->get(key) : std::nullopt;
  if (!reloaded || reloaded->to_string() != result.best.to_string()) {
    std::fprintf(stderr, "reload check: %s does not hold this layer's blocking\n", path);
    return 1;
  }
  std::printf("  reload check: OK (%s)\n", reloaded->to_string().c_str());
  return 0;
}
