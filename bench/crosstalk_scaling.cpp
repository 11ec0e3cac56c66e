// Crosstalk-sweep throughput scaling: points/sec of a coupled-bus victim
// delay grid versus thread count, with a bit-identity check across thread
// counts — the crosstalk twin of bench/sweep_scaling.
//
// The workload is the coupled-bus tentpole claim: a (Cc/Ct, Lm/Lt, driver)
// grid of 3-line buses evaluated with the full MNA transient engine, every
// bus a K-segment coupled ladder on the sparse path, every thread replaying
// ONE recorded symbolic factorization pair. Patterns are restricted to the
// switching corners (same-/opposite-phase) so every grid value is a real
// delay and the bit-identity comparison is exact. Emits one JSON document;
// the exit status IS the determinism check (0 iff every thread count
// produced the same bits), so CI can gate on it directly.
//
// Usage: crosstalk_scaling [--fast] [--points N] [--threads a,b,c] [--dump F]
//   --fast      64-point grid, thread counts 1,2 (CI smoke run)
//   --points N  approximate grid size (rounded to a 3-axis box x 2 patterns)
//   --threads   comma list of thread counts (default 1,2,4,8)
//   --dump F    write raw result bytes to file F: the reference delay run's
//               values, then those of a crosstalk_noise sweep of the same
//               grid at the first thread count. The noise sweep runs only
//               under --dump, after the JSON is printed, so the JSON is the
//               same with or without it. cmp two dumps (tracing on vs off,
//               or two builds) to prove results identical bit for bit.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "sweep/sweep.h"

namespace {

using namespace rlcsim;

sweep::SweepSpec grid_of(std::size_t target_points) {
  // Two switching patterns are fixed; split the rest across three axes.
  const std::size_t box = (target_points + 1) / 2;
  const int side = static_cast<int>(std::cbrt(static_cast<double>(box)));
  const int na = std::max(2, side), nb = std::max(2, side);
  const int nc =
      std::max(2, static_cast<int>((box + na * nb - 1) / (na * nb)));

  sweep::SweepSpec spec;
  spec.base.system = {100.0, {200.0, 5e-9, 1e-12}, 50e-15};
  spec.base.xtalk.bus_lines = 3;
  // Coupling ranges stay strictly positive so every grid point shares ONE
  // sparsity pattern (a zero Cc/Lm drops stamps and forks the topology).
  spec.axes = {
      sweep::linspace(sweep::Variable::kCouplingCapRatio, 0.1, 0.6, na),
      sweep::linspace(sweep::Variable::kMutualRatio, 0.05, 0.4, nb),
      sweep::linspace(sweep::Variable::kDriverResistance, 50.0, 400.0, nc),
      sweep::switching_patterns({core::SwitchingPattern::kSamePhase,
                                 core::SwitchingPattern::kOppositePhase}),
  };
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t target_points = 512;
  std::vector<std::size_t> thread_counts{1, 2, 4, 8};
  const char* dump_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      target_points = 64;
      thread_counts = {1, 2};
    } else if (std::strcmp(argv[i], "--points") == 0 && i + 1 < argc) {
      target_points = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--dump") == 0 && i + 1 < argc) {
      dump_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      try {
        thread_counts = benchutil::parse_thread_list(argv[++i]);
      } catch (const std::invalid_argument& error) {
        std::fprintf(stderr, "crosstalk_scaling: %s\n", error.what());
        return 2;
      }
    }
  }

  const sweep::SweepSpec spec = grid_of(target_points);
  const std::size_t points = spec.size();

  std::printf("{\n");
  benchutil::manifest_json_block("crosstalk_scaling");
  std::printf("  \"bench\": \"crosstalk_scaling\",\n");
  std::printf("  \"analysis\": \"crosstalk_delay\",\n");
  std::printf("  \"bus_lines\": %d,\n", spec.base.xtalk.bus_lines);
  std::printf("  \"points\": %zu,\n", points);
  std::printf("  \"segments\": 16,\n");
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"runs\": [\n");

  std::vector<double> reference;
  bool all_identical = true;
  double base_pps = 0.0;
  const auto engine_options = [](std::size_t threads) {
    sweep::EngineOptions options;
    options.threads = threads;
    options.segments = 16;  // 3-line bus ~ 150 unknowns: sparse path live
    return options;
  };
  for (std::size_t t = 0; t < thread_counts.size(); ++t) {
    const sweep::SweepEngine engine(engine_options(thread_counts[t]));
    const sweep::SweepResult result =
        engine.run(spec, sweep::Analysis::kCrosstalkDelay);

    bool identical = true;
    if (t == 0) {
      reference = result.values;
      base_pps = result.points_per_second;
    } else {
      identical = result.values == reference;  // exact, bit-for-bit (no NaNs)
      all_identical = all_identical && identical;
    }

    benchutil::scaling_run_json(
        thread_counts[t], result.elapsed_seconds, result.points_per_second,
        base_pps > 0.0 ? result.points_per_second / base_pps : 1.0,
        result.symbolic_factorizations, result.solver_reuse_hits, identical,
        t + 1 == thread_counts.size());
  }

  std::printf("  ],\n");
  benchutil::metrics_json_block();
  std::printf("  \"all_thread_counts_bit_identical\": %s\n",
              all_identical ? "true" : "false");
  std::printf("}\n");

  if (dump_path != nullptr) {
    const std::vector<double> noise =
        sweep::SweepEngine(engine_options(thread_counts.front()))
            .run(spec, sweep::Analysis::kCrosstalkNoise)
            .values;
    // Raw bytes (not text), so cmp sees every bit.
    std::FILE* f = std::fopen(dump_path, "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "crosstalk_scaling: cannot open --dump path %s\n",
                   dump_path);
      return 2;
    }
    std::fwrite(reference.data(), sizeof(double), reference.size(), f);
    std::fwrite(noise.data(), sizeof(double), noise.size(), f);
    std::fclose(f);
  }
  return all_identical ? 0 : 1;
}
