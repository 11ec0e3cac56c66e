// rlcbench driver: runs one workload and prints one JSON document.
//
//   rlcbench run      --workload W --seed N --seconds S --reference FILE
//       End-to-end metrics. Run it with tracing off (RLCSIM_METRICS=0, no
//       RLCSIM_TRACE); rlcbench/run.py does.
//   rlcbench layers   --workload W --seed N --seconds S
//       Per-layer metrics from a traced run (RLCSIM_METRICS=1 and
//       RLCSIM_TRACE=<file>); see layers.cpp.
//   rlcbench reference
//       Recomputes the bus_crosstalk reference file on stdout.
//
// Exit status: 0 when every output check passed, 1 when one failed, 2 on a
// usage error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "layers.h"
#include "workloads.h"
// The manifest's commit is read at run time (see git_sha in workloads.h).
#define RLCSIM_GIT_SHA rlcbench::git_sha()
#include "bench_util.h"

using namespace rlcbench;

namespace {

// Set-ups are timed in batches of back-to-back set-ups: two batches before
// the timed loop and one between each pair of repetitions. A shared host
// runs a whole batch within one of its fast or slow stretches, so each
// batch gives its best set-up, and setup_s is the median of those.
constexpr int kSetupBatch = 10;
constexpr int kSetupBatchesBefore = 2;

struct Args {
  std::string mode;
  std::optional<Workload> workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  std::string reference;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "rlcbench: %s\nusage: rlcbench run|layers|reference "
               "--workload W --seed N --seconds S [--reference FILE]\n",
               why);
  return 2;
}

void print_ops(const std::vector<OpResult>& ops) {
  std::printf("  \"ops\": [\n");
  for (std::size_t i = 0; i < ops.size(); ++i)
    std::printf("    {\"name\": \"%s\", \"attempted\": %zu, \"failed\": %zu, "
                "\"error\": \"%s\"}%s\n",
                ops[i].name, ops[i].attempted, ops[i].attempted - ops[i].ok,
                json_escape(ops[i].error).c_str(), i + 1 < ops.size() ? "," : "");
  std::printf("  ],\n");
}

void print_rates(const char* key, const std::vector<double>& rates) {
  std::printf("    \"%s\": [", key);
  for (std::size_t i = 0; i < rates.size(); ++i)
    std::printf("%s%.6g", i ? ", " : "", rates[i]);
  std::printf("]");
}

int run_mode(const Args& args) {
  const Workload workload = *args.workload;
  std::vector<double> setup, batch_best;
  auto time_setup_batch = [&] {
    double best = HUGE_VAL;
    for (int i = 0; i < kSetupBatch; ++i) {
      const auto start = std::chrono::steady_clock::now();
      const Session timed(workload, args.seed);
      setup.push_back(seconds_since(start));
      best = std::min(best, setup.back());
    }
    batch_best.push_back(best);
  };
  for (int i = 0; i < kSetupBatchesBefore; ++i) time_setup_batch();
  const Session session(workload, args.seed);
  RepHooks hooks;
  hooks.between_pairs = time_setup_batch;
  const Loop loop = timed_loop(session, args.seconds, hooks);
  const double rss = peak_rss_mb();
  const ReferenceCheck ref = check_reference(session, loop.warmup, args.reference);
  const Accounting acc = account(loop.warmup);
  const bool correct = loop.identical && ref.pass;

  std::printf("{\n");
  benchutil::manifest_json_block("rlcbench");
  std::printf("  \"mode\": \"run\", \"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g,\n",
              workload_name(workload), static_cast<unsigned long long>(args.seed),
              args.seconds);
  std::printf("  \"inputs_fnv\": \"%016llx\", \"result_fnv\": \"%016llx\",\n",
              static_cast<unsigned long long>(fnv1a(input_bytes(session.inputs()))),
              static_cast<unsigned long long>(fnv1a(result_bytes(loop.warmup))));
  print_ops(loop.warmup);
  std::printf("  \"reps\": {\n");
  print_rates("rate_t2", loop.rates(2));
  std::printf(",\n");
  print_rates("rate_t1", loop.rates(1));
  std::printf(",\n");
  print_rates("setup_s", setup);
  std::printf(",\n");
  print_rates("setup_batch_best_s", batch_best);
  std::printf("\n  },\n");
  std::printf("  \"checks\": {\"bit_identical_t1_t2\": %s, \"reference_pass\": %s, "
              "\"sampled\": %zu, \"tolerance_pct\": %g, \"delay_err_all_pct\": %.6g, "
              "\"noise_err_max_mv\": %.6g, "
              "\"noise_tolerance_mv\": %g, \"detail\": \"%s\"},\n",
              loop.identical ? "true" : "false", ref.pass ? "true" : "false",
              ref.sampled, ref.tolerance_pct, ref.delay_err_all_pct, ref.noise_err_max_mv,
              ref.noise_tolerance_mv, json_escape(ref.detail).c_str());
  std::printf("  \"correct\": %s, \"attempted\": %zu, \"failed\": %zu,\n",
              correct ? "true" : "false", acc.attempted, acc.failed);
  std::printf("  \"metrics\": {\n");
  std::printf("    \"points_per_s\": {\"value\": %.6f, \"unit\": \"points/s\"},\n",
              loop.throughput(2));
  std::printf("    \"points_per_s_t1\": {\"value\": %.6f, \"unit\": \"points/s\"},\n",
              loop.throughput(1));
  std::printf("    \"setup_s\": {\"value\": %.9g, \"unit\": \"s\"},\n", median(batch_best));
  std::printf("    \"peak_rss_mb\": {\"value\": %.4f, \"unit\": \"MB\"},\n", rss);
  std::printf("    \"delay_err_max_pct\": {\"value\": %.9g, \"unit\": \"%%\"},\n",
              ref.delay_err_max_pct);
  std::printf("    \"ok_frac\": {\"value\": %.9g, \"unit\": \"ratio\"}\n",
              1.0 - acc.fail_frac());
  std::printf("  }\n}\n");
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (argc < 2) return usage("missing mode");
  args.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = parse_workload(value);
      if (!args.workload) return usage(("unknown workload " + std::string(value)).c_str());
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*value == '\0' || *end != '\0') return usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return usage("--seconds must be > 0");
    } else if (flag == "--reference") {
      args.reference = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  try {
    if (args.mode == "reference") {
      write_bus_reference(stdout);
      return 0;
    }
    if (!args.workload) return usage("--workload is required");
    if (args.mode == "run") return run_mode(args);
    if (args.mode == "layers") return layers_mode(*args.workload, args.seed, args.seconds);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "rlcbench: %s\n", error.what());
    return 1;
  }
  return usage(("unknown mode " + args.mode).c_str());
}
