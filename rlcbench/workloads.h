// rlcbench: the repository benchmark's workloads, seeded inputs, failure
// accounting and output references.
//
// Four workloads exercise the design-space engines the paper's cost-versus-
// accuracy argument runs on (see rlcbench/README.md for why each exists):
//
//   table1_sweep     Table-1 transient grid, per-point default horizons
//   table1_batched   the same grid, one shared horizon, 8-lane SIMD tiles
//   bus_crosstalk    5-line coupled bus, full-MNA crosstalk delay + noise
//   analytic_design  reduced-order delays, repeater-bus optimizer, H-tree
//
// The program (the rlcsim library) receives only inputs generated here from
// a workload seed: seed 0 is the canonical grid, any other seed jitters the
// interior values of every numeric axis inside the same range.
#pragma once

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/repeater.h"
#include "graph/h_tree.h"
#include "obs/obs.h"
#include "sweep/sweep.h"
#include "tline/coupled_bus.h"

namespace rlcbench {

enum class Workload { kTable1Sweep, kTable1Batched, kBusCrosstalk, kAnalyticDesign };

inline constexpr Workload kAllWorkloads[] = {
    Workload::kTable1Sweep, Workload::kTable1Batched, Workload::kBusCrosstalk,
    Workload::kAnalyticDesign};

const char* workload_name(Workload workload);
std::optional<Workload> parse_workload(const std::string& name);

// ------------------------------------------------------------ seeded inputs

// Counter-based splitmix64: draw `index` of stream `stream` under `seed` is
// a pure function of the three, so any input can be regenerated alone.
std::uint64_t splitmix64(std::uint64_t x);
double unit_draw(std::uint64_t seed, std::uint64_t stream, std::uint64_t index);

// `points` values spanning [lo, hi] (log-spaced when `log`). Seed 0 returns
// the evenly spaced axis; other seeds move each INTERIOR value by up to 0.4
// of its spacing (in log space for log axes). The endpoints stay pinned, so
// the range and its corners are the same for every seed and the values stay
// strictly increasing.
std::vector<double> seeded_axis(double lo, double hi, int points, bool log,
                                std::uint64_t seed, std::uint64_t stream);

// Everything one workload hands the program.
struct Inputs {
  Workload workload{};
  rlcsim::sweep::SweepSpec grid;             // the sweep grid
  rlcsim::sweep::EngineOptions options;      // threads is set per engine
  // analytic_design only: the optimizer's bus and the H-tree.
  rlcsim::tline::CoupledBus optimizer_bus;
  rlcsim::core::MinBuffer buffer;
  rlcsim::graph::HTreeSpec tree;
};

Inputs make_inputs(Workload workload, std::uint64_t seed);

// The raw bytes of every generated input value, in a fixed order: what the
// seeding self-test compares.
std::vector<unsigned char> input_bytes(const Inputs& inputs);

// ------------------------------------------------------- operations, counts

// One call into a public entry point (a sweep, the optimizer, a graph
// evaluation) and what it returned. A call that throws returns nothing, so
// all of its points count as failed and `error` keeps the first error text.
struct OpResult {
  const char* name = "";
  std::size_t attempted = 0;
  std::size_t ok = 0;              // points that returned a finite value
  std::vector<double> values;      // one value per returned point
  std::vector<double> detail;      // further returned values (memcmp only)
  std::string error;               // empty when the call returned
  // Sweep bookkeeping (zero for non-sweep calls).
  std::size_t batched_points = 0;
  std::size_t scalar_points = 0;
  std::size_t ejected_lanes = 0;
  double seconds = 0.0;            // wall time of the call
};

// Runs `call`, which fills `op.values` (and may fill the other fields) for
// `attempted` points, inside a span named `name`: a string literal that
// starts with "bench." so the benchmark's spans never merge with the
// program's own in a trace digest. An exception marks every point failed;
// a point whose value is not finite counts as failed too.
template <typename Call>
OpResult run_op(const char* name, std::size_t attempted, Call&& call);

struct Accounting {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double fail_frac() const {
    return attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                     : 0.0;
  }
};
Accounting account(const std::vector<OpResult>& ops);

// Bytes of a whole repetition (values and error texts of every call): two
// repetitions agree only if these are identical.
std::vector<unsigned char> result_bytes(const std::vector<OpResult>& ops);
std::uint64_t fnv1a(const std::vector<unsigned char>& bytes);

// ---------------------------------------------------------------- sessions

// Set-up state of one workload at one seed: the generated inputs, one sweep
// engine per (thread count, reduced-model mode) and the H-tree graph. Its
// construction is what setup_s times.
class Session {
 public:
  Session(Workload workload, std::uint64_t seed);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const Inputs& inputs() const { return inputs_; }
  const rlcsim::graph::HTreeGraph* tree() const { return tree_.get(); }

  // The workload's calls, in order, at `threads` (1 or 2): one timed
  // repetition.
  std::vector<OpResult> run(std::size_t threads) const;

 private:
  Inputs inputs_;
  std::unique_ptr<rlcsim::sweep::SweepEngine> engine_[2];
  std::unique_ptr<rlcsim::sweep::SweepEngine> projecting_[2];
  std::unique_ptr<rlcsim::graph::HTreeGraph> tree_;
};

// ------------------------------------------------------------- references

// Output check against the workload's independent reference. Every checked
// delay must be within tolerance_pct of its reference; delay_err_max_pct is
// the largest error on the fixed sample whose inputs are the same at every
// seed (the grid points whose seeded coordinates are all range endpoints),
// so the metric moves with the program, not with the seed.
struct ReferenceCheck {
  double delay_err_max_pct = 0.0;  // on the fixed sample
  double delay_err_all_pct = 0.0;  // on every checked delay
  double noise_err_max_mv = 0.0;   // bus_crosstalk: peak-noise error, mV
  std::size_t sampled = 0;         // delays checked
  double tolerance_pct = 0.0;
  double noise_tolerance_mv = 0.0;
  bool pass = false;
  std::string detail;  // why a check failed
};
ReferenceCheck check_reference(const Session& session,
                               const std::vector<OpResult>& ops,
                               const std::string& reference_file);

// The bus_crosstalk reference: the sample points at 4x segments and dt/4,
// written as text lines "cc rtr pattern delay noise".
void write_bus_reference(std::FILE* out);

// -------------------------------------------------------------- measuring

// One timed repetition.
struct Rep {
  std::size_t threads = 0;
  double seconds = 0.0;          // wall time of the whole repetition
  std::size_t ok = 0;            // points returned, over all calls
  std::vector<OpResult> ops;
};

struct RepHooks {
  std::function<void(std::size_t threads)> before;
  std::function<void(const Rep& rep)> after;
  std::function<void()> between_pairs;  // untimed work between pairs
};

// Runs every call once, untimed, at 2 threads (the warm-up: its bytes are
// the reference), then timed repetitions in pairs, the same unit at 2 and
// then 1 thread, until the next pair would overrun `seconds` (at least 4
// pairs). Every repetition's result bytes must equal the warm-up's bytes.
struct Loop {
  std::vector<OpResult> warmup;
  std::vector<Rep> reps;
  bool identical = true;
  // Per-repetition rates (points/s) at `threads`.
  std::vector<double> rates(std::size_t threads) const;
  // Points returned per second of wall time in the fastest repetition at
  // `threads`. A shared host only ever slows a repetition down, in stretches
  // that last seconds; the best repetition moves least with them (README.md,
  // "Run-to-run spread").
  double throughput(std::size_t threads) const;
};
Loop timed_loop(const Session& session, double seconds, const RepHooks& hooks = {});

// The commit the results belong to, for benchutil::manifest_json_block:
// $RLCBENCH_GIT_SHA (run.py reads it from git at every run, since one build
// serves many commits), or "unknown".
const char* git_sha();

double median(std::vector<double> values);
double seconds_since(std::chrono::steady_clock::time_point start);
// Peak resident set of this process (VmHWM), MB.
double peak_rss_mb();
std::string json_escape(const std::string& text);

// ---------------------------------------------------------------- template

template <typename Call>
OpResult run_op(const char* name, std::size_t attempted, Call&& call) {
  OpResult op;
  op.name = name;
  op.attempted = attempted;
  const auto start = std::chrono::steady_clock::now();
  try {
    OBS_SPAN(name);
    call(op);
  } catch (const std::exception& error) {
    op.values.clear();
    op.detail.clear();
    op.error = error.what();
  }
  op.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start)
                   .count();
  for (double v : op.values)
    if (std::isfinite(v)) ++op.ok;
  if (op.ok > op.attempted) op.ok = op.attempted;
  return op;
}

}  // namespace rlcbench
