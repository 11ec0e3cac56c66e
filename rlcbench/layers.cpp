// Per-layer attribution, measured from outside the program.
//
// A traced run (RLCSIM_METRICS=1, RLCSIM_TRACE=<file>) of one workload:
//
//  1. the workload's timed loop, every entry-point call wrapped in a span
//     (run_op) and the program's own obs counters read before and after each
//     repetition, so work counts split by thread count;
//  2. replays of a fixed sample of the workload's real inputs through each
//     layer's public functions, every replay inside a "bench.layer.*" span,
//     which give the unit costs (us or ns per call);
//  3. derived figures: counts per point, hit and useful-work ratios, and
//     obs.attributed_frac = sum(count x unit cost) / wall at 1 thread.
//
// A layer the workload does not load reports 0 (README.md lists which).
#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/crosstalk.h"
#include "mor/moments.h"
#include "mor/reduce.h"
#include "mor/response.h"
#include "numeric/sparse.h"
#include "numeric/sparse_batch.h"
#include "workloads.h"
// The manifest's commit is read at run time (see git_sha in workloads.h).
#define RLCSIM_GIT_SHA rlcbench::git_sha()
#include "bench_util.h"
#include "obs/obs.h"
#include "repbus/optimize.h"
#include "repbus/stage_compose.h"
#include "runtime/thread_pool.h"
#include "sim/builders.h"
#include "sim/mna.h"
#include "sim/transient.h"
#include "sim/transient_batch.h"

namespace rlcbench {

using namespace rlcsim;

namespace {

// Grid points replayed per layer (spread evenly over the grid).
constexpr std::size_t kSamplePoints = 8;

const char* const kCounters[] = {
    "transient.steps", "transient.runs",      "lu.solves",
    "lu.numeric",      "lu.symbolic",         "cache.lu_dt.hits",
    "cache.lu_dt.misses", "pool.steals",      "pool.tasks_executed",
    "batch.refactors", "batch.lanes_refactored", "batch.solves",
    "batch.lanes",     "mor.pade_reductions", "mor.arnoldi_reductions",
    "graph.nodes_evaluated"};

using Counts = std::map<std::string, double>;

Counts read_counters() {
  Counts out;
  for (const char* name : kCounters)
    out[name] = static_cast<double>(obs::counter_total(name).value_or(0));
  return out;
}

// Work done by the repetitions at one thread count.
struct Totals {
  Counts counts;
  double wall = 0.0;
  std::size_t attempted = 0;
  std::size_t batched = 0, scalar = 0, ejected = 0;
  // Chain walks of the optimizer: three patterns per returned candidate
  // (repbus has no counter for them, so the returned candidates count).
  double composed_chains = 0.0;
  std::vector<double> sweep_seconds;  // per repetition
  double count(const char* name) const {
    const auto it = counts.find(name);
    return it == counts.end() ? 0.0 : it->second;
  }
};

// Median seconds per call of `fn` over `repeats` calls.
template <typename Fn>
double per_call(int repeats, Fn&& fn) {
  std::vector<double> samples;
  for (int r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    samples.push_back(seconds_since(start));
  }
  return median(samples);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

bool is_transient(Workload w) { return w != Workload::kAnalyticDesign; }
bool is_bus(Workload w) {
  return w == Workload::kBusCrosstalk || w == Workload::kAnalyticDesign;
}

// One sampled grid point as the program builds it.
struct Sampled {
  sim::Circuit circuit;
  std::string probe;  // the node whose 50% crossing is the delay
  sim::TransientOptions transient;
};

Sampled sample_point(const Inputs& in, std::size_t flat) {
  const sweep::Scenario s = in.grid.at(flat);
  Sampled out;
  if (is_bus(in.workload)) {
    const tline::CoupledBus bus = tline::make_bus(
        s.xtalk.bus_lines, s.system.line, s.xtalk.cc_ratio, s.xtalk.lm_ratio);
    const int victim = bus.victim_index();
    out.circuit = sim::build_coupled_bus(
        bus, core::pattern_drives(bus.lines, victim, s.xtalk.pattern, 0),
        s.system.driver_resistance, s.system.load_capacitance, in.options.segments);
    out.probe = "line" + std::to_string(victim) + ".out";
    out.transient.t_stop = sim::default_transient_horizon(
        {s.system.driver_resistance, bus.line_at(victim), s.system.load_capacitance});
  } else {
    out.circuit = sim::build_gate_line_load(s.system, in.options.segments);
    out.probe = "out";
    out.transient.t_stop = in.options.t_stop > 0.0
                               ? in.options.t_stop
                               : sim::default_transient_horizon(s.system);
    out.transient.dt = in.options.dt;
  }
  return out;
}

struct LayerFigures {
  std::map<std::string, double> values;
  void set(const std::string& name, double v) { values[name] = v; }
  double get(const std::string& name) const {
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  }
};

void replay_sim(const Inputs& in, const std::vector<std::size_t>& sample,
                LayerFigures& f) {
  std::vector<double> build, stamp;
  for (std::size_t flat : sample) {
    OBS_SPAN("bench.layer.sim.build");
    build.push_back(per_call(20, [&] { (void)sample_point(in, flat); }));
  }
  for (std::size_t flat : sample) {
    const Sampled p = sample_point(in, flat);
    OBS_SPAN("bench.layer.sim.stamp");
    stamp.push_back(per_call(20, [&] {
      const sim::MnaAssembler mna(p.circuit);
      std::vector<double> values;
      mna.system_values(1.0, values);
    }));
  }
  f.set("sim.build_us", 1e6 * median(build));
  f.set("sim.stamp_us", 1e6 * median(stamp));
  if (!is_transient(in.workload)) return;

  // Scalar transient per sampled point, as the sweep's scalar path runs it
  // (replaying one recorded symbolic factorization).
  std::vector<double> ms, record_mb;
  double steps = 0.0, useful = 0.0;
  sim::SolverReuse reuse;
  for (std::size_t flat : sample) {
    Sampled p = sample_point(in, flat);
    p.transient.reuse = &reuse;
    sim::TransientResult r;
    {
      OBS_SPAN("bench.layer.sim.transient");
      const auto start = std::chrono::steady_clock::now();
      r = sim::run_transient(p.circuit, p.transient);
      ms.push_back(1e3 * seconds_since(start));
    }
    const sim::WaveformSet& w = r.waveforms;
    const std::vector<double> v = w.trace(p.probe).value();
    const auto crossed =
        std::find_if(v.begin(), v.end(), [](double x) { return x >= 0.5; });
    steps += static_cast<double>(r.steps_taken);
    useful += static_cast<double>(crossed - v.begin());
    record_mb.push_back(8.0 * static_cast<double>(w.time().size()) *
                        static_cast<double>(1 + w.node_names().size()) / 1e6);
  }
  f.set("sim.transient_ms", median(ms));
  f.set("sim.useful_step_frac", ratio(useful, steps));
  f.set("sim.record_mb_per_point", median(record_mb));

  if (in.workload == Workload::kTable1Batched && sample.size() >= 8) {
    std::vector<sim::Circuit> tile;
    for (std::size_t k = 0; k < 8; ++k) tile.push_back(sample_point(in, sample[k]).circuit);
    sim::TransientOptions options = sample_point(in, sample[0]).transient;
    options.reuse = &reuse;
    OBS_SPAN("bench.layer.sim.batch_tile");
    f.set("sim.batch_tile_ms", 1e3 * per_call(5, [&] {
      (void)sim::run_batched_crossings(tile, "out", 0.5, options, "rlcbench");
    }));
  }
}

void replay_numeric(const Inputs& in, const std::vector<std::size_t>& sample,
                    LayerFigures& f) {
  // The workload's own matrix: G + (2/dt) C of the transient step, or G
  // alone for the moment generator of the reduced-model workload.
  const Sampled p = sample_point(in, sample.front());
  const sim::MnaAssembler mna(p.circuit);
  std::vector<double> values;
  if (is_transient(in.workload)) {
    const double dt = p.transient.dt > 0.0 ? p.transient.dt : p.transient.t_stop / 4000.0;
    mna.system_values(sim::MnaAssembler::transient_scale(dt, sim::Integrator::kTrapezoidal),
                      values);
  } else {
    mna.conductance_values(values);
  }
  const numeric::RealSparse a(mna.system_pattern(), values);
  std::unique_ptr<numeric::RealSparseLu> lu;
  {
    OBS_SPAN("bench.layer.numeric.lu_symbolic");
    f.set("numeric.lu_symbolic_us", 1e6 * per_call(20, [&] {
      lu = std::make_unique<numeric::RealSparseLu>(a);
    }));
  }
  {
    OBS_SPAN("bench.layer.numeric.lu_refactor");
    f.set("numeric.lu_refactor_us", 1e6 * per_call(50, [&] { lu->refactor(a); }));
  }
  const std::vector<double> b(lu->size(), 1.0);
  std::vector<double> x;
  constexpr int kSolves = 200;
  double solve_ns = 0.0;
  {
    OBS_SPAN("bench.layer.numeric.lu_solve");
    solve_ns = 1e9 / kSolves * per_call(11, [&] {
      for (int i = 0; i < kSolves; ++i) {
        x = b;
        lu->solve_in_place(x);
      }
    });
  }
  f.set("numeric.lu_solve_ns", solve_ns);
  // Computed, not counted: one multiply and one add per L/U nonzero.
  f.set("numeric.lu_solve_gflops", ratio(2.0 * static_cast<double>(lu->factor_nnz()), solve_ns));

  if (in.workload != Workload::kTable1Batched) return;
  for (std::size_t lanes : {std::size_t{4}, std::size_t{8}}) {
    numeric::BatchedValues lane_values(values.size(), lanes);
    numeric::BatchedValues rhs(lu->size(), lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      const sim::MnaAssembler lane_mna(sample_point(in, sample[l % sample.size()]).circuit);
      std::vector<double> v;
      lane_mna.system_values(
          sim::MnaAssembler::transient_scale(in.options.dt, sim::Integrator::kTrapezoidal), v);
      lane_values.set_lane(l, v);
      rhs.set_lane(l, b);
    }
    numeric::SparseLuBatch batch(*lu, lanes);
    const std::string suffix = lanes == 8 ? "" : "_w4";
    double refactor = 0.0, solve = 0.0;
    {
      OBS_SPAN("bench.layer.numeric.batch_refactor");
      refactor = per_call(50, [&] { batch.refactor(lane_values); });
    }
    {
      OBS_SPAN("bench.layer.numeric.batch_solve");
      numeric::BatchedValues y = rhs;
      solve = per_call(11, [&] {
        for (int i = 0; i < kSolves; ++i) {
          y = rhs;
          batch.solve_in_place(y);
        }
      }) / kSolves;
    }
    f.set("numeric.batch_refactor_ns_per_lane" + suffix, 1e9 * refactor / lanes);
    f.set("numeric.batch_solve_ns_per_lane" + suffix, 1e9 * solve / lanes);
  }
}

void replay_reduced(const Session& session, const std::vector<std::size_t>& sample,
                    LayerFigures& f) {
  const Inputs& in = session.inputs();
  // mor: the victim transfer of a sampled bus point.
  const sweep::Scenario s = in.grid.at(sample[sample.size() / 2]);
  const tline::CoupledBus bus = tline::make_bus(
      s.xtalk.bus_lines, s.system.line, s.xtalk.cc_ratio, s.xtalk.lm_ratio);
  const Sampled p = sample_point(in, sample[sample.size() / 2]);
  const sim::MnaAssembler mna(p.circuit);
  const mor::LinearSystem linear = mor::make_linear_system(mna, {p.probe});
  const int order = s.xtalk.reduction_order;
  {
    OBS_SPAN("bench.layer.mor.arnoldi");
    f.set("mor.arnoldi_us", 1e6 * per_call(20, [&] {
      (void)mor::arnoldi_reduce(linear, std::max(order, bus.lines));
    }));
  }
  const mor::MomentGenerator generator(linear);
  const std::vector<double> moments = generator.transfer_moments(
      linear.outputs[0], linear.inputs[static_cast<std::size_t>(bus.victim_index())],
      2 * order);
  const double max_delay = bus.line_at(bus.victim_index()).time_of_flight();
  mor::PoleResidueModel model;
  {
    OBS_SPAN("bench.layer.mor.reduce_transfer");
    f.set("mor.reduce_transfer_us", 1e6 * per_call(50, [&] {
      model = mor::reduce_transfer(moments, order, max_delay);
    }));
  }
  mor::AnalyticResponse response;
  response.add_step(model, 1.0);
  constexpr std::size_t kSamples = 4096;
  std::vector<double> times(kSamples), out(kSamples);
  const double horizon = response.suggested_horizon();
  for (std::size_t i = 0; i < kSamples; ++i) times[i] = horizon * i / kSamples;
  {
    OBS_SPAN("bench.layer.mor.response");
    f.set("mor.response_ns_per_sample", 1e9 / kSamples * per_call(20, [&] {
      response.values(times.data(), out.data(), kSamples);
    }));
  }

  // repbus: the optimizer's middle candidate (default grid, see workloads.cpp).
  repbus::RepeaterBusSpec spec;
  spec.bus = in.optimizer_bus;
  spec.buffer = in.buffer;
  const core::RepeaterDesign isolated =
      core::ismail_friedman_rlc(spec.bus.line_at(spec.bus.victim_index()), spec.buffer);
  spec.size = std::max(1.0, isolated.size);
  spec.sections = std::max(2, static_cast<int>(std::llround(isolated.sections)));
  spec.segments_per_section = repbus::OptimizerOptions{}.segments_per_section;
  repbus::StageModels models;
  {
    OBS_SPAN("bench.layer.repbus.stage_models");
    f.set("repbus.stage_models_ms", 1e3 * per_call(5, [&] {
      models = repbus::build_stage_models(spec, repbus::OptimizerOptions{}.order);
    }));
  }
  std::vector<double> compose;
  for (core::SwitchingPattern pattern :
       {core::SwitchingPattern::kSamePhase, core::SwitchingPattern::kOppositePhase,
        core::SwitchingPattern::kQuietVictim}) {
    OBS_SPAN("bench.layer.repbus.compose");
    compose.push_back(per_call(10, [&] {
      (void)repbus::compose_bus_chain(spec, pattern, models);
    }));
  }
  f.set("repbus.compose_us", 1e6 * median(compose));

  // graph: the workload's H-tree at one thread.
  OBS_SPAN("bench.layer.graph.evaluate");
  f.set("graph.ns_per_node",
        1e9 / static_cast<double>(session.tree()->graph.node_count()) *
            per_call(10, [&] { (void)session.tree()->graph.evaluate(1); }));
}

double dispatch_ns() {
  runtime::ThreadPool pool(2);
  constexpr std::size_t kTasks = 20000;
  OBS_SPAN("bench.layer.runtime.dispatch");
  return 1e9 / kTasks * per_call(7, [&] {
    pool.parallel_for(kTasks, [](std::size_t, std::size_t) {});
  });
}

}  // namespace

int layers_mode(Workload workload, std::uint64_t seed, double seconds) {
  const Session session(workload, seed);
  const Inputs& in = session.inputs();

  // 1. The timed loop, traced, with counter deltas per repetition.
  Totals at[3];  // indexed by thread count
  Counts before;
  RepHooks hooks;
  hooks.before = [&](std::size_t) { before = read_counters(); };
  hooks.after = [&](const Rep& rep) {
    Totals& t = at[rep.threads];
    for (const auto& [name, value] : read_counters())
      t.counts[name] += value - before[name];
    t.wall += rep.seconds;
    double sweep_s = 0.0;
    for (const OpResult& op : rep.ops) {
      t.attempted += op.attempted;
      const std::string name = op.name;
      if (name.rfind("bench.sweep.", 0) == 0) sweep_s += op.seconds;
      if (name == "bench.repbus.optimize_bus_repeaters")
        t.composed_chains += 3.0 * static_cast<double>(op.values.size());
      t.batched += op.batched_points;
      t.scalar += op.scalar_points;
      t.ejected += op.ejected_lanes;
    }
    t.sweep_seconds.push_back(sweep_s);
  };
  const Loop loop = timed_loop(session, seconds, hooks);
  const Totals& t1 = at[1];
  const Totals& t2 = at[2];

  // 2. Replays of sampled inputs through each layer.
  std::vector<std::size_t> sample;
  for (std::size_t k = 0; k < kSamplePoints; ++k)
    sample.push_back(k * in.grid.size() / kSamplePoints);
  LayerFigures f;
  f.set("runtime.dispatch_ns", dispatch_ns());
  replay_sim(in, sample, f);
  replay_numeric(in, sample, f);
  if (workload == Workload::kAnalyticDesign) replay_reduced(session, sample, f);

  // 3. Counts from the program's own counters, and derived figures.
  f.set("sweep.run_s", median(t1.sweep_seconds));
  f.set("sweep.batched_frac", ratio(t1.batched, t1.batched + t1.scalar));
  f.set("runtime.steals_per_task",
        ratio(t2.count("pool.steals"), t2.count("pool.tasks_executed")));
  f.set("sim.steps_per_point", ratio(t1.count("transient.steps"), t1.scalar));
  f.set("numeric.lu_solves_per_point",
        ratio(t1.count("lu.solves"), static_cast<double>(t1.attempted)));
  f.set("numeric.lu_solve_share",
        ratio(t1.count("lu.solves") * f.get("numeric.lu_solve_ns") * 1e-9, t1.wall));
  f.set("numeric.lu_dt_hit_frac",
        ratio(t1.count("cache.lu_dt.hits"),
              t1.count("cache.lu_dt.hits") + t1.count("cache.lu_dt.misses")));
  f.set("numeric.batch_ejected_lanes",
        ratio(static_cast<double>(t1.ejected), static_cast<double>(t1.sweep_seconds.size())));
  f.set("mor.reductions_per_point",
        ratio(t1.count("mor.pade_reductions") + t1.count("mor.arnoldi_reductions"),
              static_cast<double>(t1.attempted)));
  f.set("fail_frac", account(loop.warmup).fail_frac());

  // Attribution at 1 thread: leaf work counts times replayed unit costs.
  const double scalar_refactors = t1.count("lu.numeric") - t1.count("lu.symbolic") -
                                  t1.count("batch.lanes_refactored");
  const double built =
      t1.count("transient.runs") + t1.count("batch.lanes");
  const double attributed_ns =
      t1.count("lu.solves") * f.get("numeric.lu_solve_ns") +
      scalar_refactors * 1e3 * f.get("numeric.lu_refactor_us") +
      t1.count("lu.symbolic") * 1e3 * f.get("numeric.lu_symbolic_us") +
      built * 1e3 * (f.get("sim.build_us") + f.get("sim.stamp_us")) +
      t1.count("batch.lanes_refactored") * f.get("numeric.batch_refactor_ns_per_lane") +
      t1.count("batch.solves") * static_cast<double>(in.options.lanes) *
          f.get("numeric.batch_solve_ns_per_lane") +
      t1.count("mor.pade_reductions") * 1e3 * f.get("mor.reduce_transfer_us") +
      t1.count("mor.arnoldi_reductions") * 1e3 * f.get("mor.arnoldi_us") +
      t1.count("graph.nodes_evaluated") * f.get("graph.ns_per_node") +
      t1.composed_chains * 1e3 * f.get("repbus.compose_us");
  f.set("obs.attributed_frac", ratio(attributed_ns * 1e-9, t1.wall));

  static const std::map<std::string, const char*> kUnits = {
      {"sweep.run_s", "s"}, {"sweep.batched_frac", "ratio"},
      {"runtime.dispatch_ns", "ns"}, {"runtime.steals_per_task", "ratio"},
      {"sim.build_us", "us"}, {"sim.stamp_us", "us"}, {"sim.transient_ms", "ms"},
      {"sim.steps_per_point", "count"}, {"sim.useful_step_frac", "ratio"},
      {"sim.record_mb_per_point", "MB"}, {"sim.batch_tile_ms", "ms"},
      {"numeric.lu_symbolic_us", "us"}, {"numeric.lu_refactor_us", "us"},
      {"numeric.lu_solve_ns", "ns"}, {"numeric.lu_solve_gflops", "GFLOP/s"},
      {"numeric.lu_solves_per_point", "count"}, {"numeric.lu_solve_share", "ratio"},
      {"numeric.lu_dt_hit_frac", "ratio"},
      {"numeric.batch_refactor_ns_per_lane", "ns"},
      {"numeric.batch_solve_ns_per_lane", "ns"},
      {"numeric.batch_refactor_ns_per_lane_w4", "ns"},
      {"numeric.batch_solve_ns_per_lane_w4", "ns"},
      {"numeric.batch_ejected_lanes", "count"}, {"mor.arnoldi_us", "us"},
      {"mor.reduce_transfer_us", "us"}, {"mor.response_ns_per_sample", "ns"},
      {"mor.reductions_per_point", "count"}, {"repbus.stage_models_ms", "ms"},
      {"repbus.compose_us", "us"}, {"graph.ns_per_node", "ns"},
      {"obs.attributed_frac", "ratio"}, {"fail_frac", "ratio"}};

  const Accounting acc = account(loop.warmup);
  std::printf("{\n");
  benchutil::manifest_json_block("rlcbench");
  std::printf("  \"mode\": \"layers\", \"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g,\n",
              workload_name(workload), static_cast<unsigned long long>(seed), seconds);
  std::printf("  \"result_fnv\": \"%016llx\",\n",
              static_cast<unsigned long long>(fnv1a(result_bytes(loop.warmup))));
  std::printf("  \"traced_points_per_s\": %.6f, \"reps_t1\": %zu, \"reps_t2\": %zu,\n",
              loop.throughput(2), t1.sweep_seconds.size(), t2.sweep_seconds.size());
  std::printf("  \"counters_t1\": {");
  bool first = true;
  for (const auto& [name, value] : t1.counts) {
    std::printf("%s\"%s\": %.0f", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("},\n");
  std::printf("  \"correct\": %s, \"attempted\": %zu, \"failed\": %zu,\n",
              loop.identical ? "true" : "false", acc.attempted, acc.failed);
  std::printf("  \"metrics\": {\n");
  std::size_t i = 0;
  for (const auto& [name, unit] : kUnits)
    std::printf("    \"%s\": {\"value\": %.9g, \"unit\": \"%s\"}%s\n", name.c_str(),
                f.get(name), unit, ++i < kUnits.size() ? "," : "");
  std::printf("  }\n}\n");
  return loop.identical ? 0 : 1;
}

}  // namespace rlcbench
