#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/crosstalk.h"
#include "repbus/bus_chain.h"
#include "repbus/optimize.h"
#include "sim/builders.h"
#include "tline/step_response.h"

namespace rlcbench {

using namespace rlcsim;

namespace {

// Axis streams: one per seeded axis, so adding an axis never shifts the
// draws of another.
enum Stream : std::uint64_t {
  kTable1Driver = 1,
  kTable1Load = 2,
  kTable1Inductance = 3,
  kBusDriver = 4,
};

// Timed pairs per run, at least, however long a pair takes.
constexpr int kMinPairs = 4;

// The optimizer's default candidate grid (5 sizes x 3 section counts x 3
// placements, repbus::optimize_bus_repeaters defaults).
constexpr std::size_t kOptimizerCandidates = 45;
// Per candidate, the optimizer call's detail record holds: size, sections,
// placement, same-phase delay, opposite-phase delay, noise, area.
constexpr std::size_t kCandidateFields = 7;

// Output tolerances, percent (see README.md). The 25-segment ladder's error
// against the exact line peaks at 3.8% over the Table-1 box (a dense
// 37 x 10 x 61 scan, at per-point and at the batched shared horizon), so
// every seeded grid point must land within 5%.
constexpr double kTable1TolerancePct = 5.0;
constexpr double kBatchedTolerancePct = 5.0;
constexpr double kBusTolerancePct = 3.0;
// The 16-segment noise peaks are at most 9.2 mV off the 64-segment
// reference on the sample (Cc/Ct 0.4, Rtr 200, opposite phase: 24.0 vs
// 33.2 mV); the sample is the same at every seed.
constexpr double kBusNoiseToleranceMv = 10.0;
constexpr double kComposedTolerancePct = 3.0;  // bench/repbus_frontier's gate
constexpr double kReducedTolerancePct = 10.0;

sweep::SweepSpec table1_grid(std::uint64_t seed) {
  sweep::SweepSpec spec;
  spec.base.system = {500.0, {1000.0, 1e-7, 1e-12}, 0.5e-12};
  spec.axes = {
      sweep::values(sweep::Variable::kDriverResistance,
                    seeded_axis(100.0, 1000.0, 5, false, seed, kTable1Driver)),
      sweep::values(sweep::Variable::kLoadCapacitance,
                    seeded_axis(0.1e-12, 1e-12, 5, false, seed, kTable1Load)),
      sweep::values(sweep::Variable::kLineInductance,
                    seeded_axis(1e-8, 1e-6, 4, true, seed, kTable1Inductance)),
  };
  return spec;
}

// Cc/Ct and the switching phase are design-rule sets, not ranges, so they
// are the same at every seed; the driver range is seeded.
sweep::SweepSpec bus_grid(std::uint64_t seed) {
  sweep::SweepSpec spec;
  spec.base.system = {500.0, {1000.0, 1e-7, 1e-12}, 0.5e-12};
  spec.base.xtalk.bus_lines = 5;
  spec.base.xtalk.lm_ratio = 0.2;
  spec.axes = {
      sweep::values(sweep::Variable::kCouplingCapRatio, {0.0, 0.2, 0.4, 0.6}),
      sweep::values(sweep::Variable::kDriverResistance,
                    seeded_axis(200.0, 800.0, 4, false, seed, kBusDriver)),
      sweep::switching_patterns({core::SwitchingPattern::kSamePhase,
                                 core::SwitchingPattern::kOppositePhase}),
  };
  return spec;
}

// The graph_scaling H-tree at 6 levels (63 stages).
graph::HTreeSpec h_tree_spec() {
  graph::HTreeSpec spec;
  spec.levels = 6;
  spec.root_line = {150.0, 5e-10, 3e-13};
  spec.taper = 0.6;
  spec.buffer = {3000.0, 5e-15, 1.0, 0.0};
  spec.size = 32.0;
  spec.source_rise = 2e-11;
  spec.segments_per_branch = 8;
  spec.sink_capacitance = 2e-14;
  spec.sink_imbalance = 0.15;
  spec.order = 4;
  return spec;
}

void append(std::vector<unsigned char>& out, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  out.insert(out.end(), p, p + n);
}
void append(std::vector<unsigned char>& out, double v) { append(out, &v, sizeof v); }

OpResult sweep_op(const char* name, const sweep::SweepEngine& engine,
                  const sweep::SweepSpec& grid, sweep::Analysis analysis) {
  return run_op(name, grid.size(), [&](OpResult& op) {
    sweep::SweepResult r = engine.run(grid, analysis);
    op.values = std::move(r.values);
    op.batched_points = r.batched_points;
    op.scalar_points = r.scalar_points;
    op.ejected_lanes = r.ejected_lanes;
  });
}

const OpResult* find_op(const std::vector<OpResult>& ops, const char* name) {
  for (const OpResult& op : ops)
    if (std::strcmp(op.name, name) == 0) return &op;
  return nullptr;
}

double rel_err_pct(double value, double reference) {
  return 100.0 * std::fabs(value - reference) / std::fabs(reference);
}

bool is_endpoint(const std::vector<double>& axis, double v) {
  return v == axis.front() || v == axis.back();
}

// The bus_crosstalk reference sample: every grid point whose driver value is
// a range endpoint (those are pinned, so the sample is seed-independent).
std::vector<std::size_t> bus_sample(const sweep::SweepSpec& grid) {
  std::vector<std::size_t> sample;
  for (std::size_t i = 0; i < grid.size(); ++i)
    if (is_endpoint(grid.axes[1].values,
                    grid.axes[1].values[grid.indices(i)[1]]))
      sample.push_back(i);
  return sample;
}

core::CrosstalkOptions crosstalk_options(const sweep::Scenario& s, int segments) {
  core::CrosstalkOptions xt;
  xt.driver_resistance = s.system.driver_resistance;
  xt.load_capacitance = s.system.load_capacitance;
  xt.segments = segments;
  return xt;
}

tline::CoupledBus scenario_bus(const sweep::Scenario& s) {
  return tline::make_bus(s.xtalk.bus_lines, s.system.line, s.xtalk.cc_ratio,
                         s.xtalk.lm_ratio);
}

struct BusReferenceRow {
  double cc = 0.0, rtr = 0.0, pattern = 0.0, delay = 0.0, noise = 0.0;
};

std::vector<BusReferenceRow> read_bus_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open reference file " + path);
  std::vector<BusReferenceRow> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    BusReferenceRow r;
    if (!(fields >> r.cc >> r.rtr >> r.pattern >> r.delay >> r.noise))
      throw std::runtime_error("malformed reference line: " + line);
    rows.push_back(r);
  }
  return rows;
}

}  // namespace

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kTable1Sweep: return "table1_sweep";
    case Workload::kTable1Batched: return "table1_batched";
    case Workload::kBusCrosstalk: return "bus_crosstalk";
    case Workload::kAnalyticDesign: return "analytic_design";
  }
  return "unknown";
}

std::optional<Workload> parse_workload(const std::string& name) {
  for (Workload w : kAllWorkloads)
    if (name == workload_name(w)) return w;
  return std::nullopt;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double unit_draw(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  const std::uint64_t key =
      splitmix64(splitmix64(seed) ^ splitmix64(stream << 32 | index));
  return static_cast<double>(key >> 11) * 0x1.0p-53;  // [0, 1)
}

std::vector<double> seeded_axis(double lo, double hi, int points, bool log,
                                std::uint64_t seed, std::uint64_t stream) {
  if (points < 2 || !(hi > lo) || (log && !(lo > 0.0)))
    throw std::invalid_argument("seeded_axis: need points >= 2 and lo < hi");
  const double a = log ? std::log(lo) : lo;
  const double b = log ? std::log(hi) : hi;
  const double step = (b - a) / (points - 1);
  std::vector<double> axis(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i) {
    double u = a + step * i;
    if (seed != 0 && i > 0 && i + 1 < points)
      u += step * 0.8 * (unit_draw(seed, stream, static_cast<std::uint64_t>(i)) - 0.5);
    axis[static_cast<std::size_t>(i)] = log ? std::exp(u) : u;
  }
  axis.front() = lo;
  axis.back() = hi;
  return axis;
}

Inputs make_inputs(Workload workload, std::uint64_t seed) {
  Inputs in;
  in.workload = workload;
  switch (workload) {
    case Workload::kTable1Sweep:
      in.grid = table1_grid(seed);
      in.options.segments = 25;
      break;
    case Workload::kTable1Batched:
      in.grid = table1_grid(seed);
      in.options.segments = 25;
      for (std::size_t i = 0; i < in.grid.size(); ++i)
        in.options.t_stop =
            std::max(in.options.t_stop,
                     sim::default_transient_horizon(in.grid.at(i).system));
      in.options.dt = in.options.t_stop / 4000.0;
      in.options.lanes = 8;
      break;
    case Workload::kBusCrosstalk:
      in.grid = bus_grid(seed);
      in.options.segments = 16;
      break;
    case Workload::kAnalyticDesign:
      in.grid = bus_grid(seed);
      in.options.segments = 16;
      in.optimizer_bus = tline::make_bus(5, {500.0, 1e-8, 1e-12}, 0.4, 0.25);
      in.buffer = {3000.0, 5e-15, 1.0, 0.0};
      in.tree = h_tree_spec();
      break;
  }
  return in;
}

std::vector<unsigned char> input_bytes(const Inputs& in) {
  std::vector<unsigned char> out;
  const tline::GateLineLoad& s = in.grid.base.system;
  for (double v : {s.driver_resistance, s.line.total_resistance,
                   s.line.total_inductance, s.line.total_capacitance,
                   s.load_capacitance, in.grid.base.xtalk.lm_ratio,
                   static_cast<double>(in.grid.base.xtalk.bus_lines)})
    append(out, v);
  for (const sweep::Axis& axis : in.grid.axes) {
    append(out, static_cast<double>(static_cast<int>(axis.variable)));
    for (double v : axis.values) append(out, v);
  }
  for (double v : {static_cast<double>(in.options.segments), in.options.t_stop,
                   in.options.dt, static_cast<double>(in.options.lanes)})
    append(out, v);
  if (in.workload == Workload::kAnalyticDesign) {
    const tline::CoupledBus& bus = in.optimizer_bus;
    for (double v : {static_cast<double>(bus.lines), bus.line.total_resistance,
                     bus.line.total_inductance, bus.line.total_capacitance,
                     bus.coupling_capacitance, in.buffer.r0, in.buffer.c0,
                     static_cast<double>(in.tree.levels),
                     in.tree.root_line.total_resistance,
                     in.tree.root_line.total_inductance,
                     in.tree.root_line.total_capacitance, in.tree.taper})
      append(out, v);
  }
  return out;
}

Accounting account(const std::vector<OpResult>& ops) {
  Accounting a;
  for (const OpResult& op : ops) {
    a.attempted += op.attempted;
    a.failed += op.attempted - op.ok;
  }
  return a;
}

std::vector<unsigned char> result_bytes(const std::vector<OpResult>& ops) {
  std::vector<unsigned char> out;
  for (const OpResult& op : ops) {
    append(out, op.name, std::strlen(op.name) + 1);
    append(out, op.values.data(), op.values.size() * sizeof(double));
    append(out, op.detail.data(), op.detail.size() * sizeof(double));
    append(out, op.error.c_str(), op.error.size() + 1);
  }
  return out;
}

std::uint64_t fnv1a(const std::vector<unsigned char>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

// ------------------------------------------------------------------ session

Session::Session(Workload workload, std::uint64_t seed)
    : inputs_(make_inputs(workload, seed)) {
  inputs_.grid.validate();
  for (std::size_t t = 0; t < 2; ++t) {
    sweep::EngineOptions options = inputs_.options;
    options.threads = t + 1;
    engine_[t] = std::make_unique<sweep::SweepEngine>(options);
    if (workload == Workload::kAnalyticDesign) {
      options.reuse_projection = true;
      projecting_[t] = std::make_unique<sweep::SweepEngine>(options);
    }
  }
  if (workload == Workload::kAnalyticDesign)
    tree_ = std::make_unique<graph::HTreeGraph>(graph::build_h_tree(inputs_.tree));
}

Session::~Session() = default;

std::vector<OpResult> Session::run(std::size_t threads) const {
  const std::size_t slot = threads > 1 ? 1 : 0;
  const sweep::SweepEngine& engine = *engine_[slot];
  std::vector<OpResult> ops;
  switch (inputs_.workload) {
    case Workload::kTable1Sweep:
    case Workload::kTable1Batched:
      ops.push_back(sweep_op("bench.sweep.transient_delay", engine, inputs_.grid,
                             sweep::Analysis::kTransientDelay));
      break;
    case Workload::kBusCrosstalk:
      ops.push_back(sweep_op("bench.sweep.crosstalk_delay", engine, inputs_.grid,
                             sweep::Analysis::kCrosstalkDelay));
      ops.push_back(sweep_op("bench.sweep.crosstalk_noise", engine, inputs_.grid,
                             sweep::Analysis::kCrosstalkNoise));
      break;
    case Workload::kAnalyticDesign: {
      ops.push_back(sweep_op("bench.sweep.reduced_delay", engine, inputs_.grid,
                             sweep::Analysis::kReducedDelay));
      ops.push_back(sweep_op("bench.sweep.reduced_delay_projected", *projecting_[slot],
                             inputs_.grid, sweep::Analysis::kReducedDelay));
      ops.push_back(run_op(
          "bench.repbus.optimize_bus_repeaters", kOptimizerCandidates, [&](OpResult& op) {
            const repbus::BusOptimizationResult r = repbus::optimize_bus_repeaters(
                inputs_.optimizer_bus, inputs_.buffer, {}, engine);
            for (const repbus::BusDesignEval& e : r.evaluations) {
              op.values.push_back(e.worst_delay);
              for (double v : {e.size, static_cast<double>(e.sections),
                               static_cast<double>(static_cast<int>(e.placement)),
                               e.same_phase_delay, e.opposite_phase_delay,
                               e.noise, e.area})
                op.detail.push_back(v);
            }
          }));
      ops.push_back(run_op(
          "bench.graph.evaluate", tree_->stage_nodes.size(), [&](OpResult& op) {
            const graph::GraphResult r = tree_->graph.evaluate(threads);
            for (const graph::NodeMetrics& node : r.nodes) {
              op.detail.push_back(static_cast<double>(node.arrival.size()));
              double latest = -HUGE_VAL;
              for (double a : node.arrival) {
                latest = std::isfinite(a) ? std::max(latest, a) : NAN;
                op.detail.push_back(a);
              }
              for (const std::optional<double>& s : node.slew)
                op.detail.push_back(s.value_or(NAN));
              op.detail.push_back(node.peak_noise);
              op.values.push_back(latest);
            }
          }));
      break;
    }
  }
  return ops;
}

// --------------------------------------------------------------- references

ReferenceCheck check_reference(const Session& session,
                               const std::vector<OpResult>& ops,
                               const std::string& reference_file) {
  const Inputs& in = session.inputs();
  const sweep::SweepSpec& grid = in.grid;
  ReferenceCheck check;
  check.pass = true;
  auto fail = [&](const std::string& why) {
    check.pass = false;
    if (check.detail.empty()) check.detail = why;
  };
  auto compare_delay = [&](double value, double reference, double tolerance,
                           const std::string& where, bool fixed_sample = true) {
    const double err = rel_err_pct(value, reference);
    if (fixed_sample) check.delay_err_max_pct = std::max(check.delay_err_max_pct, err);
    check.delay_err_all_pct = std::max(check.delay_err_all_pct, err);
    ++check.sampled;
    if (!(err <= tolerance))
      fail(where + ": delay error " + std::to_string(err) + "% > " +
           std::to_string(tolerance) + "%");
  };

  switch (in.workload) {
    case Workload::kTable1Sweep:
    case Workload::kTable1Batched: {
      // The exact distributed line (Laplace inversion) at every grid point.
      check.tolerance_pct = in.workload == Workload::kTable1Sweep
                                ? kTable1TolerancePct
                                : kBatchedTolerancePct;
      const OpResult& op = ops.front();
      if (op.values.size() != grid.size()) {
        fail("transient sweep returned no values: " + op.error);
        break;
      }
      for (std::size_t i = 0; i < grid.size(); ++i) {
        const std::vector<std::size_t> idx = grid.indices(i);
        bool corner = true;
        for (std::size_t a = 0; a < grid.axes.size(); ++a)
          corner = corner && is_endpoint(grid.axes[a].values, grid.axes[a].values[idx[a]]);
        compare_delay(op.values[i], tline::threshold_delay(grid.at(i).system),
                      check.tolerance_pct, "point " + std::to_string(i), corner);
      }
      break;
    }
    case Workload::kBusCrosstalk: {
      // The committed 4x-segment, dt/4 reference (write_bus_reference).
      check.tolerance_pct = kBusTolerancePct;
      check.noise_tolerance_mv = kBusNoiseToleranceMv;
      const OpResult* delay = find_op(ops, "bench.sweep.crosstalk_delay");
      const OpResult* noise = find_op(ops, "bench.sweep.crosstalk_noise");
      if (delay->values.size() != grid.size() ||
          noise->values.size() != grid.size()) {
        fail("crosstalk sweep returned no values: " + delay->error + noise->error);
        break;
      }
      std::vector<BusReferenceRow> rows;
      try {
        rows = read_bus_reference(reference_file);
      } catch (const std::exception& error) {
        fail(error.what());
        break;
      }
      for (std::size_t i : bus_sample(grid)) {
        const sweep::Scenario s = grid.at(i);
        const double pattern = static_cast<int>(s.xtalk.pattern);
        const auto row = std::find_if(rows.begin(), rows.end(), [&](const auto& r) {
          return r.cc == s.xtalk.cc_ratio && r.rtr == s.system.driver_resistance &&
                 r.pattern == pattern;
        });
        if (row == rows.end()) {
          fail("reference file has no row for point " + std::to_string(i));
          continue;
        }
        compare_delay(delay->values[i], row->delay, check.tolerance_pct,
                      "point " + std::to_string(i));
        const double noise_mv = 1e3 * std::fabs(noise->values[i] - row->noise);
        check.noise_err_max_mv = std::max(check.noise_err_max_mv, noise_mv);
        if (!(noise_mv <= check.noise_tolerance_mv))
          fail("point " + std::to_string(i) + ": noise error " +
               std::to_string(noise_mv) + " mV");
      }
      break;
    }
    case Workload::kAnalyticDesign: {
      check.tolerance_pct = kComposedTolerancePct;
      // H-tree sinks against the flat full-MNA oracle.
      // H-tree sinks against the flat full-MNA oracle. The returned arrivals
      // sit in the op's detail record, node by node (output count, arrivals,
      // slews, noise).
      const OpResult* tree_op = find_op(ops, "bench.graph.evaluate");
      if (tree_op->ok != tree_op->attempted) {
        fail("graph evaluate failed: " + tree_op->error);
        break;
      }
      const graph::HTreeGraph& tree = *session.tree();
      std::vector<std::size_t> node_offset;  // of each node's first arrival
      for (std::size_t offset = 0; offset < tree_op->detail.size();) {
        const auto outputs = static_cast<std::size_t>(tree_op->detail[offset]);
        node_offset.push_back(offset + 1);
        offset += 2 * outputs + 2;
      }
      const graph::HTreeComparison oracle = graph::compare_h_tree(in.tree, 1);
      for (std::size_t k = 0; k < tree.sinks.size(); ++k) {
        const graph::Pin pin = tree.sinks[k];
        compare_delay(tree_op->detail[node_offset[static_cast<std::size_t>(pin.node)] +
                                      static_cast<std::size_t>(pin.output)],
                      oracle.mna_arrival[k], check.tolerance_pct,
                      "h-tree sink " + std::to_string(k));
      }
      // Optimizer candidates (first, middle, last) against full-MNA chains.
      const OpResult* opt = find_op(ops, "bench.repbus.optimize_bus_repeaters");
      if (opt->values.size() != kOptimizerCandidates) {
        fail("optimizer returned no candidates: " + opt->error);
        break;
      }
      for (std::size_t c : {std::size_t{0}, kOptimizerCandidates / 2,
                            kOptimizerCandidates - 1}) {
        const double* d = &opt->detail[kCandidateFields * c];
        repbus::RepeaterBusSpec spec;
        spec.bus = in.optimizer_bus;
        spec.size = d[0];
        spec.sections = static_cast<int>(d[1]);
        spec.placement = static_cast<repbus::Placement>(static_cast<int>(d[2]));
        spec.buffer = in.buffer;
        spec.segments_per_section = repbus::OptimizerOptions{}.segments_per_section;
        const auto same = repbus::simulate_bus_chain(spec, core::SwitchingPattern::kSamePhase);
        const auto opposite =
            repbus::simulate_bus_chain(spec, core::SwitchingPattern::kOppositePhase);
        compare_delay(d[3], same.victim_delay_50.value(), check.tolerance_pct,
                      "candidate " + std::to_string(c) + " same phase");
        compare_delay(d[4], opposite.victim_delay_50.value(), check.tolerance_pct,
                      "candidate " + std::to_string(c) + " opposite phase");
      }
      // Reduced-model points, whenever a reduced sweep returns them. Today
      // both sweeps throw at every seed, so these points stay out of the
      // fixed sample: a change that makes them return must not read as a
      // worse delay_err_max_pct. They are still held to the tolerance.
      for (const char* name : {"bench.sweep.reduced_delay", "bench.sweep.reduced_delay_projected"}) {
        const OpResult* reduced = find_op(ops, name);
        if (reduced->values.size() != grid.size()) continue;
        for (std::size_t i : bus_sample(grid)) {
          const sweep::Scenario s = grid.at(i);
          const core::CrosstalkMetrics full = core::analyze_crosstalk(
              scenario_bus(s), s.xtalk.pattern, crosstalk_options(s, in.options.segments));
          compare_delay(reduced->values[i], full.victim_delay_50.value(),
                        kReducedTolerancePct,
                        std::string(name) + " point " + std::to_string(i),
                        /*fixed_sample=*/false);
        }
      }
      break;
    }
  }
  return check;
}

void write_bus_reference(std::FILE* out) {
  const sweep::SweepSpec grid = bus_grid(0);
  std::fprintf(out,
               "# bus_crosstalk reference: 5-line bus, Lm/Lt 0.2, 64 segments "
               "per line, dt = default horizon / 16000\n"
               "# cc_ratio driver_ohm pattern victim_delay_s peak_noise_v\n");
  for (std::size_t i : bus_sample(grid)) {
    const sweep::Scenario s = grid.at(i);
    core::CrosstalkOptions xt = crosstalk_options(s, 64);
    const tline::CoupledBus bus = scenario_bus(s);
    xt.dt = sim::default_transient_horizon(
                {s.system.driver_resistance, bus.line_at(bus.victim_index()),
                 s.system.load_capacitance}) /
            16000.0;
    const core::CrosstalkMetrics m = core::analyze_crosstalk(bus, s.xtalk.pattern, xt);
    std::fprintf(out, "%.17g %.17g %d %.17g %.17g\n", s.xtalk.cc_ratio,
                 s.system.driver_resistance, static_cast<int>(s.xtalk.pattern),
                 m.victim_delay_50.value(), m.peak_noise);
    std::fflush(out);
  }
}

// ---------------------------------------------------------------- measuring

std::vector<double> Loop::rates(std::size_t threads) const {
  std::vector<double> out;
  for (const Rep& rep : reps)
    if (rep.threads == threads) out.push_back(static_cast<double>(rep.ok) / rep.seconds);
  return out;
}

double Loop::throughput(std::size_t threads) const {
  const std::vector<double> all = rates(threads);
  return all.empty() ? 0.0 : *std::max_element(all.begin(), all.end());
}

Loop timed_loop(const Session& session, double seconds, const RepHooks& hooks) {
  Loop loop;
  loop.warmup = session.run(2);
  const std::vector<unsigned char> reference = result_bytes(loop.warmup);
  const auto start = std::chrono::steady_clock::now();
  for (int pairs = 1;; ++pairs) {
    if (hooks.between_pairs) hooks.between_pairs();
    const auto pair_start = std::chrono::steady_clock::now();
    for (std::size_t threads : {std::size_t{2}, std::size_t{1}}) {
      if (hooks.before) hooks.before(threads);
      const auto rep_start = std::chrono::steady_clock::now();
      Rep rep;
      rep.threads = threads;
      rep.ops = session.run(threads);
      rep.seconds = seconds_since(rep_start);
      for (const OpResult& op : rep.ops) rep.ok += op.ok;
      if (hooks.after) hooks.after(rep);
      loop.identical = loop.identical && result_bytes(rep.ops) == reference;
      loop.reps.push_back(std::move(rep));
    }
    const double pair_seconds = seconds_since(pair_start);
    if (pairs >= kMinPairs && seconds_since(start) + pair_seconds > seconds) break;
  }
  return loop;
}

const char* git_sha() {
  const char* sha = std::getenv("RLCBENCH_GIT_SHA");
  return sha && *sha ? sha : "unknown";
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB (KiB) -> MB
  return 0.0;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace rlcbench
