#include "sweep/sweep.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "core/delay_model.h"
#include "core/two_pole.h"
#include "numeric/fp_env.h"
#include "numeric/sparse.h"
#include "numeric/sparse_batch.h"
#include "obs/obs.h"
#include "repbus/stage_compose.h"
#include "runtime/thread_pool.h"
#include "sim/ac.h"
#include "sim/builders.h"
#include "sim/transient_batch.h"

namespace rlcsim::sweep {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

void apply_variable(Variable variable, double value, Scenario& scenario,
                    const tline::PerUnitLength& per_length) {
  switch (variable) {
    case Variable::kLineResistance:
      scenario.system.line.total_resistance = value;
      break;
    case Variable::kLineInductance:
      scenario.system.line.total_inductance = value;
      break;
    case Variable::kLineCapacitance:
      scenario.system.line.total_capacitance = value;
      break;
    case Variable::kLineLength:
      scenario.system.line = tline::make_line(per_length, value);
      break;
    case Variable::kDriverResistance:
      scenario.system.driver_resistance = value;
      break;
    case Variable::kLoadCapacitance:
      scenario.system.load_capacitance = value;
      break;
    case Variable::kRepeaterSize:
      scenario.design.size = value;
      break;
    case Variable::kRepeaterSections:
      scenario.design.sections = value;
      break;
    case Variable::kBusLines:
      scenario.xtalk.bus_lines = static_cast<int>(value);
      break;
    case Variable::kCouplingCapRatio:
      scenario.xtalk.cc_ratio = value;
      break;
    case Variable::kMutualRatio:
      scenario.xtalk.lm_ratio = value;
      break;
    case Variable::kSwitchingPattern:
      scenario.xtalk.pattern =
          static_cast<core::SwitchingPattern>(static_cast<int>(value));
      break;
    case Variable::kShieldEvery:
      scenario.xtalk.shield_every = static_cast<int>(value);
      break;
    case Variable::kReductionOrder:
      scenario.xtalk.reduction_order = static_cast<int>(value);
      break;
    case Variable::kStaggerMode:
      scenario.xtalk.stagger_mode = static_cast<int>(value);
      break;
  }
}

// The coupled bus and crosstalk options of one resolved scenario — shared
// by the crosstalk/reduced/projected/repeater-bus analyses and by run()'s
// projection-basis seeding, so they can never disagree.
tline::CoupledBus scenario_bus(const Scenario& scenario) {
  const CrosstalkScenario& x = scenario.xtalk;
  return tline::make_bus(x.bus_lines, scenario.system.line, x.cc_ratio,
                         x.lm_ratio);
}
core::CrosstalkOptions scenario_crosstalk_options(const Scenario& scenario,
                                                  const EngineOptions& options,
                                                  sim::SolverReuse* reuse) {
  core::CrosstalkOptions xt;
  xt.driver_resistance = scenario.system.driver_resistance;
  xt.load_capacitance = scenario.system.load_capacitance;
  xt.segments = options.segments;
  xt.shield_every = scenario.xtalk.shield_every;
  xt.t_stop = options.t_stop;
  xt.dt = options.dt;
  xt.solver = options.solver;
  xt.reuse = reuse;
  return xt;
}

constexpr const char* kTransientContext = "SweepEngine transient_delay";

// The TransientOptions of every sweep transient, a scalar point's and a
// tile's alike: a tile runs with the options each of its lanes' scalar runs
// would use, which is what keeps the two paths bit-identical. The horizon
// is the engine's t_stop, else the scenario's default.
sim::TransientOptions transient_options(const Scenario& scenario,
                                        const EngineOptions& options,
                                        sim::SolverReuse* reuse) {
  sim::TransientOptions transient;
  transient.t_stop = options.t_stop > 0.0
                         ? options.t_stop
                         : sim::default_transient_horizon(scenario.system);
  transient.dt = options.dt;
  transient.solver = options.solver;
  transient.reuse = reuse;
  return transient;
}

// Tile membership for batched transient sweeps: `points` ordered by their
// closed-form eq. 9 delay (stable, so ties keep index order). Each lane
// retires at its own crossing and a tile ends with its slowest lane, so
// lanes of similar delay finish together. Membership changes no result
// bit: every lane is bit-identical to its scalar run. A point eq. 9 does
// not cover (an RC line, Lt = 0, which the ladder simulates fine) sorts
// last.
void sort_by_closed_form_delay(const SweepSpec& spec, const EngineOptions& options,
                               std::vector<std::size_t>& points) {
  std::vector<double> key(spec.size(), kInf);
  for (std::size_t i : points) {
    try {
      const double delay = core::rlc_delay(spec.at(i).system, options.fit);
      if (!std::isnan(delay)) key[i] = delay;
    } catch (const std::invalid_argument&) {
      // keeps kInf: the point sorts last
    }
  }
  std::stable_sort(points.begin(), points.end(),
                   [&](std::size_t a, std::size_t b) { return key[a] < key[b]; });
}

// `reference` marks point 0, evaluated on the calling thread to seed
// `reuse` for every worker (SweepEngine::run).
double evaluate_point(const Scenario& scenario, Analysis analysis,
                      const EngineOptions& options, sim::SolverReuse* reuse,
                      const mor::ArnoldiBasis* basis, bool reference) {
  switch (analysis) {
    case Analysis::kClosedFormDelay:
      return core::rlc_delay(scenario.system, options.fit);
    case Analysis::kTwoPoleDelay:
      return core::TwoPoleModel(scenario.system).threshold_delay(0.5);
    case Analysis::kTransientDelay:
      return sim::run_until_crossing(
                 sim::build_gate_line_load(scenario.system, options.segments), "out",
                 0.5, transient_options(scenario, options, reuse), kTransientContext)
          .crossing;
    case Analysis::kAcBandwidth: {
      const sim::Circuit circuit =
          sim::build_gate_line_load(scenario.system, options.segments);
      // "No -3 dB crossing inside the scan window" is recorded as absent
      // (NaN, the grid's uncomputed value), never as a 0 Hz sentinel.
      return sim::bandwidth_3db(circuit, "vsrc", "out", options.ac_f_lo,
                                options.ac_f_hi)
          .value_or(kNaN);
    }
    case Analysis::kRepeaterDelay:
      return core::total_delay(scenario.system.line, scenario.buffer,
                               scenario.design, options.fit);
    case Analysis::kRepeaterOptimum:
      // Serial per point by design: optimum points are themselves grid
      // points of an outer parallel sweep, so a nested parallel batch here
      // would only fight the pool (nested parallel_for degrades to inline).
      return core::optimize(scenario.system.line, scenario.buffer, options.fit,
                            /*min_sections=*/1.0)
          .continuous_delay;
    case Analysis::kCrosstalkDelay:
    case Analysis::kCrosstalkNoise:
    case Analysis::kCrosstalkPushout:
    case Analysis::kReducedDelay:
    case Analysis::kReducedNoise: {
      const CrosstalkScenario& x = scenario.xtalk;
      const tline::CoupledBus bus = scenario_bus(scenario);
      const core::CrosstalkOptions xt =
          scenario_crosstalk_options(scenario, options, reuse);
      if (analysis == Analysis::kReducedDelay ||
          analysis == Analysis::kReducedNoise) {
        // Basis-reuse sweeps (EngineOptions::reuse_projection) re-evaluate
        // the recorded nominal projection; otherwise a fresh per-point
        // reduction over the shared symbolic G factorization.
        const core::CrosstalkMetrics m =
            basis ? core::analyze_crosstalk_projected(bus, x.pattern, xt, *basis)
                  : core::analyze_crosstalk_reduced(bus, x.pattern, xt,
                                                    x.reduction_order);
        return analysis == Analysis::kReducedNoise
                   ? m.peak_noise
                   : m.victim_delay_50.value_or(kNaN);
      }
      // Delay and push-out stop at the victim's crossing; a quiet victim
      // has none, so its delay points simulate nothing. The reference point
      // still runs the window: its factorizations seed every worker.
      const bool quiet = x.pattern == core::SwitchingPattern::kQuietVictim;
      const sim::CrossingWindow window =
          analysis == Analysis::kCrosstalkNoise || (quiet && reference)
              ? sim::CrossingWindow::kFullWindow
              : sim::CrossingWindow::kStopAtCrossing;
      const core::CrosstalkMetrics m =
          core::analyze_crosstalk(bus, x.pattern, xt, window);
      if (analysis == Analysis::kCrosstalkNoise) return m.peak_noise;
      // Quiet-victim delays are absent, recorded as NaN (never 0).
      return analysis == Analysis::kCrosstalkDelay
                 ? m.victim_delay_50.value_or(kNaN)
                 : m.delay_pushout.value_or(kNaN);
    }
    case Analysis::kBusRepeaterDelay:
    case Analysis::kBusRepeaterNoise: {
      const CrosstalkScenario& x = scenario.xtalk;
      // A kStaggerMode axis is range-checked by SweepSpec::validate, but a
      // bad BASE scenario would otherwise cast to an out-of-range enum and
      // silently behave as kUniform.
      if (x.stagger_mode < 0 || x.stagger_mode > 2)
        throw std::invalid_argument(
            "SweepEngine: stagger_mode must be 0, 1, or 2 (repbus::Placement)");
      repbus::RepeaterBusSpec spec;
      spec.bus = scenario_bus(scenario);
      spec.sections = std::max(
          1, static_cast<int>(std::llround(scenario.design.sections)));
      spec.size = scenario.design.size;
      spec.buffer = scenario.buffer;
      spec.placement = static_cast<repbus::Placement>(x.stagger_mode);
      spec.segments_per_section = options.segments;
      spec.shield_every = x.shield_every;
      const repbus::ComposedChainMetrics m = repbus::compose_bus_chain(
          spec, x.pattern, x.reduction_order,
          reuse ? &reuse->conductance : nullptr);
      return analysis == Analysis::kBusRepeaterNoise
                 ? m.peak_noise
                 : m.victim_delay_50.value_or(kNaN);
    }
  }
  throw std::invalid_argument("SweepEngine: unknown analysis");
}

}  // namespace

const char* variable_name(Variable variable) {
  switch (variable) {
    case Variable::kLineResistance: return "line_resistance";
    case Variable::kLineInductance: return "line_inductance";
    case Variable::kLineCapacitance: return "line_capacitance";
    case Variable::kLineLength: return "line_length";
    case Variable::kDriverResistance: return "driver_resistance";
    case Variable::kLoadCapacitance: return "load_capacitance";
    case Variable::kRepeaterSize: return "repeater_size";
    case Variable::kRepeaterSections: return "repeater_sections";
    case Variable::kBusLines: return "bus_lines";
    case Variable::kCouplingCapRatio: return "coupling_cap_ratio";
    case Variable::kMutualRatio: return "mutual_ratio";
    case Variable::kSwitchingPattern: return "switching_pattern";
    case Variable::kShieldEvery: return "shield_every";
    case Variable::kReductionOrder: return "reduction_order";
    case Variable::kStaggerMode: return "stagger_mode";
  }
  return "unknown";
}

const char* analysis_name(Analysis analysis) {
  switch (analysis) {
    case Analysis::kClosedFormDelay: return "closed_form_delay";
    case Analysis::kTwoPoleDelay: return "two_pole_delay";
    case Analysis::kTransientDelay: return "transient_delay";
    case Analysis::kAcBandwidth: return "ac_bandwidth";
    case Analysis::kRepeaterDelay: return "repeater_delay";
    case Analysis::kRepeaterOptimum: return "repeater_optimum";
    case Analysis::kCrosstalkDelay: return "crosstalk_delay";
    case Analysis::kCrosstalkNoise: return "crosstalk_noise";
    case Analysis::kCrosstalkPushout: return "crosstalk_pushout";
    case Analysis::kReducedDelay: return "reduced_delay";
    case Analysis::kReducedNoise: return "reduced_noise";
    case Analysis::kBusRepeaterDelay: return "bus_repeater_delay";
    case Analysis::kBusRepeaterNoise: return "bus_repeater_noise";
  }
  return "unknown";
}

Axis linspace(Variable variable, double lo, double hi, int points) {
  if (points < 2) throw std::invalid_argument("sweep::linspace: points must be >= 2");
  Axis axis{variable, {}};
  axis.values.reserve(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i)
    axis.values.push_back(lo + (hi - lo) * i / (points - 1));
  return axis;
}

Axis logspace(Variable variable, double lo, double hi, int points) {
  if (points < 2) throw std::invalid_argument("sweep::logspace: points must be >= 2");
  if (!(lo > 0.0) || !(hi > lo))
    throw std::invalid_argument("sweep::logspace: need 0 < lo < hi");
  Axis axis{variable, {}};
  axis.values.reserve(static_cast<std::size_t>(points));
  const double llo = std::log(lo), lhi = std::log(hi);
  for (int i = 0; i < points; ++i)
    axis.values.push_back(std::exp(llo + (lhi - llo) * i / (points - 1)));
  return axis;
}

Axis values(Variable variable, std::vector<double> axis_values) {
  return Axis{variable, std::move(axis_values)};
}

Axis switching_patterns(std::vector<core::SwitchingPattern> patterns) {
  Axis axis{Variable::kSwitchingPattern, {}};
  axis.values.reserve(patterns.size());
  for (core::SwitchingPattern p : patterns)
    axis.values.push_back(static_cast<double>(static_cast<int>(p)));
  return axis;
}

std::size_t SweepSpec::size() const {
  std::size_t n = 1;
  for (const auto& axis : axes) n *= axis.values.size();
  return n;
}

std::vector<std::size_t> SweepSpec::indices(std::size_t flat) const {
  std::vector<std::size_t> out(axes.size(), 0);
  for (std::size_t a = axes.size(); a-- > 0;) {
    const std::size_t len = axes[a].values.size();
    out[a] = flat % len;
    flat /= len;
  }
  return out;
}

std::size_t SweepSpec::flat_index(const std::vector<std::size_t>& indices) const {
  if (indices.size() != axes.size())
    throw std::invalid_argument("SweepSpec::flat_index: wrong index count");
  std::size_t flat = 0;
  for (std::size_t a = 0; a < axes.size(); ++a) {
    if (indices[a] >= axes[a].values.size())
      throw std::out_of_range("SweepSpec::flat_index: index out of range");
    flat = flat * axes[a].values.size() + indices[a];
  }
  return flat;
}

Scenario SweepSpec::at(std::size_t flat) const {
  // Allocation-free row-major decode (this runs once per grid point on the
  // hot path): the stride of axis a is the product of the axis lengths
  // after it, and axes still apply in declaration order.
  Scenario scenario = base;
  std::size_t stride = size();
  for (const Axis& axis : axes) {
    stride /= axis.values.size();
    const std::size_t idx = (flat / stride) % axis.values.size();
    apply_variable(axis.variable, axis.values[idx], scenario, per_length);
  }
  return scenario;
}

void SweepSpec::validate() const {
  for (const auto& axis : axes) {
    if (axis.values.empty())
      throw std::invalid_argument(std::string("SweepSpec: axis '") +
                                  variable_name(axis.variable) + "' has no values");
    for (double v : axis.values)
      if (!std::isfinite(v))
        throw std::invalid_argument(std::string("SweepSpec: axis '") +
                                    variable_name(axis.variable) +
                                    "' has a non-finite value");
    if (axis.variable == Variable::kLineLength &&
        (!(per_length.capacitance > 0.0) || !(per_length.inductance > 0.0)))
      throw std::invalid_argument(
          "SweepSpec: a line_length axis needs positive per_length L and C");
    // The crosstalk axes carry enum/count values through the double grid;
    // reject anything that would not round-trip.
    if (axis.variable == Variable::kBusLines)
      for (double v : axis.values)
        if (v < 2.0 || v != std::floor(v))
          throw std::invalid_argument(
              "SweepSpec: bus_lines values must be integers >= 2");
    if (axis.variable == Variable::kSwitchingPattern)
      for (double v : axis.values)
        if (v != std::floor(v) || v < 0.0 || v > 2.0)
          throw std::invalid_argument(
              "SweepSpec: switching_pattern values must be 0, 1, or 2 "
              "(core::SwitchingPattern)");
    if (axis.variable == Variable::kCouplingCapRatio)
      for (double v : axis.values)
        if (v < 0.0)
          throw std::invalid_argument(
              "SweepSpec: coupling_cap_ratio values must be >= 0");
    if (axis.variable == Variable::kMutualRatio)
      for (double v : axis.values)
        if (v < 0.0 || v >= 1.0)
          throw std::invalid_argument(
              "SweepSpec: mutual_ratio values must be in [0, 1) (the "
              "width-dependent bound tline::max_lm_ratio is enforced when "
              "each point builds its bus)");
    if (axis.variable == Variable::kShieldEvery)
      for (double v : axis.values)
        if (v < 0.0 || v != std::floor(v))
          throw std::invalid_argument(
              "SweepSpec: shield_every values must be integers >= 0");
    if (axis.variable == Variable::kReductionOrder)
      for (double v : axis.values)
        if (v < 1.0 || v != std::floor(v))
          throw std::invalid_argument(
              "SweepSpec: reduction_order values must be integers >= 1");
    if (axis.variable == Variable::kStaggerMode)
      for (double v : axis.values)
        if (v != std::floor(v) || v < 0.0 || v > 2.0)
          throw std::invalid_argument(
              "SweepSpec: stagger_mode values must be 0, 1, or 2 "
              "(repbus::Placement)");
  }
}

struct SweepEngine::Impl {
  EngineOptions options;
  mutable runtime::ThreadPool pool;

  explicit Impl(EngineOptions opts) : options(opts), pool(opts.threads) {}

  // Shared result epilogue for run()/run_custom(): stats + timing.
  static void finalize(SweepResult& out, const std::vector<sim::SolverReuse>& reuse,
                       std::size_t symbolic, std::size_t ejected,
                       const obs::Stopwatch& started) {
    out.symbolic_factorizations = symbolic;
    out.ejected_lanes = ejected;
    for (const auto& r : reuse)
      out.solver_reuse_hits += r.system.hits + r.conductance.hits;
    // Wall time feeds ONLY the elapsed/points-per-second observability
    // metadata, never a result value; obs::Stopwatch is the sanctioned
    // clock access (the lint wallclock-scope rule bans ::now() here).
    out.elapsed_seconds = started.seconds();
    out.points_per_second =
        out.elapsed_seconds > 0.0
            ? static_cast<double>(out.values.size()) / out.elapsed_seconds
            : 0.0;
    OBS_COUNTER_ADD("sweep.points_batched", out.batched_points);
    OBS_COUNTER_ADD("sweep.points_scalar", out.scalar_points);
  }
};

SweepEngine::SweepEngine(EngineOptions options)
    : impl_(std::make_unique<Impl>(options)) {}

SweepEngine::~SweepEngine() = default;

std::size_t SweepEngine::threads() const { return impl_->pool.size(); }

const EngineOptions& SweepEngine::options() const { return impl_->options; }

SweepResult SweepEngine::run(const SweepSpec& spec, Analysis analysis) const {
  OBS_SPAN("sweep.run");
  OBS_COUNTER_ADD("sweep.runs", 1);
  const numeric::fp_env_guard fp_guard("sweep::SweepEngine::run");
  spec.validate();
  const std::size_t n = spec.size();  // >= 1: validate() rejects empty axes
  const EngineOptions& options = impl_->options;
  // Timing metadata only (elapsed_seconds), not a result value.
  const obs::Stopwatch started;

  // Workers take units of W grid points. W is the lane width for transient
  // sweeps on one explicit horizon (per-scenario default horizons preclude
  // a shared step grid), whose units are tiles stepped as one SIMD batch;
  // every other sweep takes single points (W = 1).
  std::size_t lane_width = 1;
  if (analysis == Analysis::kTransientDelay && options.t_stop > 0.0) {
    lane_width = options.lanes != 0 ? options.lanes : numeric::default_lane_width();
    if (!numeric::is_supported_lane_width(lane_width))
      throw std::invalid_argument(
          "SweepEngine: EngineOptions::lanes must be 1, 4, or 8");
  }

  SweepResult out;
  out.threads_used = impl_->pool.size();
  out.values.assign(n, kNaN);

  // Reference evaluation of point 0 on the calling thread: it records the
  // shared MNA pattern and the symbolic factorizations (transient system
  // and DC, or the G of moment generation) every worker replays. Seeding
  // all workers from ONE donor is what makes results bit-identical at
  // every thread count: the recorded pivot order, not the schedule,
  // determines every numeric factorization. Analyses that factor nothing
  // leave the record empty. Basis-reuse sweeps also build their ONE
  // Arnoldi projection here; later points re-project onto it.
  const bool project = options.reuse_projection &&
                       (analysis == Analysis::kReducedDelay ||
                        analysis == Analysis::kReducedNoise);
  const Scenario nominal = spec.at(0);
  const int basis_order = nominal.xtalk.reduction_order;
  mor::ArnoldiBasis basis;
  sim::SolverReuse reference;
  const numeric::SparseLuStats before = numeric::sparse_lu_stats();
  if (project)
    basis = core::crosstalk_projection_basis(
        scenario_bus(nominal), nominal.xtalk.pattern,
        scenario_crosstalk_options(nominal, options, &reference), basis_order);
  out.values[0] = evaluate_point(nominal, analysis, options, &reference,
                                 project ? &basis : nullptr, /*reference=*/true);
  std::atomic<std::size_t> symbolic{numeric::sparse_lu_stats().symbolic -
                                    before.symbolic};
  std::atomic<std::size_t> ejected{0};
  std::atomic<std::size_t> batched_points{0};
  std::vector<sim::SolverReuse> reuse(impl_->pool.size(), reference);

  // Points 1..n-1 in units: grid order at W = 1, eq. 9 order for tiles.
  std::vector<std::size_t> order(n - 1);
  std::iota(order.begin(), order.end(), std::size_t{1});
  if (lane_width > 1) sort_by_closed_form_delay(spec, options, order);
  const std::size_t units = (order.size() + lane_width - 1) / lane_width;
  impl_->pool.parallel_for(units, [&](std::size_t unit, std::size_t worker) {
    OBS_SPAN(lane_width > 1 ? "sweep.tile" : "sweep.point");
    const std::size_t* points = order.data() + unit * lane_width;
    const std::size_t count = std::min(lane_width, order.size() - unit * lane_width);
    const numeric::SparseLuStats unit_before = numeric::sparse_lu_stats();
    // A full tile tries the batch; the remainder tile (grid size not
    // divisible by W), a declined batch and every W = 1 unit evaluate point
    // by point, bit-identical to the batch by the batched-solver contract.
    std::optional<std::vector<double>> crossings;
    if (lane_width > 1 && count == lane_width) {
      std::vector<sim::Circuit> circuits;
      circuits.reserve(count);
      for (std::size_t k = 0; k < count; ++k)
        circuits.push_back(
            sim::build_gate_line_load(spec.at(points[k]).system, options.segments));
      // Any scenario gives the tile's options: its horizon is the explicit
      // t_stop.
      crossings = sim::run_batched_crossings(
          circuits, "out", 0.5, transient_options(nominal, options, &reuse[worker]),
          kTransientContext);
    }
    for (std::size_t k = 0; k < count; ++k) {
      if (crossings) {
        out.values[points[k]] = (*crossings)[k];
        continue;
      }
      const Scenario scenario = spec.at(points[k]);
      // A point whose reduction_order differs from the basis's build order
      // cannot ride the projection (the basis FIXES q): it gets a fresh
      // per-point reduction at its own order, like structural mismatches.
      const bool point_projects =
          project && scenario.xtalk.reduction_order == basis_order;
      if (point_projects) OBS_COUNTER_ADD("reuse.projection_points", 1);
      out.values[points[k]] = evaluate_point(scenario, analysis, options,
                                             &reuse[worker],
                                             point_projects ? &basis : nullptr,
                                             /*reference=*/false);
    }
    if (crossings) batched_points.fetch_add(count);
    const numeric::SparseLuStats unit_after = numeric::sparse_lu_stats();
    symbolic.fetch_add(unit_after.symbolic - unit_before.symbolic);
    ejected.fetch_add(unit_after.ejected_lanes - unit_before.ejected_lanes);
  });

  out.batched_points = batched_points.load();
  out.scalar_points = n - out.batched_points;
  Impl::finalize(out, reuse, symbolic.load(), ejected.load(), started);
  return out;
}

SweepResult SweepEngine::run_custom(
    std::size_t n,
    const std::function<double(std::size_t, PointContext&)>& eval) const {
  OBS_SPAN("sweep.run_custom");
  OBS_COUNTER_ADD("sweep.runs", 1);
  const numeric::fp_env_guard fp_guard("sweep::SweepEngine::run_custom");
  // Timing metadata only (elapsed_seconds), not a result value.
  const obs::Stopwatch started;
  SweepResult out;
  out.threads_used = impl_->pool.size();
  out.values.assign(n, kNaN);
  std::atomic<std::size_t> symbolic{0};
  std::vector<sim::SolverReuse> reuse(impl_->pool.size());

  impl_->pool.parallel_for(n, [&](std::size_t i, std::size_t worker) {
    OBS_SPAN("sweep.point");
    PointContext ctx{&reuse[worker], worker};
    const std::size_t before = numeric::sparse_lu_stats().symbolic;
    out.values[i] = eval(i, ctx);
    symbolic.fetch_add(numeric::sparse_lu_stats().symbolic - before);
  });

  out.scalar_points = n;  // custom evaluators never batch
  Impl::finalize(out, reuse, symbolic.load(), 0, started);
  return out;
}

core::DesignBatchFn SweepEngine::repeater_batch() const {
  return [this](const tline::LineParams& line, const core::MinBuffer& buffer,
                const core::DelayFitConstants& fit,
                const std::vector<core::RepeaterDesign>& candidates,
                std::vector<double>& delays) {
    delays.assign(candidates.size(), kNaN);
    impl_->pool.parallel_for(candidates.size(), [&](std::size_t i, std::size_t) {
      delays[i] = core::total_delay(line, buffer, candidates[i], fit);
    });
  };
}

core::OptimizedDesign SweepEngine::optimize_repeater(const tline::LineParams& line,
                                                     const core::MinBuffer& buffer,
                                                     double min_sections) const {
  return core::optimize(line, buffer, impl_->options.fit, min_sections,
                        repeater_batch());
}

}  // namespace rlcsim::sweep
