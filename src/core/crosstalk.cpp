#include "core/crosstalk.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <variant>
#include <vector>

#include "core/two_pole.h"
#include "mor/response.h"

namespace rlcsim::core {
namespace {

// One driver's waveform decoded EXACTLY into a sum of linear edges, read
// from the BUILT circuit's actual source spec — the single source of truth
// shared with the transient path, so the two analyses of the identical
// circuit can never desynchronize if build_coupled_bus's drive table (or a
// drive override) changes. Every piecewise-linear finite spec kind maps
// losslessly: a step is one edge, a finite pulse is its leading edge plus
// the opposite-sign trailing edge, and an N-point PWL is one edge per
// value-changing segment. Shapes with NO finite linear-edge superposition —
// periodic pulse trains — and malformed PWL time axes throw instead of
// being silently collapsed to a single ramp (a trailing edge dropped here
// used to vanish from the reduced metrics without a trace).
struct DriveEdge {
  double delta = 0.0;  // voltage moved by this edge
  double rise = 0.0;   // linear edge duration (0 = ideal step)
  double start = 0.0;  // absolute onset time, >= 0
};
struct DriveDecode {
  double initial = 0.0;  // level just before the first edge
  std::vector<DriveEdge> edges;  // in onset order
};
DriveDecode decode_drive(const sim::SourceSpec& spec) {
  if (const auto* dc = std::get_if<sim::DcSpec>(&spec)) return {dc->value, {}};
  if (const auto* step = std::get_if<sim::StepSpec>(&spec)) {
    if (step->delay < 0.0)
      throw std::invalid_argument(
          "analyze_crosstalk_reduced: step delay must be >= 0");
    DriveDecode d{step->v0, {}};
    if (step->v1 != step->v0)
      d.edges.push_back({step->v1 - step->v0, step->rise, step->delay});
    return d;
  }
  if (const auto* pulse = std::get_if<sim::PulseSpec>(&spec)) {
    if (pulse->delay < 0.0)
      throw std::invalid_argument(
          "analyze_crosstalk_reduced: pulse delay must be >= 0");
    if (pulse->period > 0.0)
      throw std::invalid_argument(
          "analyze_crosstalk_reduced: periodic pulse trains have no finite "
          "edge superposition; use the transient path");
    DriveDecode d{pulse->v0, {}};
    const double swing = pulse->v1 - pulse->v0;
    if (swing != 0.0) {
      d.edges.push_back({swing, pulse->rise, pulse->delay});
      d.edges.push_back({-swing, pulse->fall,
                         pulse->delay + pulse->rise + pulse->width});
    }
    return d;
  }
  const auto& pwl = std::get<sim::PwlSpec>(spec);
  if (pwl.points.empty()) return {0.0, {}};
  DriveDecode d{pwl.points.front().second, {}};
  if (pwl.points.front().first < 0.0)
    throw std::invalid_argument(
        "analyze_crosstalk_reduced: PWL times must be >= 0");
  for (std::size_t i = 1; i < pwl.points.size(); ++i) {
    const auto& [t0, v0] = pwl.points[i - 1];
    const auto& [t1, v1] = pwl.points[i];
    if (!(t1 > t0))
      throw std::invalid_argument(
          "analyze_crosstalk_reduced: PWL times must be strictly increasing");
    if (v1 != v0) d.edges.push_back({v1 - v0, t1 - t0, t0});
  }
  return d;
}

// The push-out reference shared by the transient and reduced paths:
// absent ONLY in the documented degenerate-damping corner where the
// two-pole bracket does not exist in double precision (any other
// root-finder failure still propagates), so the two paths can never drift
// in what "reference unavailable" means.
std::optional<double> isolated_two_pole_delay(const tline::GateLineLoad& isolated) {
  try {
    return TwoPoleModel(isolated).threshold_delay(0.5);
  } catch (const BracketError&) {
    return std::nullopt;
  }
}

void validate_options(const tline::CoupledBus& bus,
                      const CrosstalkOptions& options, const char* context) {
  tline::validate(bus);
  if (!(options.driver_resistance > 0.0))
    throw std::invalid_argument(std::string(context) +
                                ": driver_resistance must be > 0");
  if (!(options.vdd > 0.0))
    throw std::invalid_argument(std::string(context) + ": vdd must be > 0");
  if (options.shield_every < 0)
    throw std::invalid_argument(std::string(context) +
                                ": shield_every must be >= 0");
  if (!options.drive_overrides.empty() &&
      options.drive_overrides.size() != static_cast<std::size_t>(bus.lines))
    throw std::invalid_argument(
        std::string(context) +
        ": drive_overrides must be empty or have one entry per line");
}

// The canonical pattern circuit, with any drive overrides swapped in. EVERY
// analysis path (transient, reduced, projected, basis build) goes through
// here, so an override can never reach one path and not another.
sim::Circuit build_pattern_bus(const tline::CoupledBus& bus,
                               SwitchingPattern pattern,
                               const CrosstalkOptions& options) {
  sim::Circuit circuit = sim::build_coupled_bus(
      bus,
      pattern_drives(bus.lines, bus.victim_index(), pattern,
                     options.shield_every),
      options.driver_resistance, options.load_capacitance, options.segments,
      options.vdd, options.source_rise);
  for (std::size_t i = 0; i < options.drive_overrides.size(); ++i)
    if (options.drive_overrides[i])
      circuit.set_voltage_source_spec(i, *options.drive_overrides[i]);
  return circuit;
}

}  // namespace

bool is_shield_line(int line, int victim, int shield_every) {
  if (shield_every < 1 || line == victim) return false;
  return std::abs(line - victim) % shield_every == 0;
}

std::vector<sim::BusDrive> pattern_drives(int lines, int victim,
                                          SwitchingPattern pattern,
                                          int shield_every) {
  std::vector<sim::BusDrive> drives;
  drives.reserve(static_cast<std::size_t>(lines));
  for (int i = 0; i < lines; ++i) {
    if (is_shield_line(i, victim, shield_every)) {
      drives.push_back(sim::BusDrive::kShieldGrounded);
      continue;
    }
    switch (pattern) {
      case SwitchingPattern::kQuietVictim:
        drives.push_back(i == victim ? sim::BusDrive::kQuietLow
                                     : sim::BusDrive::kRising);
        break;
      case SwitchingPattern::kSamePhase:
        drives.push_back(sim::BusDrive::kRising);
        break;
      case SwitchingPattern::kOppositePhase:
        drives.push_back(i == victim ? sim::BusDrive::kRising
                                     : sim::BusDrive::kFalling);
        break;
    }
  }
  return drives;
}

const char* switching_pattern_name(SwitchingPattern pattern) {
  switch (pattern) {
    case SwitchingPattern::kQuietVictim: return "quiet_victim";
    case SwitchingPattern::kSamePhase: return "same_phase";
    case SwitchingPattern::kOppositePhase: return "opposite_phase";
  }
  return "unknown";
}

CrosstalkMetrics analyze_crosstalk(const tline::CoupledBus& bus,
                                   SwitchingPattern pattern,
                                   const CrosstalkOptions& options,
                                   sim::CrossingWindow window) {
  validate_options(bus, options, "analyze_crosstalk");

  const bool victim_switches = pattern != SwitchingPattern::kQuietVictim;
  const bool scan_noise = window == sim::CrossingWindow::kFullWindow;
  CrosstalkMetrics metrics;
  // A run that stops at the crossing never sees the rest of the window, so
  // its noise is not measured; a quiet victim has no crossing either, so
  // such a run has nothing to simulate.
  if (!scan_noise) {
    metrics.peak_noise = std::numeric_limits<double>::quiet_NaN();
    if (!victim_switches) return metrics;
  }

  const int victim_line = bus.victim_index();
  const tline::GateLineLoad isolated{options.driver_resistance,
                                     bus.line_at(victim_line),
                                     options.load_capacitance};
  const sim::Circuit circuit = build_pattern_bus(bus, pattern, options);
  const std::string victim_node =
      "line" + std::to_string(victim_line) + ".out";

  sim::TransientOptions transient;
  transient.t_stop = options.t_stop > 0.0
                         ? options.t_stop
                         : sim::default_transient_horizon(isolated);
  transient.dt = options.dt;
  transient.solver = options.solver;
  transient.reuse = options.reuse;
  // Every metric is read from the victim's far end, so that is all any
  // victim transient records, in either window.
  transient.record_only = victim_node;

  sim::Trace victim;
  if (victim_switches) {
    // The push-out reference; computed only when a push-out exists, absent
    // (not fatal) in the degenerate-damping corner.
    metrics.isolated_delay_two_pole = isolated_two_pole_delay(isolated);
    // The Miller-degraded corner can be much slower than the isolated
    // estimate the horizon comes from; run_until_crossing auto-extends. The
    // crossing is the same bits in either window.
    sim::DelayRun run = sim::run_until_crossing(
        circuit, victim_node, 0.5 * options.vdd, transient, "analyze_crosstalk",
        window);
    metrics.victim_delay_50 = run.crossing;
    if (metrics.isolated_delay_two_pole)
      metrics.delay_pushout = run.crossing - *metrics.isolated_delay_two_pole;
    if (!scan_noise) return metrics;
    victim = run.result.waveforms.trace(victim_node);
  } else {
    victim = sim::run_transient(circuit, transient).waveforms.trace(victim_node);
  }

  // Noise: excursion outside the victim's drive envelope [v(0), v(inf)].
  // A quiet victim's envelope collapses to its quiescent level, so this is
  // the classic peak coupled noise; a switching victim's is over/undershoot.
  const double lo = 0.0;
  const double hi = victim_switches ? options.vdd : 0.0;
  metrics.peak_noise =
      std::max({0.0, lo - victim.min_value(), victim.max_value() - hi});
  return metrics;
}

namespace {

numeric::SymbolicRecord* conductance_record(const CrosstalkOptions& options) {
  return options.reuse ? &options.reuse->conductance : nullptr;
}

// Shared superposition + measurement tail of the reduced and projected
// analyses. Superposition around the t = 0- DC point: every source
// contributes its pre-switch level times its DC transfer (that sum is the
// victim's initial level), then its swing times its step/ramp response.
// build_coupled_bus adds exactly one voltage source per line, in line
// order, so input column i is line i's driver; each signal is decoded from
// that source's OWN spec, never re-derived from the drive enum.
// `transfer_of(i)` supplies the (victim, driver i) pole-residue model for
// switching drivers; `dc_of(i)` the DC transfer of quiet-but-held drivers.
CrosstalkMetrics measure_superposition(
    const sim::Circuit& circuit, const tline::CoupledBus& bus,
    SwitchingPattern pattern, const CrosstalkOptions& options,
    const std::string& victim_node,
    const std::function<mor::PoleResidueModel(int)>& transfer_of,
    const std::function<double(int)>& dc_of) {
  const int victim_line = bus.victim_index();
  const bool victim_switches = pattern != SwitchingPattern::kQuietVictim;

  double initial_dc = 0.0;
  struct Contribution {
    mor::PoleResidueModel model;
    std::vector<DriveEdge> edges;
  };
  std::vector<Contribution> contributions;
  for (int i = 0; i < bus.lines; ++i) {
    const DriveDecode signal = decode_drive(
        circuit.voltage_sources()[static_cast<std::size_t>(i)].spec);
    if (!signal.edges.empty()) {
      Contribution c{transfer_of(i), signal.edges};
      // The model's DC gain IS moment 0 (pinned exactly by both reduction
      // routes), so the pre-switch level rides the same number.
      initial_dc += signal.initial * c.model.dc_gain;
      contributions.push_back(std::move(c));
    } else if (signal.initial != 0.0) {
      // Non-switching source held at a nonzero level: only its DC transfer
      // contributes (one solve, no reduction).
      initial_dc += signal.initial * dc_of(i);
    }
  }

  CrosstalkMetrics metrics;
  mor::AnalyticResponse shifted(initial_dc);
  for (const auto& c : contributions) {
    // Exact superposition: one shifted contribution per linear edge of the
    // decoded drive (a step/ramp today, a pulse's two edges or an N-point
    // PWL's N-1 edges just as well).
    for (const DriveEdge& edge : c.edges) {
      if (edge.rise > 0.0)
        shifted.add_ramp(c.model, edge.delta, edge.rise, edge.start);
      else
        shifted.add_step(c.model, edge.delta, edge.start);
    }
  }

  // One measurement pass serves both delay and noise (rise metrics are not
  // part of CrosstalkMetrics, so their scans are skipped).
  const double hi = victim_switches ? options.vdd : 0.0;
  const mor::ResponseMetrics measured =
      shifted.measure(0.0, hi, /*want_rise=*/false);
  metrics.peak_noise = measured.peak_noise;
  if (victim_switches) {
    if (!measured.delay_50)
      throw std::runtime_error(
          "analyze_crosstalk_reduced: '" + victim_node +
          "' never crossed the threshold within the (auto-extended) window");
    metrics.victim_delay_50 = *measured.delay_50;
    metrics.isolated_delay_two_pole = isolated_two_pole_delay(
        {options.driver_resistance, bus.line_at(victim_line),
         options.load_capacitance});
    if (metrics.isolated_delay_two_pole)
      metrics.delay_pushout =
          *measured.delay_50 - *metrics.isolated_delay_two_pole;
  }
  return metrics;
}

}  // namespace

CrosstalkMetrics analyze_crosstalk_reduced(const tline::CoupledBus& bus,
                                           SwitchingPattern pattern,
                                           const CrosstalkOptions& options,
                                           int order) {
  validate_options(bus, options, "analyze_crosstalk_reduced");
  if (order < 1)
    throw std::invalid_argument("analyze_crosstalk_reduced: order must be >= 1");

  const int victim_line = bus.victim_index();
  const sim::Circuit circuit = build_pattern_bus(bus, pattern, options);
  const std::string victim_node =
      "line" + std::to_string(victim_line) + ".out";

  const sim::MnaAssembler mna(circuit);
  const mor::LinearSystem linear = mor::make_linear_system(mna, {victim_node});
  const mor::MomentGenerator generator(linear, conductance_record(options));

  // Transport-delay candidate bound for every transfer: the victim line's
  // own time of flight (the selection in reduce_transfer adapts downward).
  const double max_delay = bus.line_at(victim_line).time_of_flight();

  const auto transfer_of = [&](int i) {
    // A driver at distance d from the victim couples through d
    // nearest-neighbor hops, so its transfer rises like s^d (its first d
    // moments are exactly zero — G alone does not couple the lines) and
    // no rational with fewer than d+1 poles can represent it. Those far
    // transfers are also the smallest contributions, so raising their
    // order to the representability floor keeps "q-th order" honest where
    // it matters (the victim's own transfer and its neighbors').
    const int distance = std::abs(i - victim_line);
    const int transfer_order = std::max(order, distance + 1);
    const std::vector<double> moments = generator.transfer_moments(
        linear.outputs[0], linear.inputs[static_cast<std::size_t>(i)],
        2 * transfer_order);
    return mor::reduce_transfer(moments, transfer_order, max_delay);
  };
  const auto dc_of = [&](int i) {
    const std::vector<double> m0 =
        generator.solve(linear.inputs[static_cast<std::size_t>(i)]);
    double dc = 0.0;
    for (std::size_t n = 0; n < m0.size(); ++n)
      dc += linear.outputs[0][n] * m0[n];
    return dc;
  };
  return measure_superposition(circuit, bus, pattern, options, victim_node,
                               transfer_of, dc_of);
}

mor::ArnoldiBasis crosstalk_projection_basis(const tline::CoupledBus& bus,
                                             SwitchingPattern pattern,
                                             const CrosstalkOptions& options,
                                             int order) {
  validate_options(bus, options, "crosstalk_projection_basis");
  if (order < 1)
    throw std::invalid_argument(
        "crosstalk_projection_basis: order must be >= 1");

  const int victim_line = bus.victim_index();
  const sim::Circuit circuit = build_pattern_bus(bus, pattern, options);
  const std::string victim_node =
      "line" + std::to_string(victim_line) + ".out";
  const sim::MnaAssembler mna(circuit);
  const mor::LinearSystem linear = mor::make_linear_system(mna, {victim_node});

  // Clamp up to the input count so the first Krylov block is never
  // truncated: every driver keeps (at least) its DC match.
  const int basis_order = std::max(order, bus.lines);
  mor::ArnoldiBasis basis;
  mor::arnoldi_reduce(linear, basis_order, conductance_record(options), &basis);
  return basis;
}

CrosstalkMetrics analyze_crosstalk_projected(const tline::CoupledBus& bus,
                                             SwitchingPattern pattern,
                                             const CrosstalkOptions& options,
                                             const mor::ArnoldiBasis& basis) {
  validate_options(bus, options, "analyze_crosstalk_projected");
  if (basis.order() == 0)
    throw std::invalid_argument("analyze_crosstalk_projected: empty basis");

  const int victim_line = bus.victim_index();
  const sim::Circuit circuit = build_pattern_bus(bus, pattern, options);
  const std::string victim_node =
      "line" + std::to_string(victim_line) + ".out";
  const sim::MnaAssembler mna(circuit);
  const mor::LinearSystem linear = mor::make_linear_system(mna, {victim_node});

  // A structurally different circuit (different bus width, shield layout, or
  // segmentation) cannot ride this basis: fall back to a fresh per-point
  // reduction at the basis order so mixed-topology grids stay correct.
  if (basis.dimension() != linear.unknowns())
    return analyze_crosstalk_reduced(bus, pattern, options,
                                     static_cast<int>(basis.order()));

  const mor::ReducedModel reduced = mor::project_onto(linear, basis);
  const auto transfer_of = [&](int i) {
    return mor::pole_residue(reduced, 0, i);
  };
  const auto dc_of = [&](int i) {
    // DC transfer through the reduced pencil: l^T Ghat^{-1} b — dense q x q.
    const std::size_t q = static_cast<std::size_t>(reduced.order());
    numeric::RealMatrix ghat = reduced.G;
    std::vector<double> b(q);
    for (std::size_t r = 0; r < q; ++r)
      b[r] = reduced.B(r, static_cast<std::size_t>(i));
    const std::vector<double> x = numeric::solve(std::move(ghat), b);
    double dc = 0.0;
    for (std::size_t r = 0; r < q; ++r) dc += reduced.L(r, 0) * x[r];
    return dc;
  };
  return measure_superposition(circuit, bus, pattern, options, victim_node,
                               transfer_of, dc_of);
}

}  // namespace rlcsim::core
