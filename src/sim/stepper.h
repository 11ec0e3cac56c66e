// The one transient stepper, internal to src/sim: run_transient steps one
// circuit through it at lane width W = 1, run_batched_crossings a tile of
// W = 1/4/8 circuits of one topology in lockstep (see sim/transient.h and
// sim/transient_batch.h for what each path adds around it).
//
// The state is lane-major (value[row * W + lane]) and the kernels loop over
// lanes innermost, with the per-(dt, integrator) companion coefficients
// computed once per LU-cache entry. Each lane's arithmetic is the scalar
// companion-model expression in the scalar order, so a lane of a tile
// produces the bits its own W = 1 run produces. The kernels use the
// SparseLuBatch vectorization recipe (restrict-qualified base pointers,
// per-element staging arrays, `#pragma GCC unroll 1` on every W-trip lane
// loop): without it the same phantom aliasing compiles them scalar.
#pragma once

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "numeric/interpolate.h"
#include "obs/obs.h"
#include "sim/circuit.h"
#include "sim/mna.h"
#include "sim/transient.h"

// Lanes are memcmp'd against scalar runs; excess-precision double
// evaluation would fork the two (see numeric/fp_env.h).
static_assert(FLT_EVAL_METHOD == 0,
              "rlcsim transient kernels require FLT_EVAL_METHOD == 0 "
              "(strict double evaluation)");

namespace rlcsim::sim::detail {

// The fixed integration settings of every run. After each breakpoint
// (source corner, buffer fire instant) the first kBeStepsAfterBreakpoint
// steps use backward Euler, the rest trapezoidal. Step sizes snap to
// multiples of kMinDtFraction * dt, the LU-cache key and the smallest
// event step. kDcGmin is the conductance the DC operating point (scalar
// and batched) adds on every node.
inline constexpr int kBeStepsAfterBreakpoint = 2;
inline constexpr double kMinDtFraction = 1e-9;
inline constexpr double kDcGmin = 1e-12;

// The option check of both paths (t_stop and dt): the first violated
// rule, or nullptr. run_transient throws it; a tile with it is ineligible.
const char* invalid_options(const TransientOptions& options);

// The last cycle collect_source_breakpoints enumerates for `pulse` within
// [0, t_stop] (0 for a single pulse); throws std::invalid_argument past 1e6.
std::int64_t last_pulse_cycle(const PulseSpec& pulse, double t_stop);

// collect_source_breakpoints over every source of `circuit`.
void add_source_breakpoints(const Circuit& circuit, double t_stop,
                            std::set<double>& out);

// W circuits of lane 0's topology (element counts and terminals equal,
// values free), lane 0's assembler for the branch rows, the DC solution
// (lane-major, unknown_count() * W), and each lane's probe node (empty: no
// probe, run the window).
struct StepperInput {
  const TransientOptions& options;
  std::vector<const Circuit*> lanes;
  const MnaAssembler& assembler;
  const double* dc;
  std::vector<NodeId> probe;
  double level = 0.0;
  bool stop_at_crossing = true;
};

struct StepperOutput {
  std::vector<std::optional<double>> crossing;  // per lane
  std::vector<double> buffer_fire_times;        // +inf where never fired
  std::size_t steps = 0, lu_hits = 0, lu_misses = 0;
};

// Steps the lanes from the DC state to the window end, or, for a probe,
// to the step that brackets the last lane's crossing. `x` is the RHS and
// solution buffer (unknown_count() * W doubles, solved in place by the
// factors `make_factor(dt, method)` returns), and `on_step(time, v)` sees
// the node voltages at t = 0 and after every accepted step. Buffers
// (event-located by step rejection) occur only at W = 1: tiles are
// buffer-free.
template <std::size_t W, class Buffer, class MakeFactor, class OnStep>
StepperOutput step_lanes(const StepperInput& in, Buffer& x, MakeFactor&& make_factor,
                         OnStep&& on_step) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const TransientOptions& options = in.options;
  const Circuit& c0 = *in.lanes[0];
  const std::size_t n_nodes = c0.node_count();
  const auto& inductors = c0.inductors();
  const auto& mutuals = c0.mutuals();
  const auto& vsources = c0.voltage_sources();
  const auto& isources = c0.current_sources();
  const auto& buffers = c0.buffers();
  StepperOutput out;

  // Capacitor slots: the capacitors, then each buffer input capacitance (a
  // capacitor to ground). Lane-major element values.
  std::vector<std::pair<NodeId, NodeId>> cap_nodes;
  for (const auto& c : c0.capacitors()) cap_nodes.emplace_back(c.n1, c.n2);
  for (const auto& b : buffers)
    if (b.input_capacitance > 0.0) cap_nodes.emplace_back(b.input, kGround);
  std::vector<double> cap_c(cap_nodes.size() * W);
  std::vector<double> ind_l(inductors.size() * W);
  std::vector<double> mut_m(mutuals.size() * W);
  for (std::size_t lane = 0; lane < in.lanes.size(); ++lane) {
    const Circuit& c = *in.lanes[lane];
    std::size_t slot = 0;
    for (const auto& cap : c.capacitors()) cap_c[slot++ * W + lane] = cap.capacitance;
    for (const auto& b : c.buffers())
      if (b.input_capacitance > 0.0) cap_c[slot++ * W + lane] = b.input_capacitance;
    for (std::size_t k = 0; k < inductors.size(); ++k)
      ind_l[k * W + lane] = c.inductors()[k].inductance;
    for (std::size_t k = 0; k < mutuals.size(); ++k)
      mut_m[k * W + lane] = c.mutuals()[k].mutual;
  }
  // Sweep tiles usually vary the passives, not the drive: a source whose
  // spec every lane shares is evaluated once per step and broadcast.
  std::vector<char> vsrc_shared(vsources.size(), 1);
  std::vector<char> isrc_shared(isources.size(), 1);
  for (std::size_t lane = 1; lane < in.lanes.size(); ++lane) {
    for (std::size_t k = 0; k < vsources.size(); ++k)
      if (in.lanes[lane]->voltage_sources()[k].spec != vsources[k].spec)
        vsrc_shared[k] = 0;
    for (std::size_t k = 0; k < isources.size(); ++k)
      if (in.lanes[lane]->current_sources()[k].spec != isources[k].spec)
        isrc_shared[k] = 0;
  }

  // State from the DC solution: node voltages are its first n_nodes rows,
  // inductor currents its branch rows, capacitor histories start at zero.
  double time = 0.0;
  std::vector<double> nv(in.dc, in.dc + n_nodes * W);
  std::vector<double> cap_i(cap_c.size(), 0.0);
  std::vector<double> ind_i(ind_l.size());
  std::vector<std::size_t> ind_branch(inductors.size());
  for (std::size_t k = 0; k < inductors.size(); ++k) {
    ind_branch[k] = in.assembler.inductor_branch(k);
    for (std::size_t lane = 0; lane < in.lanes.size(); ++lane)
      ind_i[k * W + lane] = in.dc[ind_branch[k] * W + lane];
  }
  std::vector<double>& fire = out.buffer_fire_times;
  fire.assign(buffers.size(), kInf);

  // Breakpoints: source corners (and buffer fire instants and output-ramp
  // ends, added as they occur). The horizon is not one: steps are clipped
  // to it directly, so extending it restarts no backward Euler.
  double t_stop = options.t_stop;  // grows by horizon extensions
  std::set<double> breakpoints{0.0};
  add_source_breakpoints(c0, t_stop, breakpoints);

  // --- LU cache keyed by (quantized dt, integrator) ------------------------
  // Step sizes are snapped to multiples of `dt_quantum` before use, so
  // breakpoint-clipped dts that differ only in the last few ulps share a
  // factorization; the snap error is at most half a quantum, far below
  // the breakpoint landing tolerance. The quantum doubles as the smallest
  // step (kMinDtFraction * dt). An entry also holds the key's companion
  // coefficients: g = (trap ? 2 : 1) * C / dt for the capacitors, the
  // inductor and mutual history factors likewise. A key fixes dt (it is
  // re-derived as key * dt_quantum), so the cached values are exact.
  const double dt_nominal = options.dt > 0.0 ? options.dt : options.t_stop / 4000.0;
  const double dt_quantum = dt_nominal * kMinDtFraction;
  const auto quantize = [&](double dt) {
    return static_cast<std::int64_t>(std::llround(dt / dt_quantum));
  };
  using Factor = std::invoke_result_t<MakeFactor&, double, Integrator>;
  struct Entry {
    Factor lu;
    std::vector<double> cap_g, ind_h, mut_h;
  };
  std::map<std::pair<std::int64_t, int>, Entry> cache;
  // The last key short-circuits the map on the steady run of equal steps.
  std::pair<std::int64_t, int> last_key{std::numeric_limits<std::int64_t>::min(), -1};
  const Entry* last = nullptr;
  const auto entry_for = [&](double dt, Integrator method) -> const Entry& {
    const auto key = std::make_pair(quantize(dt), static_cast<int>(method));
    if (last != nullptr && key == last_key) {
      ++out.lu_hits;
      return *last;
    }
    auto it = cache.find(key);
    if (it != cache.end()) {
      ++out.lu_hits;
    } else {
      ++out.lu_misses;
      const bool trap = method == Integrator::kTrapezoidal;
      Entry e{make_factor(dt, method), cap_c, ind_l, mut_m};  // values, then scaled
      for (double& g : e.cap_g) g = (trap ? 2.0 : 1.0) * g / dt;
      for (double& h : e.ind_h) h = trap ? 2.0 * h / dt : h / dt;
      for (double& h : e.mut_h) h = (trap ? 2.0 : 1.0) * h / dt;
      it = cache.emplace(key, std::move(e)).first;
    }
    last_key = key;
    last = &it->second;
    return *last;
  };

  // --- companion-model RHS for the step to time + dt ----------------------
  const auto rhs = [&](double dt, Integrator method, const Entry& e) {
    // Only the node rows accumulate (+=) and need clearing: every branch
    // row, inductor and voltage source alike, is assigned (=) below.
    std::fill_n(x.data(), n_nodes * W, 0.0);
    double* __restrict const r = x.data();
    const double* __restrict const nvp = nv.data();
    const double* __restrict const ci = cap_i.data();
    const double* __restrict const ii = ind_i.data();
    const double* __restrict const cg = e.cap_g.data();
    const double* __restrict const ih = e.ind_h.data();
    const double* __restrict const mh = e.mut_h.data();
    const double t_next = time + dt;
    const bool trap = method == Integrator::kTrapezoidal;

    // Capacitor companions.
    double hist[W];
    for (std::size_t k = 0; k < cap_nodes.size(); ++k) {
      const auto [n1, n2] = cap_nodes[k];
#pragma GCC unroll 1
      for (std::size_t lane = 0; lane < W; ++lane) {
        const double v_prev =
            (n1 == kGround ? 0.0 : nvp[static_cast<std::size_t>(n1) * W + lane]) -
            (n2 == kGround ? 0.0 : nvp[static_cast<std::size_t>(n2) * W + lane]);
        const double g = cg[k * W + lane];
        hist[lane] = trap ? g * v_prev + ci[k * W + lane] : g * v_prev;
      }
      if (n1 != kGround) {
        double* __restrict const rn = r + static_cast<std::size_t>(n1) * W;
#pragma GCC unroll 1
        for (std::size_t lane = 0; lane < W; ++lane) rn[lane] += hist[lane];
      }
      if (n2 != kGround) {
        double* __restrict const rn = r + static_cast<std::size_t>(n2) * W;
#pragma GCC unroll 1
        for (std::size_t lane = 0; lane < W; ++lane) rn[lane] -= hist[lane];
      }
    }

    // Inductor branch histories.
    for (std::size_t k = 0; k < inductors.size(); ++k) {
      const NodeId n1 = inductors[k].n1, n2 = inductors[k].n2;
      double* __restrict const rj = r + ind_branch[k] * W;
#pragma GCC unroll 1
      for (std::size_t lane = 0; lane < W; ++lane) {
        const double v_prev =
            (n1 == kGround ? 0.0 : nvp[static_cast<std::size_t>(n1) * W + lane]) -
            (n2 == kGround ? 0.0 : nvp[static_cast<std::size_t>(n2) * W + lane]);
        if (trap)
          rj[lane] = -v_prev - ih[k * W + lane] * ii[k * W + lane];
        else
          rj[lane] = -ih[k * W + lane] * ii[k * W + lane];
      }
    }
    // Mutual-coupling history terms mirror the matrix cross stamps. The two
    // updates hit two DIFFERENT branch rows (ia != ib), so splitting them
    // into separate lane loops preserves each row's -= sequence.
    for (std::size_t k = 0; k < mutuals.size(); ++k) {
      const std::size_t ia = mutuals[k].inductor_a, ib = mutuals[k].inductor_b;
      double* __restrict const ra = r + ind_branch[ia] * W;
      double* __restrict const rb = r + ind_branch[ib] * W;
#pragma GCC unroll 1
      for (std::size_t lane = 0; lane < W; ++lane)
        ra[lane] -= mh[k * W + lane] * ii[ib * W + lane];
#pragma GCC unroll 1
      for (std::size_t lane = 0; lane < W; ++lane)
        rb[lane] -= mh[k * W + lane] * ii[ia * W + lane];
    }

    // Sources evaluated at the END of the step (implicit methods).
    for (std::size_t k = 0; k < vsources.size(); ++k) {
      double* __restrict const rj = r + in.assembler.vsource_branch(k) * W;
      if (vsrc_shared[k]) {
        const double v = source_value(vsources[k].spec, t_next);
#pragma GCC unroll 1
        for (std::size_t lane = 0; lane < W; ++lane) rj[lane] = v;
      } else {
#pragma GCC unroll 1
        for (std::size_t lane = 0; lane < W; ++lane)
          rj[lane] = source_value(in.lanes[lane]->voltage_sources()[k].spec, t_next);
      }
    }
    for (std::size_t k = 0; k < isources.size(); ++k) {
      const NodeId to = isources[k].to, from = isources[k].from;
      if (isrc_shared[k]) {
        const double i = source_value(isources[k].spec, t_next);
        if (to != kGround) {
          double* __restrict const rn = r + static_cast<std::size_t>(to) * W;
#pragma GCC unroll 1
          for (std::size_t lane = 0; lane < W; ++lane) rn[lane] += i;
        }
        if (from != kGround) {
          double* __restrict const rn = r + static_cast<std::size_t>(from) * W;
#pragma GCC unroll 1
          for (std::size_t lane = 0; lane < W; ++lane) rn[lane] -= i;
        }
      } else {
#pragma GCC unroll 1
        for (std::size_t lane = 0; lane < W; ++lane) {
          const double i =
              source_value(in.lanes[lane]->current_sources()[k].spec, t_next);
          if (to != kGround) r[static_cast<std::size_t>(to) * W + lane] += i;
          if (from != kGround) r[static_cast<std::size_t>(from) * W + lane] -= i;
        }
      }
    }
    // Buffer output stages (W = 1): the drive through Rout.
    for (std::size_t k = 0; k < buffers.size(); ++k)
      if (buffers[k].output != kGround)
        r[static_cast<std::size_t>(buffers[k].output)] +=
            MnaAssembler::buffer_drive(buffers[k], fire[k], t_next) /
            buffers[k].output_resistance;
  };

  // --- post-solve update: the history recurrences, then the new state ----
  // The capacitor loop reads the OLD node voltages, overwritten only
  // afterwards. The restrict locals live in an inner block so the trailing
  // copy through nv.data() does not overlap their scope.
  const auto advance = [&](double dt, Integrator method, const Entry& e) {
    const bool trap = method == Integrator::kTrapezoidal;
    {
      const double* __restrict const s = x.data();
      const double* __restrict const nvp = nv.data();
      double* __restrict const ci = cap_i.data();
      double* __restrict const ii = ind_i.data();
      const double* __restrict const cg = e.cap_g.data();
      for (std::size_t k = 0; k < cap_nodes.size(); ++k) {
        const auto [n1, n2] = cap_nodes[k];
#pragma GCC unroll 1
        for (std::size_t lane = 0; lane < W; ++lane) {
          const double v_old =
              (n1 == kGround ? 0.0 : nvp[static_cast<std::size_t>(n1) * W + lane]) -
              (n2 == kGround ? 0.0 : nvp[static_cast<std::size_t>(n2) * W + lane]);
          const double v_new =
              (n1 == kGround ? 0.0 : s[static_cast<std::size_t>(n1) * W + lane]) -
              (n2 == kGround ? 0.0 : s[static_cast<std::size_t>(n2) * W + lane]);
          const double g = cg[k * W + lane];
          ci[k * W + lane] =
              trap ? g * (v_new - v_old) - ci[k * W + lane] : g * (v_new - v_old);
        }
      }
      for (std::size_t k = 0; k < inductors.size(); ++k) {
        const double* __restrict const sj = s + ind_branch[k] * W;
#pragma GCC unroll 1
        for (std::size_t lane = 0; lane < W; ++lane) ii[k * W + lane] = sj[lane];
      }
    }
    std::copy_n(x.data(), n_nodes * W, nv.data());
    time += dt;
  };

  // Solves the step to time + dt into x; returns its cache entry.
  const auto solve = [&](double dt, Integrator method) -> const Entry& {
    const Entry& e = entry_for(dt, method);
    rhs(dt, method, e);
    e.lu.solve_in_place(x);
    return e;
  };

  // --- probes: each lane's previous sample and its first rising crossing,
  // tested on every new sample interval (numeric::interval_crossing).
  out.crossing.assign(W, std::nullopt);
  std::size_t open = in.probe.empty() ? 0 : W;  // lanes still waiting
  double previous[W] = {};
  const auto probe_value = [&](std::size_t lane) {
    return nv[static_cast<std::size_t>(in.probe[lane]) * W + lane];
  };
  if (open != 0) {
#pragma GCC unroll 1
    for (std::size_t lane = 0; lane < W; ++lane) previous[lane] = probe_value(lane);
  }
  on_step(time, nv.data());

  // Counts the accepted step and tests the probes on its interval; true
  // once a stopping probe run has every crossing.
  const auto end_step = [&](double step_start) {
    ++out.steps;
    on_step(time, nv.data());
    if (open == 0) return false;
#pragma GCC unroll 1
    for (std::size_t lane = 0; lane < W; ++lane) {
      if (out.crossing[lane]) continue;
      const double v = probe_value(lane);
      out.crossing[lane] = numeric::interval_crossing(step_start, time, previous[lane],
                                                      v, in.level, 0.0, +1);
      if (out.crossing[lane]) --open;
      previous[lane] = v;
    }
    return open == 0 && in.stop_at_crossing;
  };

  // Marks a buffer fired at the current time: the fire instant becomes a
  // breakpoint, and so does the end of its output ramp (a slope
  // discontinuity the step grid must land on, like a StepSpec corner).
  const auto fire_buffer = [&](std::size_t k) {
    fire[k] = time;
    breakpoints.insert(time);
    const double rise = buffers[k].output_rise;
    if (rise > 0.0 && time + rise < t_stop) breakpoints.insert(time + rise);
  };

  // A probe that has not crossed when the window ends steps on from where
  // it is, at the same dt, to 4x the horizon: the new window's source
  // corners become breakpoints, and so do output-ramp ends of buffers the
  // old horizon clipped away. A tile extends together, so its lanes must
  // share their corners out to the last window (sim/transient_batch.h).
  int extensions = 0;
  const auto extend_horizon = [&]() {
    const double previous_stop = t_stop;
    t_stop *= 4.0;
    add_source_breakpoints(c0, t_stop, breakpoints);
    for (std::size_t k = 0; k < buffers.size(); ++k) {
      const double ramp_end = fire[k] + buffers[k].output_rise;
      if (buffers[k].output_rise > 0.0 && ramp_end >= previous_stop &&
          ramp_end < t_stop)
        breakpoints.insert(ramp_end);
    }
    ++extensions;
    OBS_COUNTER_ADD("transient.horizon_extensions", 1);
  };

  int be_steps_left = kBeStepsAfterBreakpoint;
  for (;;) {
    if (time >= t_stop - 0.5 * dt_quantum) {
      if (open == 0 || extensions == kMaxHorizonExtensions) break;
      extend_horizon();
    }
    // Distance to the next breakpoint bounds the step; snap to the cache
    // quantization grid so the factorization and the RHS use the same dt.
    const auto next_bp = breakpoints.upper_bound(time + 0.5 * dt_quantum);
    const double bp_time = (next_bp != breakpoints.end()) ? *next_bp : t_stop;
    double dt = std::min(dt_nominal, bp_time - time);
    dt = std::min(dt, t_stop - time);
    dt = static_cast<double>(quantize(dt)) * dt_quantum;
    if (dt <= 0.0) break;

    const Integrator method =
        (be_steps_left > 0) ? Integrator::kBackwardEuler : Integrator::kTrapezoidal;
    const double step_start = time;
    const Entry* step = &solve(dt, method);

    // Buffer event detection: did any unfired buffer's input cross its
    // threshold during this step? On a symmetric bus several buffers cross
    // SIMULTANEOUSLY (identical lines switching together), so events are a
    // cluster, not a single buffer: everything within a small fraction of
    // the step of the earliest crossing fires together (the interpolated
    // times of "identical" crossings differ by rounding noise only). Firing
    // one alone would leave its twins parked exactly AT their threshold,
    // where a strict crossing test can never trigger again — so an unfired
    // buffer already at/past its threshold also counts as a crossing, at
    // the step start (the belt-and-braces recovery for any parked state).
    std::vector<std::pair<double, std::size_t>> crossings;  // (tc, buffer)
    if constexpr (W == 1) {
      double earliest_event = kInf;  // earliest INTERPOLATED crossing
      for (std::size_t k = 0; k < buffers.size(); ++k) {
        if (fire[k] != kInf) continue;
        const auto& b = buffers[k];
        const double level = b.threshold * b.vdd;
        const auto in_node = static_cast<std::size_t>(b.input);
        const double v_old = b.input == kGround ? 0.0 : nv[in_node];
        const double v_new = b.input == kGround ? 0.0 : x.data()[in_node];
        const bool past_old = b.input_direction >= 0 ? v_old >= level : v_old <= level;
        const bool past_new = b.input_direction >= 0 ? v_new >= level : v_new <= level;
        if (!past_old && !past_new) continue;
        if (past_old) {
          // Parked at/past threshold (the simultaneity recovery): fires at
          // whatever time this step settles on, and — crucially — does NOT
          // enter the subdivision decision, or its step-start tc would mask
          // a genuine mid-step crossing of another buffer.
          crossings.emplace_back(time, k);
          continue;
        }
        const double tc = time + dt * (level - v_old) / (v_new - v_old);
        crossings.emplace_back(tc, k);
        earliest_event = std::min(earliest_event, tc);
      }
      if (!crossings.empty() && earliest_event > time + dt_quantum &&
          earliest_event < time + dt * (1.0 - 1e-9)) {
        // Reject; re-take the step so it ends exactly at the crossing,
        // firing the whole cluster there — parked buffers included (later
        // crossings stay unfired and are re-detected from the shortened
        // step's end state).
        const double dt_event =
            static_cast<double>(quantize(earliest_event - time)) * dt_quantum;
        advance(dt_event, method, solve(dt_event, method));
        const double cluster_window = 1e-6 * dt;
        for (const auto& [tc, k] : crossings)
          if (tc <= earliest_event + cluster_window) fire_buffer(k);
        be_steps_left = kBeStepsAfterBreakpoint;
        if (end_step(step_start)) break;
        continue;
      }
    }

    const bool lands_on_breakpoint =
        next_bp != breakpoints.end() &&
        std::fabs((time + dt) - *next_bp) <= 0.5 * dt_quantum;
    advance(dt, method, *step);
    if (!crossings.empty()) {
      // Crossing at (or numerically at) the step end — or too close to the
      // step start to subdivide: fire every detected crossing here.
      for (const auto& [tc, k] : crossings) fire_buffer(k);
      be_steps_left = kBeStepsAfterBreakpoint;
    } else if (lands_on_breakpoint) {
      be_steps_left = kBeStepsAfterBreakpoint;
    } else if (be_steps_left > 0) {
      --be_steps_left;
    }
    if (end_step(step_start)) break;
  }
  return out;
}

}  // namespace rlcsim::sim::detail
