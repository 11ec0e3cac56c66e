// Transient analysis engine.
//
// Fixed-step implicit integration (trapezoidal) with SPICE-style
// breakpoint handling: the step grid always lands exactly on source
// discontinuities and buffer switching instants, and the first two steps
// after each discontinuity use backward Euler to damp the trapezoidal
// rule's spurious oscillation on jumps.
//
// One stepper (sim/stepper.h) serves every run, templated on the lane
// width W: run_transient steps one circuit at W = 1, and
// run_batched_crossings (sim/transient_batch.h) steps a tile of W = 4/8
// circuits of one topology in lockstep. Both share its option check,
// breakpoint set, dt quantization, LU cache, backward-Euler rule, probe
// test, horizon extension and companion-model kernels. Only W = 1 runs
// have buffers, the dense solver and waveform recording:
//
// Buffer events are located by step rejection: when a buffer's input crosses
// its threshold inside a step, the step is re-taken so it ends exactly at the
// (interpolated) crossing time, the buffer is marked fired there, and
// integration restarts from that breakpoint.
//
// Solver policy: the assembled MNA system is G + (factor/dt)*C over one
// fixed sparsity pattern (see sim/mna.h). Below kSparseSolverThreshold
// unknowns the dense LU wins on constant factors and doubles as the
// correctness oracle; at or above it the engine switches to the sparse LU,
// whose symbolic factorization is computed once per run (or replayed from
// TransientOptions::reuse) and shared by every (dt, integrator) numeric
// factorization. Step sizes are quantized onto a grid of 1e-9 * dt before
// keying the LU cache, so breakpoint-clipped dt values that differ only by
// ulps reuse one factorization instead of triggering spurious
// refactorizations.
//
// Recording: one rule. A run records the node voltages at t = 0 and after
// every accepted step: of the node TransientOptions::record_only names, or
// of every node when it names none. What a run records never changes what
// it computes: the named node's samples are the every-node record's
// samples bit for bit.
//
// Probe runs: a caller that waits for one node's first rising crossing of
// a level names it in TransientOptions::probe. The run checks each new
// sample interval of that node with numeric::find_crossing's test as it is
// produced, and reports the crossing in TransientResult::crossing. Its
// CrossingWindow says only when the run ends: kStopAtCrossing at the first
// step that brackets the crossing (the recorded prefix is the full record's
// prefix sample for sample, so the crossing is the one a full-window run
// reports, bit for bit), kFullWindow at the end of the window.
// sim::run_until_crossing records the probe node alone when it stops at the
// crossing. Delay-only callers stop at the crossing: sweep kTransientDelay,
// simulate_gate_line_delay, simulate_repeater_chain_delay and the crosstalk
// delay and push-out sweeps. Callers that also scan the waveform run the
// full window: core::analyze_crosstalk when its noise is wanted (its
// default), which records the victim's far end alone, and
// repbus::simulate_bus_chain and the bench/mor_accuracy reference, which
// record every node. A probe that has not crossed when the window ends
// extends the horizon: the run keeps stepping from where it is, at the
// same dt, out to 4x the previous horizon, at most kMaxHorizonExtensions
// times (each counted under the obs counter transient.horizon_extensions).
// An extended run takes the steps a single run at the final horizon and the
// same dt takes.
#pragma once

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "numeric/sparse.h"
#include "sim/circuit.h"
#include "sim/mna.h"
#include "sim/waveform.h"

namespace rlcsim::sim {

// Cross-run symbolic reuse for sweeps: one numeric::SymbolicRecord per
// matrix kind a grid point factors, all replayed through the one rule
// numeric::factor_reusing. A sweep evaluates thousands of circuits that
// differ only in element VALUES; handing the same bundle to every point on
// a worker means the first point pays the symbolic analyses and every later
// point refactors numerically along the recorded pivot orders. A circuit of
// another topology bypasses the records and leaves them untouched.
struct SolverReuse {
  numeric::SymbolicRecord system;       // G + (factor/dt)C, the transient step
  numeric::SymbolicRecord dc;           // the DC operating-point matrix
  numeric::SymbolicRecord conductance;  // G alone, for mor moment generation
};

// How far a probe run steps once its crossing is known.
enum class CrossingWindow {
  kStopAtCrossing,  // stop at the step that brackets the crossing
  kFullWindow,      // finish the window (waveform scans)
};

// The one node a caller waits on, and the level of its rising crossing.
struct TransientProbe {
  std::string node;
  double level = 0.0;  // volts
  CrossingWindow window = CrossingWindow::kStopAtCrossing;
};

// Horizon extensions (4x each: 4x/16x/64x) a probe run takes before it
// reports no crossing.
inline constexpr int kMaxHorizonExtensions = 3;

// The integration rule (trapezoidal, backward Euler for the first steps
// after a breakpoint), the DC Gmin and the dt quantum are fixed (see
// sim/stepper.h); a run chooses only its window, step and solver.
struct TransientOptions {
  double t_stop = 0.0;      // required, > 0
  double dt = 0.0;          // 0 -> t_stop / 4000
  SolverKind solver = SolverKind::kAuto;
  // Optional cross-run symbolic-factorization reuse (sweep hot path): the
  // run factors its DC and system matrices through reuse->dc and
  // reuse->system. The pointee must outlive the run. Ignored on the dense
  // solver path.
  SolverReuse* reuse = nullptr;
  // Watch this node for its crossing (see the top of this file). Absent:
  // run the whole window, which is never extended.
  std::optional<TransientProbe> probe{};
  // Record this node alone (see the top of this file). Absent: record
  // every node. The obs counter transient.recorded_values adds each run's
  // samples times recorded nodes.
  std::optional<std::string> record_only{};
};

struct TransientResult {
  WaveformSet waveforms;
  std::vector<double> buffer_fire_times;  // +inf where a buffer never fired
  std::size_t steps_taken = 0;
  std::size_t lu_factorizations = 0;  // numeric factorizations (cache misses)
  bool used_sparse_solver = false;
  // Probe runs: the probe node's first crossing (absent if it never
  // crossed, horizon extensions included).
  std::optional<double> crossing;
};

// Runs a transient analysis. Throws std::invalid_argument for bad options
// (including a probe or record_only node the circuit does not have) and
// std::runtime_error if the MNA matrix is singular.
TransientResult run_transient(const Circuit& circuit, const TransientOptions& options);

// Source discontinuity times within [0, t_stop]: step corners, PWL points,
// and every pulse edge of every cycle whose start lies in the window
// (bounded by t_stop/period). Throws std::invalid_argument for pulse trains
// of more than 1e6 cycles — no transient could land on that many edges, so
// such a spec is an error rather than something to truncate silently.
// Exposed for testing.
void collect_source_breakpoints(const SourceSpec& spec, double t_stop,
                                std::set<double>& out);

namespace detail {
// `crossing`, or the std::runtime_error, prefixed with `context`, that a
// delay entry point throws when its probe of `node` never crossed.
double crossed(const std::optional<double>& crossing, const char* context,
               const std::string& node);
}  // namespace detail

}  // namespace rlcsim::sim
