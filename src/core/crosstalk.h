// Aggressor/victim crosstalk analysis on a coupled bus.
//
// The paper's single-line story — inductance reshapes delay — replays on
// buses as crosstalk: neighbor switching activity moves the victim's
// effective coupling load (the Miller effect on Cc) and injects inductively
// coupled noise, so the victim's 50% delay depends on the switching PATTERN,
// not just the parasitics. This module measures that with the MNA engine:
//
//   * victim 50% delay under same-phase (neighbors switch with the victim,
//     Cc is partially bootstrapped away -> fastest) and opposite-phase
//     (neighbors switch against it, Cc Miller-doubles -> slowest) patterns;
//   * peak noise induced on a QUIET victim by switching aggressors;
//   * delay push-out relative to the isolated single-line delay of the
//     existing moment-matched two-pole model (core/two_pole.h).
//
// The victim is always the bus's middle line (aggressors on both sides).
#pragma once

#include <optional>
#include <vector>

#include "mor/reduce.h"
#include "sim/builders.h"
#include "sim/mna.h"
#include "sim/transient.h"
#include "tline/coupled_bus.h"

namespace rlcsim::core {

// Bus-wide switching patterns, described from the victim's point of view.
enum class SwitchingPattern {
  kQuietVictim,    // victim held low, every aggressor rises (noise analysis)
  kSamePhase,      // every line rises together (fast corner)
  kOppositePhase,  // victim rises, every aggressor falls (slow corner)
};
const char* switching_pattern_name(SwitchingPattern pattern);

// The per-line drive table of a pattern on an N-line bus: shields (per the
// victim-anchored shield_every rule) get kShieldGrounded, the victim and
// aggressors get the pattern's drives. Shared by the crosstalk analyses and
// the repeater-bus chain builder (src/repbus/), so the two subsystems can
// never disagree about what a pattern means.
std::vector<sim::BusDrive> pattern_drives(int lines, int victim,
                                          SwitchingPattern pattern,
                                          int shield_every);

struct CrosstalkOptions {
  double driver_resistance = 0.0;  // per line, > 0
  double load_capacitance = 0.0;   // per line, >= 0
  int segments = 40;               // ladder segments per line
  double vdd = 1.0;
  // Shield insertion: 0 = no shields; s >= 1 grounds (through the driver,
  // both ends — sim::BusDrive::kShieldGrounded) every line whose distance
  // from the victim is a positive multiple of s. s = 1 is the fully
  // shielded bus (every neighbor grounded: with nearest-neighbor coupling
  // the victim sees NO switching aggressor, only the shields' fixed ground
  // load); larger s leaves the victim's neighbors switching and grounds
  // lines further out. Shield lines never switch, whatever the pattern.
  int shield_every = 0;
  // Linear edge duration of every switching driver (slow-slew aggressors);
  // 0 = ideal steps. Honored identically by the transient path (StepSpec
  // rise) and the reduced/analytic paths (AnalyticResponse::add_ramp).
  double source_rise = 0.0;
  // Per-line driver-spec overrides (empty = the pattern's canonical drive
  // table; otherwise exactly one optional entry per line). An engaged entry
  // replaces line i's voltage-source spec after the bus circuit is built —
  // the seam for drive libraries richer than step/ramp: multi-segment PWL
  // edges, finite pulses. Honored IDENTICALLY by the transient and the
  // reduced/projected paths: the reduced decode is exact piecewise
  // superposition (one ramp contribution per linear piece), and it THROWS
  // std::invalid_argument on shapes with no finite superposition (periodic
  // pulse trains) or malformed specs rather than silently approximating.
  std::vector<std::optional<sim::SourceSpec>> drive_overrides;
  // Transient discretization; 0 picks per-scenario defaults
  // (sim::default_transient_horizon of the isolated line; dt = t_stop/4000).
  double t_stop = 0.0;
  double dt = 0.0;
  sim::SolverKind solver = sim::SolverKind::kAuto;
  // Optional cross-run symbolic-factorization reuse (sweep hot path): the
  // transient path uses its system and DC records, the reduced and
  // projected paths its conductance record.
  sim::SolverReuse* reuse = nullptr;
};

// True iff `line` is a shield under the victim-anchored shield_every rule
// above (the victim itself is never a shield).
bool is_shield_line(int line, int victim, int shield_every);

// All metrics come from ONE transient of the given pattern. Optional fields
// are absent — never 0 — when the pattern (or numerics) does not define them.
// peak_noise is NaN when the run did not measure it (a run that stopped at
// the victim's crossing, see analyze_crosstalk).
struct CrosstalkMetrics {
  // First 50% crossing of the victim's far end; absent for kQuietVictim
  // (a quiet victim never switches).
  std::optional<double> victim_delay_50;
  // victim_delay_50 minus isolated_delay_two_pole; absent with either.
  std::optional<double> delay_pushout;
  // Peak victim far-end excursion OUTSIDE its drive envelope [v(0), v(inf)],
  // volts: for a quiet victim this is the classic peak crosstalk noise; for
  // a switching victim it is over/undershoot beyond the rails (which
  // includes the line's own inductive ringing). NaN — not measured — when
  // the run stopped at the crossing (CrossingWindow::kStopAtCrossing): it
  // is never a number scanned from a truncated window.
  double peak_noise = 0.0;
  // Isolated-line 50% delay of the two-pole model for the same driver, line
  // and load — the push-out reference. Absent for kQuietVictim (no push-out
  // to reference) and in the degenerate extreme-damping corner where the
  // two-pole bracket does not exist in double precision.
  std::optional<double> isolated_delay_two_pole;
};

// Simulates the bus under `pattern` and measures the victim. The victim
// transient records the victim's far end alone (no other node is ever
// read); for a switching victim it is a probe run of that node
// (sim::run_until_crossing) whose `window` says how much of it is measured:
//  * kFullWindow (the default) steps the whole window and scans the
//    victim's record for peak_noise; every metric is filled in. A quiet
//    victim runs the same window without a probe.
//  * kStopAtCrossing stops at the step that brackets the victim's 50%
//    crossing: the delay, push-out and isolated reference are the
//    kFullWindow values bit for bit, and peak_noise is NaN (not measured).
//    A quiet victim has no crossing, so nothing is simulated: every
//    optional metric is absent and peak_noise is NaN.
// Throws std::invalid_argument for invalid bus/options (in either window)
// and std::runtime_error if a switching victim never crosses 50% within the
// (auto-extended) horizon.
CrosstalkMetrics analyze_crosstalk(
    const tline::CoupledBus& bus, SwitchingPattern pattern,
    const CrosstalkOptions& options,
    sim::CrossingWindow window = sim::CrossingWindow::kFullWindow);

// Reduced-order ANALYTIC variant of analyze_crosstalk: builds the identical
// bus circuit, AWE-reduces every (victim, switching driver) transfer to
// `order` poles over ONE sparse factorization of G (mor/), superposes the
// closed-form step responses by linearity, and measures the same metrics on
// the formula — no time stepping. order = 2 is the ROADMAP's
// Miller-corrected two-pole victim-delay model: the victim's own two-pole
// dynamics plus two-pole coupling terms whose signs encode the switching
// pattern (the Miller effect on Cc falls out of the cross moments).
//
// options.reuse, when set, shares the symbolic factorization of G across
// sweep points through its `conductance` record. Throws like
// analyze_crosstalk; additionally std::runtime_error if no stable reduced
// model exists.
CrosstalkMetrics analyze_crosstalk_reduced(const tline::CoupledBus& bus,
                                           SwitchingPattern pattern,
                                           const CrosstalkOptions& options,
                                           int order = 4);

// Arnoldi-projection basis of the bus circuit at NOMINAL parameter values,
// for reuse across a sweep: computed once (order is clamped up to the input
// count so no driver loses its DC match), then analyze_crosstalk_projected
// re-evaluates only the projected q x q pencil per point — sparse matvecs
// and dense q x q work, no LU factorization at all. The one Arnoldi run
// factors G through options.reuse's `conductance` record, when set.
mor::ArnoldiBasis crosstalk_projection_basis(const tline::CoupledBus& bus,
                                             SwitchingPattern pattern,
                                             const CrosstalkOptions& options,
                                             int order);

// analyze_crosstalk_reduced evaluated THROUGH a previously computed
// projection basis (sweep::EngineOptions::reuse_projection). Exact at the
// point the basis was built, an approximation elsewhere; accuracy degrades
// smoothly with parameter distance. A structurally different circuit (the
// basis dimension no longer matches) falls back to a fresh per-point
// reduction at the basis order, so mixed-topology grids stay correct.
CrosstalkMetrics analyze_crosstalk_projected(const tline::CoupledBus& bus,
                                             SwitchingPattern pattern,
                                             const CrosstalkOptions& options,
                                             const mor::ArnoldiBasis& basis);

}  // namespace rlcsim::core
