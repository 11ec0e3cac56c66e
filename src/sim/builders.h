// Circuit construction helpers for the structures this library studies:
// lumped ladders for distributed lines, gate + line + load systems, and
// repeater chains (paper, Fig. 3).
#pragma once

#include <string>
#include <vector>

#include "sim/circuit.h"
#include "sim/transient.h"
#include "tline/coupled_bus.h"
#include "tline/rlc.h"
#include "tline/transfer.h"

namespace rlcsim::sim {

// One lumped-pi segment stamped between two EXISTING nodes: shunt c_half at
// each end, series r_seg then l_seg (l_seg == 0 skips the inductor and its
// midpoint node). This is the per-element stamping primitive — ladders,
// coupled buses, and branching wire trees all compose it over their own node
// graphs instead of each hand-rolling the element loop.
void add_pi_segment(Circuit& circuit, const std::string& tag,
                    const std::string& near, const std::string& far,
                    double r_seg, double l_seg, double c_half);

// Appends an N-segment lumped-pi RLC ladder between `in` and `out`.
// Each segment: shunt Ct/2N at the near node, series Rt/N then Lt/N, shunt
// Ct/2N at the far node. Internal nodes are "<prefix>.mN"/"<prefix>.nN".
void add_rlc_ladder(Circuit& circuit, const std::string& prefix, const std::string& in,
                    const std::string& out, const tline::LineParams& line, int segments);

// ------------------------------------------------- branching wire trees
// Per-element topology stamping beyond point-to-point ladders: a branching
// interconnect tree (multi-sink fanout nets, clock-tree stages). Branch k
// starts where its parent branch ends (parent == -1 roots at the driven
// input) and runs its own RLC totals over `segments` ladder cells to its far
// node. Multiple branches sharing one parent make that parent's far node a
// branch point; `sink_capacitance` models a receiver gate or the next
// stage's buffer input at the branch's far end.
struct WireBranch {
  int parent = -1;                // index of the upstream branch; -1 = root
  tline::LineParams line;         // this branch's own totals
  int segments = 1;
  double sink_capacitance = 0.0;  // explicit load at the far end, F (>= 0)
};
struct WireTree {
  std::vector<WireBranch> branches;
};

// Throws std::invalid_argument (naming the branch) on empty trees, a parent
// index that does not precede the branch (the topological-order contract —
// it also makes cycles unrepresentable), bad segment counts, negative sink
// loads, or invalid line totals.
void validate(const WireTree& tree);

// Stamps the tree rooted at `in`. Branch k's far node is "<prefix>.b<k>.end"
// (collected in `ends`, one per branch, when non-null): leaf ends are the
// tree's sinks, but interior branch points are addressable outputs too.
void add_wire_tree(Circuit& circuit, const std::string& prefix,
                   const std::string& in, const WireTree& tree,
                   std::vector<std::string>* ends = nullptr);

// Builds the canonical system: step source (0 -> vdd at t=0, linear rise
// `source_rise`) behind Rtr, driving the ladder into CL. Nodes: "vin" (ideal
// source), "drv" (after Rtr), "out" (far end).
Circuit build_gate_line_load(const tline::GateLineLoad& system, int segments,
                             double vdd = 1.0, double source_rise = 0.0);

// The automatic simulation horizon simulate_gate_line_delay (and the sweep
// engine) start from: several times the larger of the Elmore delay and the
// time of flight.
double default_transient_horizon(const tline::GateLineLoad& system);

// Runs a transient probing `node` (TransientOptions::probe) and returns the
// result together with its first rising crossing of `level`. If the
// response has not crossed within options.t_stop, the run steps on from
// where it is, at the same dt, to 4x the horizon, up to
// kMaxHorizonExtensions times (4x/16x/64x); throws std::runtime_error
// prefixed with `context` if it never crosses. The shared auto-extend
// policy of every delay-measuring entry point. kStopAtCrossing (delay-only
// callers, core::analyze_crosstalk among them when no noise is wanted)
// stops at the step that brackets the crossing and records `node` alone
// (it sets options.record_only). kFullWindow (callers that also scan the
// waveform: analyze_crosstalk for its noise, repbus::simulate_bus_chain)
// steps to the end of the window, extended or not, that holds the crossing
// and records what options.record_only says: analyze_crosstalk names its
// victim, simulate_bus_chain leaves it absent and records every node.
struct DelayRun {
  TransientResult result;
  double crossing = 0.0;  // s
};
DelayRun run_until_crossing(const Circuit& circuit, const std::string& node,
                            double level, TransientOptions options,
                            const char* context,
                            CrossingWindow window = CrossingWindow::kStopAtCrossing);

// Convenience: simulate build_gate_line_load and return the 50% delay of
// "out". `t_stop` = 0 picks a horizon from the system's time scales
// automatically; `dt` = 0 picks t_stop / 4000.
double simulate_gate_line_delay(const tline::GateLineLoad& system, int segments = 100,
                                double t_stop = 0.0, double dt = 0.0,
                                double threshold = 0.5);

// Two identical parallel RLC ladders ("aggressor" and "victim") with
// capacitive and inductive coupling per segment — the crosstalk structure
// wide parallel buses and clock shields form. `coupling_capacitance` is the
// TOTAL line-to-line capacitance; `inductive_k` couples corresponding
// segment inductors. A convenience wrapper over add_coupled_bus with a
// 2-line tline::CoupledBus (inductive_k == Lm/Lt).
struct CoupledLinesSpec {
  tline::LineParams line;            // each line's own totals
  double coupling_capacitance = 0.0; // total Cc between the lines, F
  double inductive_k = 0.0;          // mutual coefficient per segment, [0, 1)
  int segments = 40;
};
void add_coupled_lines(Circuit& circuit, const std::string& prefix,
                       const std::string& in_a, const std::string& out_a,
                       const std::string& in_b, const std::string& out_b,
                       const CoupledLinesSpec& spec);

// Crosstalk testbench: aggressor driven by a step behind `driver_resistance`,
// victim held by an identical quiescent driver; both loaded with
// `load_capacitance`. Nodes: "agg.out", "vic.out".
Circuit build_crosstalk_pair(const CoupledLinesSpec& spec, double driver_resistance,
                             double load_capacitance, double vdd = 1.0);

// Peak |voltage| induced on the quiet victim's far end, volts.
double simulate_crosstalk_peak(const CoupledLinesSpec& spec,
                               double driver_resistance, double load_capacitance,
                               double t_stop = 0.0);

// Appends a tline::CoupledBus as N parallel K-segment RLC ladders with
// per-pair coupling: Cc/K between corresponding ladder nodes of coupled
// lines and mutual inductance Lm/K (coefficient k = Lm/Lt) between
// corresponding segment inductors. Nearest-neighbor buses stamp adjacent
// pairs only (the fast path); full-coupling buses (CoupledBus::full_cc/lm)
// stamp EVERY pair with a nonzero total. Heterogeneous buses use each
// line's own totals and each pair's own Cc/Lm. Line i runs from ins[i] to outs[i];
// internal elements are named "<prefix>.l<i>...". All coupling stamps land
// in the MNA C-triplet set over the shared G/C pattern (sim/mna.h), so the
// sparse symbolic-reuse path applies to buses exactly as to single lines.
// A zero adjacent-pair Cc (and a zero Lm between two inductive lines)
// still stamps a STRUCTURAL element — an explicit 0 in the CSR values on
// the same pattern — so a coupling axis whose range includes 0 keeps ONE
// sparsity pattern and ONE symbolic factorization across the whole sweep.
// (Entirely-zero far pairs are never stamped: no axis varies them.)
void add_coupled_bus(Circuit& circuit, const std::string& prefix,
                     const std::vector<std::string>& ins,
                     const std::vector<std::string>& outs,
                     const tline::CoupledBus& bus, int segments);

// What each bus line's driver does during a bus transition.
enum class BusDrive {
  kQuietLow,   // held at 0 V through the driver (noise victim)
  kQuietHigh,  // held at vdd through the driver
  kRising,     // steps 0 -> vdd at t = 0
  kFalling,    // steps vdd -> 0 at t = 0 (pre-switch DC level is vdd)
  kShieldGrounded,  // a shield track: tied to ground through the driver
                    // resistance at the NEAR end and through an equal tie
                    // resistance at the FAR end (dual-ended grounding, the
                    // standard shield practice), and no receiver load. The
                    // far-end tie lands on a matrix position the load cap
                    // already occupies, so shield placement sweeps keep ONE
                    // sparsity pattern and stay on the symbolic-reuse path.
};

// Bus crosstalk testbench: every line driven per `drives` behind
// `driver_resistance`, loaded with `load_capacitance`. drives.size() must
// equal bus.lines. Nodes: "line<i>.in" (ideal source), "line<i>.drv",
// "line<i>.out" (far end), i in [0, bus.lines). `source_rise` > 0 gives
// every switching drive a linear edge of that duration (slow-slew
// aggressors); 0 keeps ideal steps.
Circuit build_coupled_bus(const tline::CoupledBus& bus,
                          const std::vector<BusDrive>& drives,
                          double driver_resistance, double load_capacitance,
                          int segments, double vdd = 1.0, double source_rise = 0.0);

// Repeater chain per Fig. 3: k equal line sections, each driven by a buffer
// h times the minimum size (output resistance r0/h, input capacitance h*c0).
// The first stage is an ideal step behind r0/h; stages 2..k are behavioral
// buffers switching at 50% of vdd; the final section is loaded by h*c0
// (the input of the next stage of logic).
//
// Node of interest: "stage<k>.out" — the far end of the last section. The
// total delay of the repeater system is the 50% crossing of that node (the
// final load's voltage), matching the paper's k * tpd_section definition.
struct RepeaterChainSpec {
  tline::LineParams line;  // totals of the WHOLE line
  int sections = 1;        // k
  double size = 1.0;       // h
  double r0 = 0.0;         // minimum-buffer output resistance
  double c0 = 0.0;         // minimum-buffer input capacitance
  int segments_per_section = 40;
  double vdd = 1.0;
};
Circuit build_repeater_chain(const RepeaterChainSpec& spec);

// Simulates the chain and returns the 50% delay at the final load.
double simulate_repeater_chain_delay(const RepeaterChainSpec& spec, double t_stop = 0.0,
                                     double dt = 0.0);

}  // namespace rlcsim::sim
