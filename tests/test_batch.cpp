// Batched solver core (numeric/sparse_batch.h + the seams above it): the
// whole feature rests on ONE claim — a W-lane batch produces bit-identical
// numbers to W independent scalar runs — so these tests compare raw bytes
// (memcmp), not tolerances: solver lanes vs scalar SparseLu (including an
// engineered zero-pivot ejection), batched AnalyticResponse evaluation vs
// the scalar closed form, and batched transient sweeps across every
// (lane width, thread count) combination including tile remainders and NaN
// points. Plus the zero-coupling pattern regression: a coupling axis through
// 0 must keep ONE sparsity pattern (2 symbolic factorizations per sweep).
#include "numeric/sparse_batch.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/crosstalk.h"
#include "mor/reduce.h"
#include "mor/response.h"
#include "numeric/interpolate.h"
#include "numeric/sparse.h"
#include "obs/metrics.h"
#include "sim/builders.h"
#include "sim/mna.h"
#include "sim/transient_batch.h"
#include "sweep/sweep.h"

namespace {

using namespace rlcsim;
using numeric::BatchedValues;
using numeric::RealSparse;
using numeric::RealSparseLu;
using numeric::SparseLuBatch;

// Bitwise double-vector comparison: NaN == NaN, +0 != -0.
void expect_bits_equal(const std::vector<double>& a,
                       const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << what;
  }
}

// Deterministic random diagonally-bumped sparse system (the ladder-like
// shape every MNA matrix here has: strong diagonal, scattered off-diagonals).
std::vector<numeric::Triplet<double>> random_system(int n, double density,
                                                    unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<numeric::Triplet<double>> t;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      if (i == j)
        t.push_back({i, j, 2.0 + value(rng)});
      else if (coin(rng) < density)
        t.push_back({i, j, value(rng)});
    }
  return t;
}

TEST(BatchedValuesTest, RejectsUnsupportedLaneWidths) {
  for (std::size_t lanes : {std::size_t{0}, std::size_t{2}, std::size_t{3},
                            std::size_t{5}, std::size_t{16}}) {
    EXPECT_THROW(BatchedValues(4, lanes), std::invalid_argument) << lanes;
  }
  EXPECT_TRUE(numeric::is_supported_lane_width(1));
  EXPECT_TRUE(numeric::is_supported_lane_width(4));
  EXPECT_TRUE(numeric::is_supported_lane_width(8));
  EXPECT_FALSE(numeric::is_supported_lane_width(2));
}

TEST(BatchedValuesTest, LaneTransfersRoundTrip) {
  BatchedValues v(3, 4);
  v.set_lane(2, {1.0, 2.0, 3.0});
  EXPECT_EQ(v.at(1, 2), 2.0);
  std::vector<double> out;
  v.extract_lane(2, out);
  EXPECT_EQ(out, (std::vector<double>{1.0, 2.0, 3.0}));
  v.clear_lane(2);
  v.extract_lane(2, out);
  EXPECT_EQ(out, (std::vector<double>{0.0, 0.0, 0.0}));
  EXPECT_THROW(v.set_lane(4, {0.0, 0.0, 0.0}), std::out_of_range);
  EXPECT_THROW(v.set_lane(0, {0.0}), std::invalid_argument);
}

// The core property: refactor + solve of W value lanes over one donor
// factorization is byte-for-byte the W scalar refactor + solve results.
TEST(SparseLuBatchTest, BitIdenticalToScalarLanes) {
  for (const int n : {7, 23, 60}) {
    for (const std::size_t lanes : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
      const auto base = random_system(n, 4.0 / n, 17u + static_cast<unsigned>(n));
      const RealSparse donor_matrix(n, base);
      const RealSparseLu donor(donor_matrix);
      const std::size_t nnz = static_cast<std::size_t>(donor_matrix.nnz());

      // Per-lane variants: same pattern, perturbed values (lane 0 keeps the
      // donor's own values — the "same matrix" lane must reproduce it too).
      std::mt19937 rng(99u + static_cast<unsigned>(n));
      std::uniform_real_distribution<double> bump(0.5, 1.5);
      std::vector<std::vector<double>> lane_values(lanes, donor_matrix.values());
      std::vector<std::vector<double>> lane_rhs(lanes);
      for (std::size_t w = 0; w < lanes; ++w) {
        if (w > 0)
          for (double& x : lane_values[w]) x *= bump(rng);
        lane_rhs[w].resize(static_cast<std::size_t>(n));
        for (double& x : lane_rhs[w]) x = bump(rng) - 1.0;
      }

      BatchedValues values(nnz, lanes), rhs(static_cast<std::size_t>(n), lanes);
      for (std::size_t w = 0; w < lanes; ++w) {
        values.set_lane(w, lane_values[w]);
        rhs.set_lane(w, lane_rhs[w]);
      }
      SparseLuBatch batch(donor, lanes);
      batch.refactor(values);
      EXPECT_EQ(batch.ejected_lane_count(), 0u);
      batch.solve_in_place(rhs);

      for (std::size_t w = 0; w < lanes; ++w) {
        RealSparseLu scalar(donor);  // copy: same recorded symbolic analysis
        scalar.refactor(RealSparse(donor_matrix.pattern_ptr(), lane_values[w]));
        const std::vector<double> expected = scalar.solve(lane_rhs[w]);
        std::vector<double> got;
        rhs.extract_lane(w, got);
        expect_bits_equal(expected, got, "solver lane");
      }
    }
  }
}

// A lane whose values turn the recorded pivot exactly zero must eject to
// the scalar path alone (scalar refactor re-pivots there), leaving every
// other lane batched — and the stats must account for all of it.
TEST(SparseLuBatchTest, ZeroPivotLaneEjectsIndividually) {
  // [[5, 1], [1, 1]] (2 unknowns: no RCM): |5| > |1| makes row 0 the
  // recorded first pivot unambiguously, so a lane with a00 = 0 hits an
  // exactly-zero stale pivot — while its matrix [[0, 1], [1, 1]] stays
  // nonsingular for the re-pivoting scalar fallback.
  const RealSparse donor_matrix(
      2, {{0, 0, 5.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 1.0}});
  const RealSparseLu donor(donor_matrix);
  const std::size_t lanes = 4;

  std::vector<std::vector<double>> lane_values(lanes, donor_matrix.values());
  for (double& x : lane_values[2])
    if (x == 5.0) x = 0.0;  // lane 2: zero where the recorded pivot sits
  for (double& x : lane_values[3]) x *= 1.5;

  BatchedValues values(static_cast<std::size_t>(donor_matrix.nnz()), lanes);
  for (std::size_t w = 0; w < lanes; ++w) values.set_lane(w, lane_values[w]);

  const numeric::SparseLuStats before = numeric::sparse_lu_stats();
  SparseLuBatch batch(donor, lanes);
  batch.refactor(values);
  EXPECT_EQ(batch.ejected_lane_count(), 1u);
  EXPECT_FALSE(batch.lane_ejected(0));
  EXPECT_TRUE(batch.lane_ejected(2));
  // 3 batched numeric passes + the ejected lane's full scalar
  // refactorization (1 symbolic + 1 numeric).
  const numeric::SparseLuStats after = numeric::sparse_lu_stats();
  EXPECT_EQ(after.ejected_lanes - before.ejected_lanes, 1u);
  EXPECT_EQ(after.symbolic - before.symbolic, 1u);
  EXPECT_EQ(after.numeric - before.numeric, lanes);

  BatchedValues rhs(2, lanes);
  const std::vector<double> b{1.0, 2.0};
  for (std::size_t w = 0; w < lanes; ++w) rhs.set_lane(w, b);
  batch.solve_in_place(rhs);
  for (std::size_t w = 0; w < lanes; ++w) {
    RealSparseLu scalar(donor);
    scalar.refactor(RealSparse(donor_matrix.pattern_ptr(), lane_values[w]));
    std::vector<double> got;
    rhs.extract_lane(w, got);
    expect_bits_equal(scalar.solve(b), got, "ejected-lane solve");
  }
}

// ----------------------------------------------------- AnalyticResponse

mor::PoleResidueModel oscillatory_model() {
  mor::PoleResidueModel model;
  model.poles = {{-1.0e9, 0.0}, {-4.0e8, 3.0e9}, {-4.0e8, -3.0e9}};
  model.residues = {{1.2e9, 0.0}, {-0.6e9, 2.0e8}, {-0.6e9, -2.0e8}};
  model.dc_gain = 0.9;
  model.delay = 2.0e-10;
  return model;
}

TEST(AnalyticResponseBatch, ValuesBitIdenticalToScalarEvaluation) {
  mor::AnalyticResponse response(0.05);
  response.add_step(oscillatory_model(), 1.0);
  response.add_ramp(oscillatory_model(), -0.4, /*rise=*/3.0e-10,
                    /*start=*/1.0e-10);

  // 257 samples (non-multiple of the 8-wide block) spanning the pre-onset
  // zeros, the onset edges, the ramp window, and the settled tail.
  const std::size_t count = 257;
  std::vector<double> times(count), batched(count), scalar(count);
  for (std::size_t i = 0; i < count; ++i) {
    times[i] = 3.0e-9 * static_cast<double>(i) / static_cast<double>(count - 1);
    scalar[i] = response.value(times[i]);
  }
  response.values(times.data(), batched.data(), count);
  expect_bits_equal(scalar, batched, "analytic response block");

  // Odd partial block on its own.
  std::vector<double> small(13);
  response.values(times.data(), small.data(), 13);
  for (std::size_t i = 0; i < 13; ++i) EXPECT_EQ(small[i], scalar[i]);
}

TEST(AnalyticResponseBatch, FirstCrossingStillRefinesExactly) {
  // Single-pole step 1 - exp(-t/tau): the blocked coarse scan must bracket
  // and Brent-refine the same crossing, tau * ln(2).
  const double tau = 1.0e-9;
  mor::PoleResidueModel model;
  model.poles = {{-1.0 / tau, 0.0}};
  model.residues = {{1.0 / tau, 0.0}};
  model.dc_gain = 1.0;
  mor::AnalyticResponse response;
  response.add_step(model, 1.0);
  const auto crossing = response.first_crossing(0.5, +1);
  ASSERT_TRUE(crossing.has_value());
  EXPECT_NEAR(*crossing, tau * std::log(2.0), 1e-6 * tau);
  const auto metrics = response.measure(0.0, 1.0);
  ASSERT_TRUE(metrics.delay_50.has_value());
  EXPECT_EQ(*metrics.delay_50, *crossing);
}

// ------------------------------------------------------------- sweeps

// The grid of the existing sweep tests: 27 points — deliberately NOT a
// multiple of 4 or 8, so every batched run exercises a remainder tile.
sweep::SweepSpec small_grid() {
  sweep::SweepSpec spec;
  spec.base.system = {500.0, {1000.0, 1e-7, 1e-12}, 0.5e-12};
  spec.axes = {
      sweep::values(sweep::Variable::kDriverResistance, {200.0, 500.0, 900.0}),
      sweep::logspace(sweep::Variable::kLineInductance, 1e-8, 1e-6, 3),
      sweep::values(sweep::Variable::kLoadCapacitance, {0.1e-12, 0.5e-12, 1e-12}),
  };
  return spec;
}

sweep::EngineOptions batch_options(std::size_t threads, std::size_t lanes,
                                   const sweep::SweepSpec& spec) {
  sweep::EngineOptions options;
  options.threads = threads;
  options.lanes = lanes;
  options.segments = 25;
  // Batching needs the shared grid an explicit t_stop provides: the largest
  // per-scenario default horizon keeps every point's crossing inside it.
  for (std::size_t i = 0; i < spec.size(); ++i)
    options.t_stop = std::max(
        options.t_stop, sim::default_transient_horizon(spec.at(i).system));
  options.dt = options.t_stop / 2000.0;
  return options;
}

TEST(SweepBatch, TransientSweepBitIdenticalAcrossLanesAndThreads) {
  const sweep::SweepSpec spec = small_grid();
  const sweep::SweepEngine reference(batch_options(1, 1, spec));
  const auto scalar = reference.run(spec, sweep::Analysis::kTransientDelay);
  ASSERT_EQ(scalar.values.size(), spec.size());
  for (double v : scalar.values) EXPECT_TRUE(std::isfinite(v));

  for (const std::size_t lanes : {std::size_t{4}, std::size_t{8}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      const sweep::SweepEngine engine(batch_options(threads, lanes, spec));
      const auto batched = engine.run(spec, sweep::Analysis::kTransientDelay);
      expect_bits_equal(scalar.values, batched.values, "batched sweep");
      // Symbolic-reuse contract is unchanged by batching: one system + one
      // DC analysis for the whole sweep.
      EXPECT_EQ(batched.symbolic_factorizations, 2u)
          << lanes << " lanes, " << threads << " threads";
    }
  }
}

TEST(SweepBatch, TinyGridFallsThroughScalar) {
  // 2 points < any batch width: the undersized tile must fall through to
  // the scalar path and still match a lanes=1 engine bitwise.
  sweep::SweepSpec spec;
  spec.base.system = {500.0, {1000.0, 1e-7, 1e-12}, 0.5e-12};
  spec.axes = {
      sweep::values(sweep::Variable::kDriverResistance, {300.0, 800.0})};
  const sweep::SweepEngine scalar_engine(batch_options(1, 1, spec));
  const sweep::SweepEngine batch_engine(batch_options(2, 8, spec));
  const auto a = scalar_engine.run(spec, sweep::Analysis::kTransientDelay);
  const auto b = batch_engine.run(spec, sweep::Analysis::kTransientDelay);
  expect_bits_equal(a.values, b.values, "undersized tile");
}

TEST(SweepBatch, PointAccountingSumsAndSplitsHonestly) {
  // The batched/scalar split is the only witness of WHERE points ran (the
  // fallback is bit-identical by design, so values can't tell). Regression:
  // the counters must always sum to the grid size, a scalar engine must
  // report zero batched points, and a batched engine on the 27-point grid
  // must batch the 3 full tiles (the seeded reference point and the
  // remainder ride the scalar path).
  const sweep::SweepSpec spec = small_grid();
  const sweep::SweepEngine scalar(batch_options(1, 1, spec));
  const auto a = scalar.run(spec, sweep::Analysis::kTransientDelay);
  EXPECT_EQ(a.batched_points, 0u);
  EXPECT_EQ(a.scalar_points, spec.size());

  for (const std::size_t lanes : {std::size_t{4}, std::size_t{8}}) {
    const sweep::SweepEngine engine(batch_options(2, lanes, spec));
    const auto b = engine.run(spec, sweep::Analysis::kTransientDelay);
    EXPECT_EQ(b.batched_points + b.scalar_points, spec.size()) << lanes;
    EXPECT_GE(b.batched_points, 24u) << lanes;  // 3 full tiles of 8 / 6 of 4
    EXPECT_EQ(b.ejected_lanes, 0u) << lanes;
  }

  // run_custom has no batch path: everything is a scalar point.
  const auto c = scalar.run_custom(
      17, [](std::size_t i, sweep::SweepEngine::PointContext&) {
        return static_cast<double>(i);
      });
  EXPECT_EQ(c.batched_points, 0u);
  EXPECT_EQ(c.scalar_points, 17u);
}

TEST(SweepBatch, RejectsUnsupportedLaneCount) {
  sweep::SweepSpec spec = small_grid();
  sweep::EngineOptions options = batch_options(1, 1, spec);
  options.lanes = 3;
  const sweep::SweepEngine engine(options);
  EXPECT_THROW(engine.run(spec, sweep::Analysis::kTransientDelay),
               std::invalid_argument);
}

TEST(SweepBatch, NaNPointsStayDeterministicAcrossLanesAndThreads) {
  // A switching-pattern axis with a quiet victim yields NaN delay points;
  // bitwise determinism must hold through them at every (lanes, threads).
  sweep::SweepSpec spec;
  spec.base.system = {500.0, {1000.0, 1e-7, 1e-12}, 0.5e-12};
  spec.base.xtalk.bus_lines = 3;
  spec.base.xtalk.cc_ratio = 0.4;
  spec.axes = {
      sweep::switching_patterns({core::SwitchingPattern::kQuietVictim,
                                 core::SwitchingPattern::kSamePhase,
                                 core::SwitchingPattern::kOppositePhase}),
      sweep::values(sweep::Variable::kDriverResistance, {300.0, 800.0}),
  };
  sweep::EngineOptions base;
  base.segments = 12;
  const sweep::SweepEngine reference(base);
  const auto scalar = reference.run(spec, sweep::Analysis::kCrosstalkDelay);
  ASSERT_EQ(scalar.values.size(), 6u);
  EXPECT_TRUE(std::isnan(scalar.values[0]));  // quiet victim
  EXPECT_TRUE(std::isfinite(scalar.values[2]));

  for (const std::size_t lanes : {std::size_t{4}, std::size_t{8}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      sweep::EngineOptions options = base;
      options.threads = threads;
      options.lanes = lanes;
      const sweep::SweepEngine engine(options);
      const auto result = engine.run(spec, sweep::Analysis::kCrosstalkDelay);
      expect_bits_equal(scalar.values, result.values, "NaN-point sweep");
    }
  }
}

// ------------------------------------------- early-stopped batched lanes

// The Table-1 grid (Rtr = 500 ohm, Ct = 1 pF; RT x Lt x CT) as a sweep.
sweep::SweepSpec table1_spec() {
  sweep::SweepSpec spec;
  spec.base.system = {500.0, {1000.0, 1e-7, 1e-12}, 0.5e-12};
  spec.axes = {
      sweep::values(sweep::Variable::kLineResistance, {5000.0, 1000.0, 500.0}),
      sweep::values(sweep::Variable::kLineInductance, {1e-5, 1e-6, 1e-7, 1e-8}),
      sweep::values(sweep::Variable::kLoadCapacitance,
                    {0.1e-12, 0.5e-12, 1e-12}),
  };
  return spec;
}

TEST(EarlyStop, Table1BatchedLanesMatchFullWindowCrossings) {
  // Reference: find_crossing over each point's FULL-window record at the
  // shared horizon. Lanes retire at their bracketing step and tiles are cut
  // from the eq. 9-sorted order; neither may change a bit.
  const sweep::SweepSpec spec = table1_spec();
  const sweep::EngineOptions base = batch_options(1, 1, spec);
  sim::TransientOptions transient;
  transient.t_stop = base.t_stop;
  transient.dt = base.dt;
  std::vector<sim::Circuit> circuits;
  std::vector<double> reference;
  for (std::size_t i = 0; i < spec.size(); ++i) {
    circuits.push_back(sim::build_gate_line_load(spec.at(i).system, base.segments));
    const sim::TransientResult full = sim::run_transient(circuits.back(), transient);
    reference.push_back(*numeric::find_crossing(
        full.waveforms.time(), full.waveforms.trace("out").value(), 0.5, 0.0, +1));
  }

  // W = 1 tiles straight through the batched stepper.
  sim::SolverReuse reuse;
  transient.reuse = &reuse;
  (void)sim::run_transient(circuits[0], transient);  // seeds the records
  std::vector<double> single;
  for (const sim::Circuit& circuit : circuits) {
    const auto crossing =
        sim::run_batched_crossings({circuit}, "out", 0.5, transient, "W=1");
    ASSERT_TRUE(crossing);
    single.push_back(crossing->front());
  }
  expect_bits_equal(reference, single, "W=1 batched lanes");

  for (const std::size_t lanes : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      const sweep::SweepEngine engine(batch_options(threads, lanes, spec));
      const auto result = engine.run(spec, sweep::Analysis::kTransientDelay);
      expect_bits_equal(reference, result.values, "sorted-tile sweep");
      if (lanes > 1) {
        EXPECT_GE(result.batched_points, 32u) << lanes;
      }
    }
  }
}

// ------------------------------------------- batch ineligibility reasons

std::uint64_t ineligible_count(const char* name) {
  return obs::Counter(name).this_thread_value();
}

TEST(BatchIneligible, UnseededReuseCountsItsReason) {
  const tline::GateLineLoad system{500.0, {1000.0, 1e-7, 1e-12}, 0.5e-12};
  const std::vector<sim::Circuit> tile(4, sim::build_gate_line_load(system, 25));
  sim::TransientOptions options;
  options.t_stop = sim::default_transient_horizon(system);
  const std::uint64_t before = ineligible_count("batch.ineligible.unseeded");
  EXPECT_FALSE(sim::run_batched_crossings(tile, "out", 0.5, options, "unseeded"));
  EXPECT_EQ(ineligible_count("batch.ineligible.unseeded") - before,
            obs::metrics_enabled() ? 1u : 0u);
}

// The option reason covers the two settable step options: a missing
// horizon and a dt no shorter than it. The scalar run throws for both.
TEST(BatchIneligible, OptionsCountTheirReason) {
  const tline::GateLineLoad system{500.0, {1000.0, 1e-7, 1e-12}, 0.5e-12};
  const std::vector<sim::Circuit> tile(4, sim::build_gate_line_load(system, 25));
  sim::TransientOptions no_horizon;
  sim::TransientOptions long_step;
  long_step.t_stop = 1e-9;
  long_step.dt = 1e-9;
  for (const sim::TransientOptions& options : {no_horizon, long_step}) {
    const std::uint64_t before = ineligible_count("batch.ineligible.options");
    EXPECT_FALSE(sim::run_batched_crossings(tile, "out", 0.5, options, "options"));
    EXPECT_EQ(ineligible_count("batch.ineligible.options") - before,
              obs::metrics_enabled() ? 1u : 0u);
    EXPECT_THROW((void)sim::run_transient(tile[0], options), std::invalid_argument);
  }
}

TEST(BatchIneligible, BuffersCountTheirReason) {
  const tline::GateLineLoad system{500.0, {1000.0, 1e-7, 1e-12}, 0.5e-12};
  sim::SolverReuse reuse;
  sim::TransientOptions options;
  options.t_stop = sim::default_transient_horizon(system);
  options.reuse = &reuse;
  (void)sim::run_transient(sim::build_gate_line_load(system, 25), options);
  ASSERT_TRUE(reuse.system.symbolic);

  sim::RepeaterChainSpec chain;
  chain.line = {1000.0, 1e-7, 1e-12};
  chain.sections = 2;
  chain.size = 10.0;
  chain.r0 = 1000.0;
  chain.c0 = 5e-15;
  chain.segments_per_section = 10;
  const std::vector<sim::Circuit> tile(4, sim::build_repeater_chain(chain));
  const std::uint64_t before = ineligible_count("batch.ineligible.buffers");
  EXPECT_FALSE(
      sim::run_batched_crossings(tile, "stage2.out", 0.5, options, "buffers"));
  EXPECT_EQ(ineligible_count("batch.ineligible.buffers") - before,
            obs::metrics_enabled() ? 1u : 0u);
}

// A ladder driven through Rtr by `drive` (nodes "vin", "drv", "out").
sim::Circuit driven_ladder(const tline::GateLineLoad& system,
                           const sim::SourceSpec& drive) {
  sim::Circuit circuit;
  circuit.add_voltage_source("vin", "0", drive);
  circuit.add_resistor("vin", "drv", system.driver_resistance);
  sim::add_rlc_ladder(circuit, "line", "drv", "out", system.line, 25);
  circuit.add_capacitor("out", "0", system.load_capacitance);
  return circuit;
}

TEST(BatchIneligible, BreakpointsBeyondTheFirstWindowCountTheirReason) {
  // A tile extends together, so its lanes must share source corners in
  // every window an extension can reach, not only inside t_stop.
  const tline::GateLineLoad system{500.0, {1000.0, 1e-7, 1e-12}, 0.5e-12};
  sim::SolverReuse reuse;
  sim::TransientOptions options;
  options.t_stop = sim::default_transient_horizon(system);
  options.reuse = &reuse;
  const auto pwl = [&](double corner) {
    return sim::PwlSpec{{{0.0, 0.0}, {50e-12, 1.0}, {corner * options.t_stop, 1.0}}};
  };
  std::vector<sim::Circuit> tile(4, driven_ladder(system, pwl(3.0)));
  tile[0] = driven_ladder(system, pwl(2.0));
  (void)sim::run_transient(tile[0], options);  // seeds the records
  std::uint64_t before = ineligible_count("batch.ineligible.breakpoints");
  EXPECT_FALSE(sim::run_batched_crossings(tile, "out", 0.5, options, "pwl"));
  EXPECT_EQ(ineligible_count("batch.ineligible.breakpoints") - before,
            obs::metrics_enabled() ? 1u : 0u);

  // A pulse train whose last reachable window holds more than 1e6 cycles
  // cannot be enumerated that far: ineligible, not a throw.
  sim::PulseSpec pulse;
  pulse.rise = pulse.fall = 1e-15;
  pulse.period = options.t_stop / 20000.0;
  pulse.width = 0.4 * pulse.period;
  const std::vector<sim::Circuit> pulsed(4, driven_ladder(system, pulse));
  before = ineligible_count("batch.ineligible.breakpoints");
  EXPECT_FALSE(sim::run_batched_crossings(pulsed, "out", 0.5, options, "pulse"));
  EXPECT_EQ(ineligible_count("batch.ineligible.breakpoints") - before,
            obs::metrics_enabled() ? 1u : 0u);
}

// ------------------------------------------- generated tiles vs scalar runs
// The stepper's kernels have a branch per element kind and per lane-shared
// or per-lane source spec; sweep tiles reach only a few. These tiles are
// generated to reach every branch at W = 4 and W = 8.

// splitmix64: a seeded stream whose values are fixed by the seed alone, on
// every platform and standard library.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform(double lo, double hi) {  // [lo, hi)
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

tline::GateLineLoad random_system(SplitMix64& rng) {
  const double rtr = rng.uniform(100.0, 1000.0);
  const tline::LineParams line{rng.uniform(500.0, 5000.0), rng.uniform(1e-8, 1e-6),
                               rng.uniform(0.5e-12, 2e-12)};
  return {rtr, line, rng.uniform(0.1e-12, 1e-12)};
}

// A ladder driven by a Norton source: `amplitude` volts across Rtr.
sim::Circuit current_driven(const tline::GateLineLoad& system, double amplitude) {
  sim::Circuit circuit;
  circuit.add_current_source("0", "drv",
                             sim::StepSpec{0.0, amplitude / system.driver_resistance});
  circuit.add_resistor("drv", "0", system.driver_resistance);
  sim::add_rlc_ladder(circuit, "line", "drv", "out", system.line, 25);
  circuit.add_capacitor("out", "0", system.load_capacitance);
  return circuit;
}

std::uint64_t extensions_counted() {
  return obs::Counter("transient.horizon_extensions").this_thread_value();
}

// Steps `tile` batched, then each lane through scalar run_until_crossing on
// the same seeded records: every crossing must match bit for bit, and the
// tile extends its horizon as often as its slowest lane's scalar run.
// Returns the crossings.
std::vector<double> expect_tile_matches_scalar(const std::vector<sim::Circuit>& tile,
                                               const std::string& node,
                                               sim::TransientOptions options,
                                               const char* what) {
  sim::SolverReuse reuse;
  options.reuse = &reuse;
  (void)sim::run_transient(tile[0], options);  // seeds the records
  const std::uint64_t before = extensions_counted();
  const auto batched = sim::run_batched_crossings(tile, node, 0.5, options, what);
  const std::uint64_t tile_extensions = extensions_counted() - before;
  EXPECT_TRUE(batched) << what;
  if (!batched) return {};
  std::vector<double> scalar;
  std::uint64_t most = 0;
  for (const sim::Circuit& circuit : tile) {
    const std::uint64_t lane_before = extensions_counted();
    scalar.push_back(
        sim::run_until_crossing(circuit, node, 0.5, options, what).crossing);
    most = std::max(most, extensions_counted() - lane_before);
  }
  expect_bits_equal(scalar, *batched, what);
  EXPECT_EQ(tile_extensions, most) << what;
  return scalar;
}

TEST(GeneratedTiles, EveryKernelBranchMatchesScalarRuns) {
  SplitMix64 rng(0x5eed);
  for (const std::size_t lanes : {std::size_t{4}, std::size_t{8}}) {
    std::vector<tline::GateLineLoad> systems;
    sim::TransientOptions options;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      systems.push_back(random_system(rng));
      options.t_stop =
          std::max(options.t_stop, sim::default_transient_horizon(systems.back()));
    }
    options.dt = options.t_stop / 2000.0;

    std::vector<sim::Circuit> ladders, amplitudes, shared_current, own_current, buses;
    for (const tline::GateLineLoad& system : systems) {
      ladders.push_back(sim::build_gate_line_load(system, 25));
      amplitudes.push_back(
          sim::build_gate_line_load(system, 25, rng.uniform(0.8, 1.5)));
      shared_current.push_back(current_driven(system, 1.0));
      own_current.push_back(current_driven(system, rng.uniform(0.8, 1.5)));
      sim::CoupledLinesSpec bus;
      bus.line = system.line;
      bus.coupling_capacitance = rng.uniform(0.1, 0.5) * system.line.total_capacitance;
      bus.inductive_k = rng.uniform(0.1, 0.6);
      bus.segments = 15;
      buses.push_back(sim::build_crosstalk_pair(bus, system.driver_resistance,
                                                system.load_capacitance));
    }
    expect_tile_matches_scalar(ladders, "out", options, "ladders");
    expect_tile_matches_scalar(amplitudes, "out", options, "per-lane amplitude");
    expect_tile_matches_scalar(shared_current, "out", options, "current source");
    expect_tile_matches_scalar(own_current, "out", options, "per-lane current");
    expect_tile_matches_scalar(buses, "agg.out", options, "K-coupled bus");
  }
}

TEST(GeneratedTiles, LanesExtendWithTheirTile) {
  // An RC-dominated ladder's delay scales with its capacitance, so lanes
  // scaled 1x, ~5x and ~20x from a base that crosses inside t_stop cross in
  // the first window, after one extension and after two.
  SplitMix64 rng(0xe47e);
  const tline::GateLineLoad base{200.0, {2000.0, 1e-8, 1e-12}, 0.2e-12};
  const auto scaled = [&](double factor) {
    tline::GateLineLoad system = base;
    system.line.total_capacitance *= factor;
    system.load_capacitance *= factor;
    return sim::build_gate_line_load(system, 25);
  };
  sim::TransientOptions options;
  options.t_stop = sim::default_transient_horizon(base);
  options.t_stop =
      2.0 * sim::run_until_crossing(scaled(1.0), "out", 0.5, options, "base").crossing;
  options.dt = options.t_stop / 1000.0;
  for (const std::size_t lanes : {std::size_t{4}, std::size_t{8}}) {
    std::vector<sim::Circuit> tile;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const double factor[] = {1.0, 5.0, 20.0};
      tile.push_back(scaled(factor[lane % 3] * rng.uniform(1.0, 1.2)));
    }
    const std::vector<double> crossings =
        expect_tile_matches_scalar(tile, "out", options, "extended lanes");
    ASSERT_EQ(crossings.size(), lanes);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const double window_end[] = {1.0, 4.0, 16.0};
      EXPECT_LE(crossings[lane], window_end[lane % 3] * options.t_stop) << lane;
      EXPECT_GT(crossings[lane], window_end[lane % 3] / 4.0 * options.t_stop) << lane;
    }
  }
}

TEST(GeneratedTiles, NeverCrossingLaneThrowsTheScalarMessage) {
  SplitMix64 rng(0x10a7);
  sim::SolverReuse reuse;
  sim::TransientOptions options;
  std::vector<sim::Circuit> tile;
  for (std::size_t lane = 0; lane < 4; ++lane) {
    const tline::GateLineLoad system = random_system(rng);
    options.t_stop = std::max(options.t_stop, sim::default_transient_horizon(system));
    tile.push_back(sim::build_gate_line_load(system, 25, lane == 2 ? 0.4 : 1.0));
  }
  options.dt = options.t_stop / 500.0;  // the 64x horizon in 32000 steps
  options.reuse = &reuse;
  (void)sim::run_transient(tile[0], options);  // seeds the records
  const auto message = [&](auto&& run) {
    try {
      run();
    } catch (const std::runtime_error& error) {
      return std::string(error.what());
    }
    return std::string("no throw");
  };
  const std::string scalar = message(
      [&] { (void)sim::run_until_crossing(tile[2], "out", 0.5, options, "settles"); });
  EXPECT_EQ(scalar.rfind("settles: 'out'", 0), 0u) << scalar;
  const std::string batched = message(
      [&] { (void)sim::run_batched_crossings(tile, "out", 0.5, options, "settles"); });
  EXPECT_EQ(batched, scalar);
}

// ------------------------------------------- zero-coupling pattern fork

TEST(ZeroCouplingPattern, StructuralStampsKeepOnePattern) {
  const tline::LineParams line{1000.0, 1e-7, 1e-12};
  const auto bus_of = [&](double cc_ratio) {
    return tline::make_bus(2, line, cc_ratio, 0.0);
  };
  const auto circuit_of = [&](double cc_ratio) {
    sim::Circuit c;
    c.add_resistor("in0", "0", 50.0, "g0");
    c.add_resistor("in1", "0", 50.0, "g1");
    sim::add_coupled_bus(c, "bus", {"in0", "in1"}, {"out0", "out1"},
                         bus_of(cc_ratio), 6);
    return c;
  };
  const sim::MnaAssembler zero(circuit_of(0.0));
  const sim::MnaAssembler coupled(circuit_of(0.5));
  EXPECT_EQ(zero.system_pattern()->row_ptr, coupled.system_pattern()->row_ptr);
  EXPECT_EQ(zero.system_pattern()->col_idx, coupled.system_pattern()->col_idx);
}

// The acceptance regression: a coupling axis whose range INCLUDES 0 stays
// on the 1-symbolic-factorization-per-matrix-kind contract (2 total).
TEST(ZeroCouplingPattern, SweepThroughZeroKeepsTwoFactorizations) {
  sweep::SweepSpec spec;
  spec.base.system = {500.0, {1000.0, 1e-7, 1e-12}, 0.5e-12};
  spec.base.xtalk.bus_lines = 3;
  spec.axes = {
      sweep::values(sweep::Variable::kCouplingCapRatio, {0.0, 0.3, 0.6})};
  sweep::EngineOptions options;
  options.segments = 12;
  options.threads = 1;
  const sweep::SweepEngine engine(options);
  const auto result = engine.run(spec, sweep::Analysis::kCrosstalkNoise);
  ASSERT_EQ(result.values.size(), 3u);
  for (double v : result.values) EXPECT_TRUE(std::isfinite(v));
  EXPECT_EQ(result.symbolic_factorizations, 2u);
}

}  // namespace
