// Coupled multi-line bus (CoupledBus) + crosstalk analysis tests, plus the
// sentinel-metric regression tests: bandwidth_3db and measure_step must
// report "not in record" as ABSENT, never as a fabricated 0, and the
// two-pole threshold query must fail loudly instead of handing the root
// finder an unbracketed interval.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/crosstalk.h"
#include "core/two_pole.h"
#include "obs/obs.h"
#include "sim/ac.h"
#include "sim/builders.h"
#include "sim/transient.h"
#include "sweep/sweep.h"
#include "tline/coupled_bus.h"
#include "tline/step_response.h"

namespace {

using namespace rlcsim;

// Each line: moderately damped wide wire so delays are well-defined.
const tline::LineParams kLine{200.0, 5e-9, 1e-12};
constexpr double kRdrv = 100.0;
constexpr double kCload = 50e-15;

core::CrosstalkOptions options_for(int segments) {
  core::CrosstalkOptions opt;
  opt.driver_resistance = kRdrv;
  opt.load_capacitance = kCload;
  opt.segments = segments;
  return opt;
}

// ---------------------------------------------------------------------------
// CoupledBus model
// ---------------------------------------------------------------------------

TEST(CoupledBus, MakeBusDerivesTotalsFromRatios) {
  const tline::CoupledBus bus = tline::make_bus(4, kLine, 0.5, 0.3);
  EXPECT_EQ(bus.lines, 4);
  EXPECT_DOUBLE_EQ(bus.coupling_capacitance, 0.5 * kLine.total_capacitance);
  EXPECT_DOUBLE_EQ(bus.mutual_inductance, 0.3 * kLine.total_inductance);
  EXPECT_DOUBLE_EQ(bus.cc_ratio(), 0.5);
  EXPECT_DOUBLE_EQ(bus.lm_ratio(), 0.3);
  EXPECT_EQ(bus.victim_index(), 1);
  EXPECT_EQ(tline::make_bus(2, kLine, 0.0, 0.0).victim_index(), 0);
  EXPECT_EQ(tline::make_bus(5, kLine, 0.0, 0.0).victim_index(), 2);
  EXPECT_FALSE(tline::describe(bus).empty());
}

TEST(CoupledBus, PositiveDefinitenessBoundTightensWithWidth) {
  // k < 1/(2 cos(pi/(N+1))): 1 for a pair, -> 1/2 for wide buses.
  EXPECT_NEAR(tline::max_lm_ratio(2), 1.0, 1e-12);
  EXPECT_NEAR(tline::max_lm_ratio(3), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(tline::max_lm_ratio(5), 1.0 / std::sqrt(3.0), 1e-12);
  // k = 0.8 is a valid pair but an indefinite (unstable) 5-line bus; the
  // N-dependent bound must reject it up front instead of letting the
  // transient silently diverge.
  EXPECT_NO_THROW(tline::make_bus(2, kLine, 0.1, 0.8));
  EXPECT_THROW(tline::make_bus(5, kLine, 0.1, 0.8), std::invalid_argument);
}

TEST(CoupledBus, ValidationRejectsBadFields) {
  EXPECT_THROW(tline::make_bus(1, kLine, 0.1, 0.1), std::invalid_argument);
  EXPECT_THROW(tline::make_bus(3, kLine, -0.1, 0.1), std::invalid_argument);
  EXPECT_THROW(tline::make_bus(3, kLine, 0.1, -0.1), std::invalid_argument);
  // k >= 1 would make the segment inductance matrix singular/indefinite.
  EXPECT_THROW(tline::make_bus(3, kLine, 0.1, 1.0), std::invalid_argument);
  tline::CoupledBus nan_bus;
  nan_bus.lines = 3;
  nan_bus.line = kLine;
  nan_bus.coupling_capacitance = std::nan("");
  EXPECT_THROW(tline::validate(nan_bus), std::invalid_argument);
  // The line itself is validated too (RC-only lines are rejected).
  EXPECT_THROW(tline::make_bus(3, {100.0, 0.0, 1e-12}, 0.1, 0.0),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// MNA builder
// ---------------------------------------------------------------------------

TEST(CoupledBusBuilder, StampsLaddersAndNearestNeighborCoupling) {
  const tline::CoupledBus bus = tline::make_bus(3, kLine, 0.3, 0.2);
  const int segments = 6;
  const sim::Circuit c = sim::build_coupled_bus(
      bus, {sim::BusDrive::kRising, sim::BusDrive::kQuietLow,
            sim::BusDrive::kFalling},
      kRdrv, kCload, segments);
  EXPECT_NO_THROW(c.validate());
  EXPECT_EQ(c.inductors().size(), 3u * segments);
  // Nearest-neighbor only: 2 adjacent pairs x segments mutuals.
  EXPECT_EQ(c.mutuals().size(), 2u * segments);
  for (const auto& m : c.mutuals()) EXPECT_DOUBLE_EQ(m.coupling, 0.2);
  // Each adjacent pair's line-to-line capacitance sums to the total Cc.
  for (const char* pair : {"bus.p0.cc", "bus.p1.cc"}) {
    double cc = 0.0;
    for (const auto& cap : c.capacitors())
      if (cap.name.rfind(pair, 0) == 0) cc += cap.capacitance;
    EXPECT_NEAR(cc, bus.coupling_capacitance, 1e-24) << pair;
  }
}

TEST(CoupledBusBuilder, Validation) {
  const tline::CoupledBus bus = tline::make_bus(2, kLine, 0.2, 0.1);
  sim::Circuit c;
  EXPECT_THROW(sim::add_coupled_bus(c, "b", {"a"}, {"x", "y"}, bus, 4),
               std::invalid_argument);
  EXPECT_THROW(sim::add_coupled_bus(c, "b", {"a", "b"}, {"x", "y"}, bus, 0),
               std::invalid_argument);
  EXPECT_THROW(
      sim::build_coupled_bus(bus, {sim::BusDrive::kRising}, kRdrv, kCload, 4),
      std::invalid_argument);
  EXPECT_THROW(sim::build_coupled_bus(
                   bus, {sim::BusDrive::kRising, sim::BusDrive::kRising}, 0.0,
                   kCload, 4),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Acceptance: 2-line K-segment coupled transient, sparse vs dense <= 1e-9
// ---------------------------------------------------------------------------

TEST(CoupledBusCrossValidate, SparseMatchesDenseOracle) {
  const tline::CoupledBus bus = tline::make_bus(2, kLine, 0.4, 0.3);
  const sim::Circuit c = sim::build_coupled_bus(
      bus, {sim::BusDrive::kRising, sim::BusDrive::kQuietLow}, kRdrv, kCload,
      30);

  sim::TransientOptions opt;
  opt.t_stop = 4e-9;
  const auto run_with = [&](sim::SolverKind solver) {
    opt.solver = solver;
    return sim::run_transient(c, opt);
  };
  const auto dense = run_with(sim::SolverKind::kDense);
  const auto sparse = run_with(sim::SolverKind::kSparse);
  EXPECT_FALSE(dense.used_sparse_solver);
  EXPECT_TRUE(sparse.used_sparse_solver);

  for (const char* node : {"line0.out", "line1.out", "line0.drv", "line1.drv"}) {
    const sim::Trace dense_trace = dense.waveforms.trace(node);
    const sim::Trace sparse_trace = sparse.waveforms.trace(node);
    const auto& vd = dense_trace.value();
    const auto& vs = sparse_trace.value();
    ASSERT_EQ(vd.size(), vs.size());
    double max_err = 0.0;
    for (std::size_t i = 0; i < vd.size(); ++i)
      max_err = std::max(max_err, std::fabs(vd[i] - vs[i]));
    EXPECT_LE(max_err, 1e-9) << node;
  }
}

// ---------------------------------------------------------------------------
// Acceptance: zero-coupling bus reproduces the isolated-line 50% delay
// ---------------------------------------------------------------------------

TEST(Crosstalk, ZeroCouplingBusMatchesIsolatedLineDelay) {
  const int segments = 24;
  const tline::CoupledBus bus = tline::make_bus(3, kLine, 0.0, 0.0);
  const auto metrics = core::analyze_crosstalk(
      bus, core::SwitchingPattern::kSamePhase, options_for(segments));
  ASSERT_TRUE(metrics.victim_delay_50.has_value());

  const tline::GateLineLoad isolated{kRdrv, kLine, kCload};
  const double reference = sim::simulate_gate_line_delay(isolated, segments);
  EXPECT_NEAR(*metrics.victim_delay_50, reference, 1e-6 * reference);

  // Push-out bookkeeping is exactly victim minus the two-pole reference.
  ASSERT_TRUE(metrics.delay_pushout.has_value());
  ASSERT_TRUE(metrics.isolated_delay_two_pole.has_value());
  EXPECT_DOUBLE_EQ(*metrics.delay_pushout,
                   *metrics.victim_delay_50 - *metrics.isolated_delay_two_pole);

  // And a quiet victim between decoupled neighbors hears nothing.
  const auto quiet = core::analyze_crosstalk(
      bus, core::SwitchingPattern::kQuietVictim, options_for(segments));
  EXPECT_FALSE(quiet.victim_delay_50.has_value());
  EXPECT_FALSE(quiet.delay_pushout.has_value());
  EXPECT_LT(quiet.peak_noise, 1e-9);
}

TEST(Crosstalk, MillerEffectOrdersThePatternCorners) {
  const tline::CoupledBus bus = tline::make_bus(3, kLine, 0.5, 0.0);
  const auto opt = options_for(16);
  const auto same =
      core::analyze_crosstalk(bus, core::SwitchingPattern::kSamePhase, opt);
  const auto opposite =
      core::analyze_crosstalk(bus, core::SwitchingPattern::kOppositePhase, opt);
  ASSERT_TRUE(same.victim_delay_50 && opposite.victim_delay_50);
  // Opposite-phase neighbors Miller-amplify Cc; same-phase bootstraps it away.
  EXPECT_GT(*opposite.victim_delay_50, *same.victim_delay_50);
  EXPECT_GT(*opposite.delay_pushout, *same.delay_pushout);
}

TEST(Crosstalk, QuietVictimNoiseGrowsWithCoupling) {
  const auto opt = options_for(16);
  const auto noise_at = [&](double cc_ratio) {
    const tline::CoupledBus bus = tline::make_bus(3, kLine, cc_ratio, 0.0);
    return core::analyze_crosstalk(bus, core::SwitchingPattern::kQuietVictim, opt)
        .peak_noise;
  };
  const double weak = noise_at(0.1);
  const double strong = noise_at(0.5);
  EXPECT_GT(weak, 1e-3);
  EXPECT_GT(strong, weak);
  EXPECT_LT(strong, 1.0);  // bounded by the supply
}

// ---------------------------------------------------------------------------
// Shield insertion
// ---------------------------------------------------------------------------

TEST(Shields, VictimAnchoredPlacementRule) {
  // shield_every = s grounds every line whose distance from the victim is a
  // positive multiple of s; the victim itself never is one.
  EXPECT_FALSE(core::is_shield_line(2, 2, 1));
  EXPECT_TRUE(core::is_shield_line(1, 2, 1));
  EXPECT_TRUE(core::is_shield_line(4, 2, 1));
  EXPECT_FALSE(core::is_shield_line(1, 2, 2));
  EXPECT_TRUE(core::is_shield_line(0, 2, 2));
  EXPECT_TRUE(core::is_shield_line(4, 2, 2));
  EXPECT_FALSE(core::is_shield_line(3, 2, 0));  // 0 = no shields
}

TEST(Shields, FullShieldingKillsNoiseAndDelaySpread) {
  const tline::CoupledBus bus = tline::make_bus(5, kLine, 0.4, 0.25);
  auto opt = options_for(16);

  const auto unshielded_quiet =
      core::analyze_crosstalk(bus, core::SwitchingPattern::kQuietVictim, opt);
  opt.shield_every = 1;  // every neighbor grounded
  const auto shielded_quiet =
      core::analyze_crosstalk(bus, core::SwitchingPattern::kQuietVictim, opt);
  // Nearest-neighbor coupling + grounded neighbors = no aggressor path.
  EXPECT_GT(unshielded_quiet.peak_noise, 0.05);
  EXPECT_LT(shielded_quiet.peak_noise, 1e-6);

  const auto same =
      core::analyze_crosstalk(bus, core::SwitchingPattern::kSamePhase, opt);
  const auto opposite =
      core::analyze_crosstalk(bus, core::SwitchingPattern::kOppositePhase, opt);
  ASSERT_TRUE(same.victim_delay_50 && opposite.victim_delay_50);
  // The switching pattern no longer matters...
  EXPECT_NEAR(*same.victim_delay_50, *opposite.victim_delay_50,
              1e-6 * *same.victim_delay_50);
  // ...but the shields' fixed ground load costs delay vs the bootstrapped
  // same-phase corner of the unshielded bus.
  opt.shield_every = 0;
  const auto free_same =
      core::analyze_crosstalk(bus, core::SwitchingPattern::kSamePhase, opt);
  EXPECT_GT(*same.victim_delay_50, *free_same.victim_delay_50);
}

TEST(Shields, ReducedPathAgreesWithTransient) {
  const tline::CoupledBus bus = tline::make_bus(5, kLine, 0.4, 0.25);
  auto opt = options_for(16);
  opt.shield_every = 2;
  const auto full =
      core::analyze_crosstalk(bus, core::SwitchingPattern::kOppositePhase, opt);
  const auto reduced = core::analyze_crosstalk_reduced(
      bus, core::SwitchingPattern::kOppositePhase, opt, 4);
  ASSERT_TRUE(full.victim_delay_50 && reduced.victim_delay_50);
  EXPECT_NEAR(*reduced.victim_delay_50, *full.victim_delay_50,
              0.03 * *full.victim_delay_50);
}

// ---------------------------------------------------------------------------
// Heterogeneous buses
// ---------------------------------------------------------------------------

TEST(HeterogeneousBus, UniformVectorsMatchUniformBus) {
  const tline::CoupledBus uniform = tline::make_bus(3, kLine, 0.3, 0.2);
  const tline::CoupledBus hetero = tline::make_bus(
      {kLine, kLine, kLine},
      {uniform.coupling_capacitance, uniform.coupling_capacitance},
      {uniform.mutual_inductance, uniform.mutual_inductance});
  ASSERT_TRUE(hetero.heterogeneous());
  const auto opt = options_for(12);
  const auto a =
      core::analyze_crosstalk(uniform, core::SwitchingPattern::kOppositePhase, opt);
  const auto b =
      core::analyze_crosstalk(hetero, core::SwitchingPattern::kOppositePhase, opt);
  ASSERT_TRUE(a.victim_delay_50 && b.victim_delay_50);
  // Same electrical network, bit-identical assembly path.
  EXPECT_DOUBLE_EQ(*a.victim_delay_50, *b.victim_delay_50);
  EXPECT_DOUBLE_EQ(a.peak_noise, b.peak_noise);
}

TEST(HeterogeneousBus, PerLineAccessorsAndValidation) {
  tline::LineParams wide = kLine;
  wide.total_resistance = 100.0;
  const tline::CoupledBus bus =
      tline::make_bus({kLine, wide, kLine}, {0.2e-12, 0.4e-12}, {1e-9, 2e-9});
  EXPECT_DOUBLE_EQ(bus.line_at(1).total_resistance, 100.0);
  EXPECT_DOUBLE_EQ(bus.pair_cc(1), 0.4e-12);
  EXPECT_DOUBLE_EQ(bus.pair_lm(0), 1e-9);
  // Scalar mirrors track line 0 / pair 0.
  EXPECT_DOUBLE_EQ(bus.line.total_resistance, kLine.total_resistance);
  EXPECT_DOUBLE_EQ(bus.coupling_capacitance, 0.2e-12);

  // Size mismatches are named errors.
  EXPECT_THROW(tline::make_bus({kLine, kLine}, {0.1e-12, 0.1e-12}, {1e-9}),
               std::invalid_argument);
  EXPECT_THROW(tline::make_bus({kLine}, {}, {}), std::invalid_argument);
}

TEST(HeterogeneousBus, TridiagonalBoundGeneralizesMaxLmRatio) {
  // The LDLt test on equal entries must agree with the closed-form uniform
  // bound 1/(2 cos(pi/(N+1))).
  const double k_max = tline::max_lm_ratio(5);
  const std::vector<double> self(5, 1.0);
  EXPECT_TRUE(tline::mutual_chain_positive_definite(
      self, std::vector<double>(4, 0.99 * k_max)));
  EXPECT_FALSE(tline::mutual_chain_positive_definite(
      self, std::vector<double>(4, 1.01 * k_max)));

  // A heterogeneous chain that every PAIRWISE bound accepts but the chain
  // rejects: k = 0.8 per pair is fine for N = 2 yet indefinite at N = 5.
  const std::vector<double> lines(5, kLine.total_inductance);
  const std::vector<double> strong(4, 0.8 * kLine.total_inductance);
  EXPECT_FALSE(tline::mutual_chain_positive_definite(lines, strong));
  EXPECT_THROW(
      tline::make_bus(std::vector<tline::LineParams>(5, kLine),
                      std::vector<double>(4, 0.1e-12), strong),
      std::invalid_argument);
}

TEST(HeterogeneousBus, AsymmetricCouplingShiftsTheVictim) {
  // Strong coupling on one side only: the victim hears that neighbor more.
  const auto opt = options_for(12);
  const tline::CoupledBus left_heavy = tline::make_bus(
      {kLine, kLine, kLine}, {0.5e-12, 0.05e-12}, {1e-9, 0.1e-9});
  const tline::CoupledBus balanced = tline::make_bus(
      {kLine, kLine, kLine}, {0.275e-12, 0.275e-12}, {0.55e-9, 0.55e-9});
  const auto heavy = core::analyze_crosstalk(
      left_heavy, core::SwitchingPattern::kOppositePhase, opt);
  const auto even = core::analyze_crosstalk(
      balanced, core::SwitchingPattern::kOppositePhase, opt);
  ASSERT_TRUE(heavy.victim_delay_50 && even.victim_delay_50);
  // Both are valid slow corners; they must differ (the coupling topology
  // matters, not just the totals) and stay the same order of magnitude.
  EXPECT_NE(*heavy.victim_delay_50, *even.victim_delay_50);
  EXPECT_NEAR(*heavy.victim_delay_50, *even.victim_delay_50,
              0.5 * *even.victim_delay_50);
}

// ---------------------------------------------------------------------------
// Sweep integration: crosstalk axes ride the pool, bit-identical
// ---------------------------------------------------------------------------

sweep::SweepSpec crosstalk_spec() {
  sweep::SweepSpec spec;
  spec.base.system = {kRdrv, kLine, kCload};
  spec.base.xtalk.bus_lines = 3;
  spec.axes = {
      sweep::linspace(sweep::Variable::kCouplingCapRatio, 0.0, 0.6, 3),
      sweep::values(sweep::Variable::kMutualRatio, {0.0, 0.2}),
      sweep::switching_patterns({core::SwitchingPattern::kSamePhase,
                                 core::SwitchingPattern::kOppositePhase,
                                 core::SwitchingPattern::kQuietVictim}),
  };
  return spec;
}

TEST(CrosstalkSweep, BitIdenticalAcrossThreadCounts) {
  const sweep::SweepSpec spec = crosstalk_spec();
  const auto run_with = [&](std::size_t threads) {
    sweep::EngineOptions options;
    options.threads = threads;
    options.segments = 12;
    const sweep::SweepEngine engine(options);
    return engine.run(spec, sweep::Analysis::kCrosstalkDelay);
  };
  const auto one = run_with(1);
  const auto four = run_with(4);
  ASSERT_EQ(one.values.size(), spec.size());
  ASSERT_EQ(four.values.size(), one.values.size());
  // Bitwise comparison: quiet-victim points are NaN (absent), and NaN !=
  // NaN would hide a genuine mismatch elsewhere.
  EXPECT_EQ(std::memcmp(one.values.data(), four.values.data(),
                        one.values.size() * sizeof(double)),
            0);

  // Quiet-victim points are absent (NaN), switching points are real delays.
  for (std::size_t i = 0; i < spec.size(); ++i) {
    const auto pattern = spec.at(i).xtalk.pattern;
    if (pattern == core::SwitchingPattern::kQuietVictim)
      EXPECT_TRUE(std::isnan(one.values[i])) << i;
    else
      EXPECT_GT(one.values[i], 0.0) << i;
  }
}

TEST(CrosstalkSweep, NoiseAnalysisAndReuse) {
  // Strictly positive coupling everywhere: a zero Cc or Lm value would drop
  // those stamps from the sparsity pattern and fork the grid into several
  // topologies (each paying its own symbolic analysis). With one topology
  // the whole grid replays point 0's recorded pair.
  sweep::SweepSpec spec;
  spec.base.system = {kRdrv, kLine, kCload};
  spec.base.xtalk.bus_lines = 3;
  spec.axes = {
      sweep::linspace(sweep::Variable::kCouplingCapRatio, 0.2, 0.6, 3),
      sweep::values(sweep::Variable::kMutualRatio, {0.1, 0.2}),
      sweep::switching_patterns({core::SwitchingPattern::kSamePhase,
                                 core::SwitchingPattern::kOppositePhase,
                                 core::SwitchingPattern::kQuietVictim}),
  };
  sweep::EngineOptions options;
  options.threads = 2;
  options.segments = 12;
  const sweep::SweepEngine engine(options);
  const auto result = engine.run(spec, sweep::Analysis::kCrosstalkNoise);
  // Noise is defined for every pattern; no NaN anywhere.
  for (double v : result.values) EXPECT_TRUE(std::isfinite(v));
  // One topology: 2 symbolic factorizations (system + DC) total, recorded at
  // point 0 and replayed by every worker.
  EXPECT_EQ(result.symbolic_factorizations, 2u);
  EXPECT_GT(result.solver_reuse_hits, 0u);
}

// What a crosstalk sweep must reproduce bit for bit: analyze_crosstalk with
// its full-window default, in grid order, every point replaying the symbolic
// records point 0 seeded (as every sweep worker does).
std::vector<double> full_window_values(const sweep::SweepSpec& spec,
                                       const sweep::EngineOptions& engine,
                                       sweep::Analysis analysis) {
  sim::SolverReuse reuse;
  std::vector<double> values;
  for (std::size_t i = 0; i < spec.size(); ++i) {
    const sweep::Scenario s = spec.at(i);
    const tline::CoupledBus bus = tline::make_bus(
        s.xtalk.bus_lines, s.system.line, s.xtalk.cc_ratio, s.xtalk.lm_ratio);
    core::CrosstalkOptions opt;
    opt.driver_resistance = s.system.driver_resistance;
    opt.load_capacitance = s.system.load_capacitance;
    opt.segments = engine.segments;
    opt.shield_every = s.xtalk.shield_every;
    opt.t_stop = engine.t_stop;
    opt.dt = engine.dt;
    opt.reuse = &reuse;
    const core::CrosstalkMetrics m = core::analyze_crosstalk(bus, s.xtalk.pattern, opt);
    values.push_back(analysis == sweep::Analysis::kCrosstalkNoise ? m.peak_noise
                     : analysis == sweep::Analysis::kCrosstalkDelay
                         ? m.victim_delay_50.value_or(std::nan(""))
                         : m.delay_pushout.value_or(std::nan("")));
  }
  return values;
}

std::uint64_t counter(const char* name) {
  return obs::counter_total(name).value_or(0);
}

// Delay and push-out sweeps stop every victim transient at its crossing and
// skip quiet victims, yet return the full-window values bit for bit: with a
// quiet or a switching point 0, a Cc = 0 point (another topology), on the
// default horizon and on a short explicit one that the victim only crosses
// after horizon extensions, at 1 and 3 threads.
TEST(Crosstalk, DelaySweepStopsAtTheCrossingBitForBit) {
  using core::SwitchingPattern;
  const std::vector<std::vector<SwitchingPattern>> orders = {
      {SwitchingPattern::kQuietVictim, SwitchingPattern::kSamePhase,
       SwitchingPattern::kOppositePhase},
      {SwitchingPattern::kOppositePhase, SwitchingPattern::kQuietVictim,
       SwitchingPattern::kSamePhase}};
  sweep::EngineOptions short_horizon;
  short_horizon.t_stop = 4e-11;  // crosses only after extending the window
  short_horizon.dt = 1e-13;
  for (const auto& patterns : orders) {
    sweep::SweepSpec spec;
    spec.base.system = {kRdrv, kLine, kCload};
    spec.base.xtalk.bus_lines = 3;
    spec.base.xtalk.lm_ratio = 0.2;
    spec.axes = {sweep::switching_patterns(patterns),
                 sweep::values(sweep::Variable::kCouplingCapRatio, {0.3, 0.0})};
    std::size_t switching = 0;
    for (std::size_t i = 0; i < spec.size(); ++i)
      if (spec.at(i).xtalk.pattern != SwitchingPattern::kQuietVictim) ++switching;
    // Every switching point runs one transient; of the quiet points only a
    // quiet point 0 does, to seed the records the workers replay.
    const std::size_t runs =
        switching + (patterns.front() == SwitchingPattern::kQuietVictim ? 1 : 0);

    for (sweep::EngineOptions engine : {sweep::EngineOptions{}, short_horizon}) {
      engine.segments = 12;
      for (const auto analysis :
           {sweep::Analysis::kCrosstalkDelay, sweep::Analysis::kCrosstalkPushout}) {
        const std::string name = std::string(sweep::analysis_name(analysis)) +
                                 (engine.t_stop > 0.0 ? " short horizon" : "") +
                                 " point 0 " +
                                 core::switching_pattern_name(patterns.front());
        const std::uint64_t full_steps_before = counter("transient.steps");
        const std::uint64_t extensions_before =
            counter("transient.horizon_extensions");
        const std::vector<double> expected = full_window_values(spec, engine, analysis);
        const std::uint64_t full_steps = counter("transient.steps") - full_steps_before;
        if (obs::metrics_enabled() && engine.t_stop > 0.0) {
          EXPECT_GT(counter("transient.horizon_extensions"), extensions_before) << name;
        }

        for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
          engine.threads = threads;
          const std::uint64_t steps_before = counter("transient.steps");
          const std::uint64_t runs_before = counter("transient.runs");
          const sweep::SweepResult result = sweep::SweepEngine(engine).run(spec, analysis);
          ASSERT_EQ(result.values.size(), expected.size()) << name;
          EXPECT_EQ(std::memcmp(result.values.data(), expected.data(),
                                expected.size() * sizeof(double)),
                    0)
              << name << ", " << threads << " threads";
          if (obs::metrics_enabled()) {
            EXPECT_EQ(counter("transient.runs") - runs_before, runs) << name;
            EXPECT_LT(counter("transient.steps") - steps_before, full_steps) << name;
          }
        }
      }
    }
  }
}

// A run that stops at the crossing does not measure noise: peak_noise is
// NaN, never a number scanned from a truncated window, and a quiet victim
// is not simulated at all. The delay metrics are the full window's.
TEST(Crosstalk, StopAtCrossingLeavesNoiseUnmeasured) {
  const tline::CoupledBus bus = tline::make_bus(3, kLine, 0.3, 0.2);
  const core::CrosstalkOptions opt = options_for(12);
  const auto full = core::analyze_crosstalk(bus, core::SwitchingPattern::kOppositePhase, opt);
  const auto stopped = core::analyze_crosstalk(
      bus, core::SwitchingPattern::kOppositePhase, opt,
      sim::CrossingWindow::kStopAtCrossing);
  ASSERT_TRUE(full.victim_delay_50 && stopped.victim_delay_50);
  EXPECT_EQ(std::memcmp(&*full.victim_delay_50, &*stopped.victim_delay_50,
                        sizeof(double)),
            0);
  EXPECT_EQ(full.delay_pushout.has_value(), stopped.delay_pushout.has_value());
  if (full.delay_pushout) {
    EXPECT_EQ(*full.delay_pushout, *stopped.delay_pushout);
  }
  EXPECT_TRUE(std::isfinite(full.peak_noise));
  EXPECT_TRUE(std::isnan(stopped.peak_noise));

  const std::uint64_t runs_before = counter("transient.runs");
  const auto quiet = core::analyze_crosstalk(
      bus, core::SwitchingPattern::kQuietVictim, opt,
      sim::CrossingWindow::kStopAtCrossing);
  EXPECT_FALSE(quiet.victim_delay_50);
  EXPECT_FALSE(quiet.delay_pushout);
  EXPECT_FALSE(quiet.isolated_delay_two_pole);
  EXPECT_TRUE(std::isnan(quiet.peak_noise));
  EXPECT_EQ(counter("transient.runs"), runs_before);
}

// analyze_crosstalk's victim metrics rebuilt from public API alone: the
// same circuit and horizon, run with every node recorded, and the victim's
// extrema and crossing read from that record. `samples` receives the
// run's sample count.
core::CrosstalkMetrics every_node_reference(const tline::CoupledBus& bus,
                                            core::SwitchingPattern pattern,
                                            const core::CrosstalkOptions& opt,
                                            std::size_t* samples) {
  const int victim = bus.victim_index();
  const sim::Circuit circuit = sim::build_coupled_bus(
      bus, core::pattern_drives(bus.lines, victim, pattern, opt.shield_every),
      opt.driver_resistance, opt.load_capacitance, opt.segments, opt.vdd,
      opt.source_rise);
  const std::string node = "line" + std::to_string(victim) + ".out";
  sim::TransientOptions transient;
  transient.t_stop =
      opt.t_stop > 0.0 ? opt.t_stop
                       : sim::default_transient_horizon(
                             {opt.driver_resistance, bus.line_at(victim),
                              opt.load_capacitance});
  transient.dt = opt.dt;
  const bool switching = pattern != core::SwitchingPattern::kQuietVictim;
  core::CrosstalkMetrics m;
  sim::TransientResult run;
  if (switching) {
    sim::DelayRun delay = sim::run_until_crossing(
        circuit, node, 0.5 * opt.vdd, transient, "every_node_reference",
        sim::CrossingWindow::kFullWindow);
    m.victim_delay_50 = delay.crossing;
    run = std::move(delay.result);
  } else {
    run = sim::run_transient(circuit, transient);
  }
  EXPECT_EQ(run.waveforms.node_names().size(), circuit.node_count());
  const sim::Trace trace = run.waveforms.trace(node);
  const double lo = 0.0;
  const double hi = switching ? opt.vdd : 0.0;
  m.peak_noise = std::max({0.0, lo - trace.min_value(), trace.max_value() - hi});
  *samples = run.waveforms.time().size();
  return m;
}

// The noise scan records the victim's far end alone, one value per sample,
// and its peak noise and delay are what an every-node record of the same
// window gives, bit for bit: quiet, same- and opposite-phase victims, a
// Cc = 0 bus, shields on every second line, and a short explicit horizon
// the switching victims cross only after extending it. Noise sweeps at 1
// and 3 threads return the direct calls' values.
TEST(Crosstalk, NoiseScanRecordsTheVictimAloneBitForBit) {
  using core::SwitchingPattern;
  struct Case {
    const char* name;
    int lines;
    double cc_ratio;
    int shield_every;
    double t_stop, dt;
  };
  const Case cases[] = {{"3 lines", 3, 0.3, 0, 0.0, 0.0},
                        {"Cc 0", 3, 0.0, 0, 0.0, 0.0},
                        {"shield_every 2", 5, 0.3, 2, 0.0, 0.0},
                        {"short horizon", 3, 0.3, 0, 4e-11, 1e-13}};
  const std::vector<SwitchingPattern> patterns = {SwitchingPattern::kQuietVictim,
                                                  SwitchingPattern::kSamePhase,
                                                  SwitchingPattern::kOppositePhase};
  for (const Case& c : cases) {
    const tline::CoupledBus bus = tline::make_bus(c.lines, kLine, c.cc_ratio, 0.2);
    core::CrosstalkOptions opt = options_for(12);
    opt.shield_every = c.shield_every;
    opt.t_stop = c.t_stop;
    opt.dt = c.dt;
    for (const SwitchingPattern pattern : patterns) {
      const std::string name =
          std::string(c.name) + " " + core::switching_pattern_name(pattern);
      std::size_t samples = 0;
      const core::CrosstalkMetrics expected =
          every_node_reference(bus, pattern, opt, &samples);
      const std::uint64_t recorded_before = counter("transient.recorded_values");
      const std::uint64_t extensions_before = counter("transient.horizon_extensions");
      const core::CrosstalkMetrics m = core::analyze_crosstalk(bus, pattern, opt);
      EXPECT_EQ(std::memcmp(&m.peak_noise, &expected.peak_noise, sizeof(double)), 0)
          << name;
      ASSERT_EQ(m.victim_delay_50.has_value(), expected.victim_delay_50.has_value())
          << name;
      if (expected.victim_delay_50) {
        EXPECT_EQ(std::memcmp(&*m.victim_delay_50, &*expected.victim_delay_50,
                              sizeof(double)),
                  0)
            << name;
      }
      if (obs::metrics_enabled()) {
        EXPECT_EQ(counter("transient.recorded_values") - recorded_before, samples)
            << name;
        if (c.t_stop > 0.0 && pattern != SwitchingPattern::kQuietVictim) {
          EXPECT_GT(counter("transient.horizon_extensions"), extensions_before) << name;
        }
      }
    }
  }

  sweep::EngineOptions short_horizon;
  short_horizon.t_stop = 4e-11;
  short_horizon.dt = 1e-13;
  for (const int shield_every : {0, 2}) {
    sweep::SweepSpec spec;
    spec.base.system = {kRdrv, kLine, kCload};
    spec.base.xtalk.bus_lines = shield_every > 0 ? 5 : 3;
    spec.base.xtalk.lm_ratio = 0.2;
    spec.base.xtalk.shield_every = shield_every;
    spec.axes = {sweep::switching_patterns(patterns),
                 sweep::values(sweep::Variable::kCouplingCapRatio, {0.3, 0.0})};
    for (sweep::EngineOptions engine : {sweep::EngineOptions{}, short_horizon}) {
      engine.segments = 12;
      const std::vector<double> expected =
          full_window_values(spec, engine, sweep::Analysis::kCrosstalkNoise);
      for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        engine.threads = threads;
        const sweep::SweepResult result =
            sweep::SweepEngine(engine).run(spec, sweep::Analysis::kCrosstalkNoise);
        ASSERT_EQ(result.values.size(), expected.size());
        EXPECT_EQ(std::memcmp(result.values.data(), expected.data(),
                              expected.size() * sizeof(double)),
                  0)
            << "shield_every " << shield_every
            << (engine.t_stop > 0.0 ? " short horizon, " : ", ") << threads
            << " threads";
      }
    }
  }
}

TEST(CrosstalkSweep, AxisValidation) {
  sweep::SweepSpec spec = crosstalk_spec();
  spec.axes.push_back(sweep::values(sweep::Variable::kBusLines, {2.5}));
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.axes.back() = sweep::values(sweep::Variable::kBusLines, {1.0});
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.axes.back() = sweep::values(sweep::Variable::kSwitchingPattern, {3.0});
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.axes.back() = sweep::values(sweep::Variable::kMutualRatio, {-0.2});
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.axes.back() = sweep::values(sweep::Variable::kBusLines, {2.0, 4.0});
  EXPECT_NO_THROW(spec.validate());
}

// ---------------------------------------------------------------------------
// Regression: bandwidth_3db reports "no crossing" as absent, not 0 Hz
// ---------------------------------------------------------------------------

TEST(BandwidthRegression, NoCrossingInWindowIsAbsent) {
  // Single-pole RC with f3db ~ 159 MHz; scan far below the corner.
  sim::Circuit c;
  c.add_voltage_source("in", "0", sim::DcSpec{0.0}, "vin");
  c.add_resistor("in", "out", 1000.0);
  c.add_capacitor("out", "0", 1e-12);
  const auto below_corner = sim::bandwidth_3db(c, "vin", "out", 1e3, 1e6);
  EXPECT_FALSE(below_corner.has_value());
  // The same circuit scanned across the corner still finds it.
  const auto across = sim::bandwidth_3db(c, "vin", "out", 1e3, 1e12);
  ASSERT_TRUE(across.has_value());
  EXPECT_GT(*across, 0.0);
}

TEST(BandwidthRegression, SweepRecordsAbsenceAsNaN) {
  sweep::SweepSpec spec;
  spec.base.system = {kRdrv, kLine, kCload};
  spec.axes = {sweep::linspace(sweep::Variable::kDriverResistance, 100.0,
                               200.0, 2)};
  sweep::EngineOptions options;
  options.threads = 1;
  options.segments = 12;
  options.ac_f_lo = 1e3;
  options.ac_f_hi = 1e5;  // far below any corner of this system
  const sweep::SweepEngine engine(options);
  const auto result = engine.run(spec, sweep::Analysis::kAcBandwidth);
  for (double v : result.values) EXPECT_TRUE(std::isnan(v));  // absent, not 0
}

// ---------------------------------------------------------------------------
// Regression: measure_step on truncated records fabricates nothing
// ---------------------------------------------------------------------------

TEST(MeasureStepRegression, TruncatedBelow90HasNoRiseTime) {
  // Reaches 50% but never 90%: delay defined, rise time absent (was 0.0).
  std::vector<double> t, v;
  for (int i = 0; i <= 100; ++i) {
    t.push_back(0.01 * i);
    v.push_back(0.6 * i / 100.0);
  }
  const auto m = tline::measure_step(t, v);
  EXPECT_GT(m.delay_50, 0.0);
  EXPECT_FALSE(m.rise_10_90.has_value());
  EXPECT_FALSE(m.settle_2pct.has_value());
}

TEST(MeasureStepRegression, CompleteRecordHasRiseTime) {
  std::vector<double> t, v;
  for (int i = 0; i <= 4000; ++i) {
    t.push_back(i * 0.005);
    v.push_back(1.0 - std::exp(-t.back()));
  }
  const auto m = tline::measure_step(t, v);
  ASSERT_TRUE(m.rise_10_90.has_value());
  EXPECT_NEAR(*m.rise_10_90, std::log(9.0), 1e-3);
}

TEST(MeasureStepRegression, SettleIsFirstReentryAfterLastViolation) {
  // Overshoot to 1.5 at t=1, back inside the 2% band between t=1 and t=2.
  // The old code reported t=1 (the last out-of-band SAMPLE); the settle time
  // is the interpolated band re-entry at v = 1.02.
  const std::vector<double> t{0.0, 1.0, 2.0, 3.0};
  const std::vector<double> v{0.0, 1.5, 0.99, 1.0};
  const auto m = tline::measure_step(t, v);
  ASSERT_TRUE(m.settle_2pct.has_value());
  const double expected = 1.0 + (1.02 - 1.5) / (0.99 - 1.5);  // ~1.9412
  EXPECT_NEAR(*m.settle_2pct, expected, 1e-12);
  EXPECT_GT(*m.settle_2pct, 1.0);  // strictly after the last violation
}

TEST(MeasureStepRegression, ViolationOnFinalSampleIsUnsettled) {
  const std::vector<double> t{0.0, 1.0, 2.0};
  const std::vector<double> v{0.0, 1.0, 1.5};  // leaves the band at the end
  const auto m = tline::measure_step(t, v);
  EXPECT_FALSE(m.settle_2pct.has_value());
}

// ---------------------------------------------------------------------------
// Regression: extreme-damping two-pole threshold query fails loudly
// ---------------------------------------------------------------------------

TEST(TwoPoleRegression, ExtremeDampingThrowsInsteadOfUnbracketedBrent) {
  // zeta = 0.5e20: the slow pole cancels to exactly 0 in double precision,
  // the computed step response plateaus at 0, and no bracket exists. This
  // must surface as a clear runtime_error, not a numeric-layer failure.
  const core::TwoPoleModel degenerate(1.0, 1e-40);
  EXPECT_GT(degenerate.damping(), 1e19);
  EXPECT_THROW(degenerate.threshold_delay(0.5), core::BracketError);
  // BracketError IS a runtime_error, so generic handlers still catch it.
  EXPECT_THROW(degenerate.threshold_delay(0.5), std::runtime_error);

  // Large-but-representable damping still works: response ~ 1 - e^{-t/b1}.
  const core::TwoPoleModel large(1.0, 1e-8);
  EXPECT_NEAR(large.threshold_delay(0.5), std::log(2.0), 1e-2);
}

// ---------------------------------------------------------------------------
// Full (beyond nearest-neighbor) coupling matrices
// ---------------------------------------------------------------------------

namespace fullbus {

numeric::RealMatrix coupling_matrix(int n, double adjacent, double second = 0.0) {
  numeric::RealMatrix m(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      if (std::abs(i - j) == 1) m(i, j) = adjacent;
      if (std::abs(i - j) == 2) m(i, j) = second;
    }
  return m;
}

}  // namespace fullbus

TEST(FullCouplingBus, AccessorsAndMirrors) {
  const std::vector<tline::LineParams> lines(4, kLine);
  const tline::CoupledBus bus = tline::make_full_bus(
      lines, fullbus::coupling_matrix(4, 0.3e-12, 0.05e-12),
      fullbus::coupling_matrix(4, 0.8e-9, 0.2e-9));
  ASSERT_TRUE(bus.full_coupling());
  ASSERT_TRUE(bus.heterogeneous());
  // Adjacent-pair readers still see the first off-diagonal...
  EXPECT_DOUBLE_EQ(bus.pair_cc(1), 0.3e-12);
  EXPECT_DOUBLE_EQ(bus.pair_lm(2), 0.8e-9);
  // ... and the any-pair accessors see the whole matrix.
  EXPECT_DOUBLE_EQ(bus.coupling_cc(0, 2), 0.05e-12);
  EXPECT_DOUBLE_EQ(bus.coupling_lm(1, 3), 0.2e-9);
  EXPECT_DOUBLE_EQ(bus.coupling_cc(0, 3), 0.0);
  // Nearest-neighbor buses answer 0 beyond the neighbors.
  const tline::CoupledBus nn = tline::make_bus(4, kLine, 0.3, 0.16);
  EXPECT_DOUBLE_EQ(nn.coupling_cc(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(nn.coupling_cc(1, 2), 0.3 * kLine.total_capacitance);
}

TEST(FullCouplingBus, ShapeMismatchIsRejectedUpFront) {
  // The mirror extraction must NOT index a wrongly-shaped matrix before the
  // size check runs (used to be an out-of-bounds read, caught by ASan).
  const std::vector<tline::LineParams> lines(5, kLine);
  EXPECT_THROW(tline::make_full_bus(lines, fullbus::coupling_matrix(3, 0.1e-12), {}),
               std::invalid_argument);
  EXPECT_THROW(tline::make_full_bus(lines, {}, fullbus::coupling_matrix(7, 0.1e-9)),
               std::invalid_argument);
}

TEST(FullCouplingBus, GeneralLdltValidation) {
  const std::vector<tline::LineParams> lines(4, kLine);
  // Asymmetric matrix rejected.
  numeric::RealMatrix bad = fullbus::coupling_matrix(4, 0.3e-12);
  bad(0, 1) = 0.4e-12;
  EXPECT_THROW(tline::make_full_bus(lines, bad, {}), std::invalid_argument);
  // Nonzero diagonal rejected (self terms live in the line totals).
  bad = fullbus::coupling_matrix(4, 0.3e-12);
  bad(1, 1) = 1e-15;
  EXPECT_THROW(tline::make_full_bus(lines, bad, {}), std::invalid_argument);
  // Negative coupling rejected.
  bad = fullbus::coupling_matrix(4, 0.3e-12);
  bad(2, 3) = bad(3, 2) = -1e-15;
  EXPECT_THROW(tline::make_full_bus(lines, bad, {}), std::invalid_argument);
  // An adjacent-only mutual matrix right AT the tridiagonal stability bound
  // is indefinite; the general dense LDLt must reject it like the
  // tridiagonal test does.
  const double lm_limit = tline::max_lm_ratio(4) * kLine.total_inductance;
  EXPECT_THROW(
      tline::make_full_bus(lines, {}, fullbus::coupling_matrix(4, 1.01 * lm_limit)),
      std::invalid_argument);
  EXPECT_NO_THROW(
      tline::make_full_bus(lines, {}, fullbus::coupling_matrix(4, 0.9 * lm_limit)));
  // An indefinite FULL matrix whose adjacent terms alone would pass the
  // tridiagonal test (a = 0.6 Lt < 0.618 Lt bound, but the strong second-
  // neighbor terms drive the (1,-1,-1,1) mode negative: 4 - 2a - 4s < 0) —
  // only the dense LDLt catches it.
  const double lt = kLine.total_inductance;
  EXPECT_NO_THROW(tline::make_full_bus(lines, {}, fullbus::coupling_matrix(4, 0.6 * lt)));
  EXPECT_THROW(
      tline::make_full_bus(lines, {}, fullbus::coupling_matrix(4, 0.6 * lt, 0.75 * lt)),
      std::invalid_argument);
}

TEST(FullCouplingBus, AdjacentOnlyMatricesMatchNearestNeighborPath) {
  // A full-coupling bus whose matrices carry only the first off-diagonal is
  // ELECTRICALLY the nearest-neighbor bus: identical stamps, identical
  // results, bit for bit — the fast path is intact.
  const tline::CoupledBus nn = tline::make_bus(
      {kLine, kLine, kLine}, {0.3e-12, 0.3e-12}, {0.8e-9, 0.8e-9});
  const tline::CoupledBus full = tline::make_full_bus(
      {kLine, kLine, kLine}, fullbus::coupling_matrix(3, 0.3e-12),
      fullbus::coupling_matrix(3, 0.8e-9));
  const auto opt = options_for(12);
  const auto a =
      core::analyze_crosstalk(nn, core::SwitchingPattern::kOppositePhase, opt);
  const auto b =
      core::analyze_crosstalk(full, core::SwitchingPattern::kOppositePhase, opt);
  ASSERT_TRUE(a.victim_delay_50 && b.victim_delay_50);
  EXPECT_DOUBLE_EQ(*a.victim_delay_50, *b.victim_delay_50);
  EXPECT_DOUBLE_EQ(a.peak_noise, b.peak_noise);
}

TEST(FullCouplingBus, SecondNeighborCouplingRaisesVictimNoise) {
  // On a 5-line bus the victim's second neighbors (lines 0 and 4) switch
  // too: giving them a DIRECT path to the victim must raise the quiet-victim
  // noise over the nearest-neighbor model, in both the transient and the
  // reduced analytic paths.
  const std::vector<tline::LineParams> lines(5, kLine);
  const tline::CoupledBus nn = tline::make_full_bus(
      lines, fullbus::coupling_matrix(5, 0.3e-12), fullbus::coupling_matrix(5, 0.5e-9));
  const tline::CoupledBus full = tline::make_full_bus(
      lines, fullbus::coupling_matrix(5, 0.3e-12, 0.12e-12),
      fullbus::coupling_matrix(5, 0.5e-9, 0.2e-9));
  const auto opt = options_for(12);
  const auto nn_noise =
      core::analyze_crosstalk(nn, core::SwitchingPattern::kQuietVictim, opt);
  const auto full_noise =
      core::analyze_crosstalk(full, core::SwitchingPattern::kQuietVictim, opt);
  EXPECT_GT(full_noise.peak_noise, 1.1 * nn_noise.peak_noise);
  const auto reduced_nn = core::analyze_crosstalk_reduced(
      nn, core::SwitchingPattern::kQuietVictim, opt, 4);
  const auto reduced_full = core::analyze_crosstalk_reduced(
      full, core::SwitchingPattern::kQuietVictim, opt, 4);
  EXPECT_GT(reduced_full.peak_noise, 1.1 * reduced_nn.peak_noise);
  // The reduced path tracks the transient on the full-coupling bus too.
  EXPECT_NEAR(reduced_full.peak_noise, full_noise.peak_noise,
              0.15 * full_noise.peak_noise);
}

// ---------------------------------------------------------------------------
// Ramp/slow-edge aggressor support (the reduced path must honor slew)
// ---------------------------------------------------------------------------

TEST(RampAggressor, SlowEdgeQuenchesNoiseAndReducedPathHonorsIt) {
  // Capacitive crosstalk is a dV/dt effect: an aggressor edge much slower
  // than the line's own time constants couples far less noise. The reduced
  // path used to drive ideal steps whatever the built source's slew — this
  // pins the fix: with a slow edge, (a) the transient noise drops by > 2x,
  // and (b) the reduced path tracks the transient, not the step value.
  const tline::CoupledBus bus = tline::make_bus(2, kLine, 0.5, 0.2);
  auto fast = options_for(24);
  auto slow = fast;
  slow.source_rise = 2e-9;  // ~10x the line's RC scale: a genuinely slow edge

  const double step_noise =
      core::analyze_crosstalk(bus, core::SwitchingPattern::kQuietVictim, fast)
          .peak_noise;
  const double ramp_noise =
      core::analyze_crosstalk(bus, core::SwitchingPattern::kQuietVictim, slow)
          .peak_noise;
  ASSERT_GT(step_noise, 2.0 * ramp_noise);

  const double reduced_step =
      core::analyze_crosstalk_reduced(bus, core::SwitchingPattern::kQuietVictim,
                                      fast, 4)
          .peak_noise;
  const double reduced_ramp =
      core::analyze_crosstalk_reduced(bus, core::SwitchingPattern::kQuietVictim,
                                      slow, 4)
          .peak_noise;
  // The reduced value follows the slew (would fail by > 2x if the ramp were
  // silently replaced by a step)...
  EXPECT_NEAR(reduced_ramp, ramp_noise, 0.15 * ramp_noise);
  // ... and reproduces the step/ramp ratio of the transient.
  EXPECT_GT(reduced_step, 2.0 * reduced_ramp);
}

// ---------------------------------------------------------------------------
// Rich drive shapes via drive_overrides (regression: silent approximation)
// ---------------------------------------------------------------------------

// The reduced path must decode every drive shape it accepts EXACTLY (one
// superposed ramp per linear piece) — or throw. The pre-fix decode kept a
// pulse's leading edge and silently DROPPED the trailing one, so a reduced
// "noise" number for a pulsed aggressor described a different waveform than
// the transient it claimed to replace.

TEST(DriveOverrides, MultiSegmentPwlIsDecodedExactly) {
  // A stutter-step aggressor edge: rise to vdd/2, hold, finish the swing.
  // Three linear pieces (one zero-slope), two real coupling edges.
  const tline::CoupledBus bus = tline::make_bus(3, kLine, 0.5, 0.2);
  auto opt = options_for(24);
  opt.drive_overrides.assign(3, std::nullopt);
  const sim::PwlSpec stutter{
      {{0.0, 0.0}, {0.3e-9, 0.5}, {0.8e-9, 0.5}, {1.2e-9, 1.0}}};
  opt.drive_overrides[0] = stutter;
  opt.drive_overrides[2] = stutter;
  const auto transient =
      core::analyze_crosstalk(bus, core::SwitchingPattern::kQuietVictim, opt);
  const auto reduced = core::analyze_crosstalk_reduced(
      bus, core::SwitchingPattern::kQuietVictim, opt, 4);
  EXPECT_NEAR(reduced.peak_noise, transient.peak_noise,
              0.15 * transient.peak_noise);
}

TEST(DriveOverrides, FinitePulseKeepsTheTrailingEdge) {
  // Slow rise (500 ps), SHARP fall (20 ps): the trailing edge dominates the
  // coupled noise. Dropping it (the old bug) would undershoot the transient
  // noise by far more than this tolerance.
  const tline::CoupledBus bus = tline::make_bus(3, kLine, 0.5, 0.2);
  auto opt = options_for(24);
  opt.t_stop = 5e-9;  // cover the full pulse plus settling
  opt.drive_overrides.assign(3, std::nullopt);
  const sim::PulseSpec pulse{0.0, 1.0, 0.0, /*rise=*/500e-12,
                             /*fall=*/20e-12, /*width=*/300e-12, /*period=*/0.0};
  opt.drive_overrides[0] = pulse;
  opt.drive_overrides[2] = pulse;
  const auto transient =
      core::analyze_crosstalk(bus, core::SwitchingPattern::kQuietVictim, opt);
  const auto reduced = core::analyze_crosstalk_reduced(
      bus, core::SwitchingPattern::kQuietVictim, opt, 4);
  EXPECT_NEAR(reduced.peak_noise, transient.peak_noise,
              0.15 * transient.peak_noise);
}

TEST(DriveOverrides, ShapesWithNoFiniteDecodeThrowInsteadOfApproximating) {
  const tline::CoupledBus bus = tline::make_bus(3, kLine, 0.5, 0.2);
  auto opt = options_for(12);
  opt.t_stop = 5e-9;
  opt.drive_overrides.assign(3, std::nullopt);
  // A periodic train has no finite edge superposition: the transient path
  // handles it, the reduced path must REFUSE rather than truncate.
  sim::PulseSpec train{0.0, 1.0, 0.0, 50e-12, 50e-12, 300e-12, 2e-9};
  opt.drive_overrides[0] = train;
  EXPECT_NO_THROW(
      core::analyze_crosstalk(bus, core::SwitchingPattern::kQuietVictim, opt));
  EXPECT_THROW(core::analyze_crosstalk_reduced(
                   bus, core::SwitchingPattern::kQuietVictim, opt, 4),
               std::invalid_argument);
  // Malformed PWL (non-increasing times) is rejected, not reordered.
  opt.drive_overrides[0] = sim::PwlSpec{{{0.0, 0.0}, {1e-9, 1.0}, {1e-9, 0.5}}};
  EXPECT_THROW(core::analyze_crosstalk_reduced(
                   bus, core::SwitchingPattern::kQuietVictim, opt, 4),
               std::invalid_argument);
  // Wrong-size override tables are rejected by BOTH paths.
  opt.drive_overrides.assign(2, std::nullopt);
  EXPECT_THROW(
      core::analyze_crosstalk(bus, core::SwitchingPattern::kQuietVictim, opt),
      std::invalid_argument);
  EXPECT_THROW(core::analyze_crosstalk_reduced(
                   bus, core::SwitchingPattern::kQuietVictim, opt, 4),
               std::invalid_argument);
}

TEST(RampAggressor, SlowEdgeSoftensTheMillerCorners) {
  // With a slow shared input edge the same-/opposite-phase delay spread
  // narrows; transient and reduced paths must agree on the slow-edge delay.
  const tline::CoupledBus bus = tline::make_bus(3, kLine, 0.4, 0.2);
  auto slow = options_for(24);
  slow.source_rise = 1e-9;
  const auto transient = core::analyze_crosstalk(
      bus, core::SwitchingPattern::kOppositePhase, slow);
  const auto reduced = core::analyze_crosstalk_reduced(
      bus, core::SwitchingPattern::kOppositePhase, slow, 4);
  ASSERT_TRUE(transient.victim_delay_50 && reduced.victim_delay_50);
  EXPECT_NEAR(*reduced.victim_delay_50, *transient.victim_delay_50,
              0.03 * *transient.victim_delay_50);
}

}  // namespace
