#include "sim/transient.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "numeric/interpolate.h"
#include "obs/metrics.h"
#include "sim/builders.h"
#include "tline/step_response.h"

namespace {

using namespace rlcsim::sim;

Circuit rc_charger(double r, double c) {
  Circuit circuit;
  circuit.add_voltage_source("in", "0", StepSpec{0.0, 1.0, 0.0, 0.0});
  circuit.add_resistor("in", "out", r);
  circuit.add_capacitor("out", "0", c);
  return circuit;
}

TEST(Transient, RcChargeMatchesAnalytic) {
  const double tau = 1e-9;
  const Circuit c = rc_charger(1000.0, 1e-12);
  TransientOptions opt;
  opt.t_stop = 5e-9;
  opt.dt = 2.5e-12;
  const auto r = run_transient(c, opt);
  const Trace out = r.waveforms.trace("out");
  for (double t : {0.3e-9, 1e-9, 2e-9, 4e-9})
    EXPECT_NEAR(out.at(t), 1.0 - std::exp(-t / tau), 2e-4) << "t=" << t;
}

TEST(Transient, RlCurrentRamp) {
  // V step into R + L to ground: v_L decays with tau = L/R; node between
  // R and L approaches 0.
  Circuit c;
  c.add_voltage_source("in", "0", StepSpec{0.0, 1.0, 0.0, 0.0});
  c.add_resistor("in", "mid", 100.0);
  c.add_inductor("mid", "0", 1e-9);
  TransientOptions opt;
  opt.t_stop = 100e-12;
  opt.dt = 0.05e-12;
  const auto r = run_transient(c, opt);
  const Trace mid = r.waveforms.trace("mid");
  const double tau = 1e-9 / 100.0;  // 10 ps
  for (double t : {5e-12, 10e-12, 30e-12})
    EXPECT_NEAR(mid.at(t), std::exp(-t / tau), 3e-3) << "t=" << t;
}

TEST(Transient, SeriesRlcUnderdampedRinging) {
  // R=20, L=1n, C=1p: zeta = R/2 sqrt(C/L) ~ 0.316 -> overshoot
  // exp(-pi z / sqrt(1-z^2)) ~ 35%.
  Circuit c;
  c.add_voltage_source("in", "0", StepSpec{0.0, 1.0, 0.0, 0.0});
  c.add_resistor("in", "a", 20.0);
  c.add_inductor("a", "out", 1e-9);
  c.add_capacitor("out", "0", 1e-12);
  TransientOptions opt;
  opt.t_stop = 2e-9;
  opt.dt = 0.2e-12;
  const auto r = run_transient(c, opt);
  const Trace out = r.waveforms.trace("out");
  const double zeta = 20.0 / 2.0 * std::sqrt(1e-12 / 1e-9);
  const double expected_overshoot =
      std::exp(-M_PI * zeta / std::sqrt(1.0 - zeta * zeta));
  EXPECT_NEAR(out.overshoot(1.0), expected_overshoot, 0.01);
  // Ringing frequency: peak at pi/wd.
  const double wd = 1.0 / std::sqrt(1e-9 * 1e-12) * std::sqrt(1.0 - zeta * zeta);
  const auto peak = out.crossing(1.0 + expected_overshoot * 0.99, 0.0, +1);
  ASSERT_TRUE(peak);
  EXPECT_NEAR(*peak, M_PI / wd, 0.1 * M_PI / wd);
}

TEST(Transient, StepGridLandsOnBreakpoints) {
  // A pulse with edges not commensurate with dt: the recorded times must
  // include the exact edge instants.
  Circuit c;
  c.add_voltage_source("in", "0", PulseSpec{0.0, 1.0, 0.33e-9, 1e-12, 1e-12, 0.5e-9, 0.0});
  c.add_resistor("in", "out", 100.0);
  c.add_capacitor("out", "0", 1e-12);
  TransientOptions opt;
  opt.t_stop = 2e-9;
  opt.dt = 0.1e-9;
  const auto r = run_transient(c, opt);
  const auto& times = r.waveforms.time();
  const auto near_any = [&](double target) {
    for (double t : times)
      if (std::fabs(t - target) < 1e-15) return true;
    return false;
  };
  EXPECT_TRUE(near_any(0.33e-9));
  EXPECT_TRUE(near_any(0.33e-9 + 1e-12));
}

TEST(Transient, BufferFiresAtInterpolatedCrossing) {
  // Slow ramp into a buffer: the input crosses 0.5 at exactly 1 ns; the
  // buffer must fire within a small fraction of dt of that instant.
  Circuit c;
  PwlSpec ramp;
  ramp.points = {{0.0, 0.0}, {2e-9, 1.0}};
  c.add_voltage_source("in", "0", ramp);
  c.add_resistor("in", "bin", 1.0);  // negligible
  c.add_buffer("bin", "bout", 100.0, 1e-15);
  c.add_capacitor("bout", "0", 1e-12);
  TransientOptions opt;
  opt.t_stop = 3e-9;
  opt.dt = 0.25e-9;  // deliberately coarse: crossing is mid-step
  const auto r = run_transient(c, opt);
  ASSERT_EQ(r.buffer_fire_times.size(), 1u);
  EXPECT_NEAR(r.buffer_fire_times[0], 1e-9, 0.02e-9);
  // And the buffer output then charges toward vdd.
  EXPECT_NEAR(r.waveforms.trace("bout").final_value(), 1.0, 1e-3);
}

TEST(Transient, UnfiredBufferStaysQuiet) {
  Circuit c;
  c.add_voltage_source("in", "0", DcSpec{0.2});  // never crosses 0.5
  c.add_resistor("in", "bin", 1.0);
  c.add_buffer("bin", "bout", 100.0, 1e-15);
  c.add_capacitor("bout", "0", 1e-12);
  TransientOptions opt;
  opt.t_stop = 1e-9;
  const auto r = run_transient(c, opt);
  EXPECT_TRUE(std::isinf(r.buffer_fire_times[0]));
  EXPECT_NEAR(r.waveforms.trace("bout").final_value(), 0.0, 1e-9);
}

TEST(Transient, LuFactorizationsAreCached) {
  const Circuit c = rc_charger(1000.0, 1e-12);
  TransientOptions opt;
  opt.t_stop = 4e-9;
  opt.dt = 1e-12;
  const auto r = run_transient(c, opt);
  EXPECT_EQ(r.steps_taken, 4000u);
  // DC + (BE and trapezoidal at the fixed dt) ~ a handful, not thousands.
  EXPECT_LE(r.lu_factorizations, 6u);
}

// Every recorded sample of a run, time axis first, then each node in name
// order: equal vectors of these are a byte-for-byte equal run.
std::vector<double> recorded_samples(const TransientResult& r) {
  std::vector<double> out = r.waveforms.time();
  for (const std::string& node : r.waveforms.node_names()) {
    const std::vector<double> v = r.waveforms.trace(node).value();
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

TEST(Transient, MismatchedReuseRunsFreshAndLeavesTheRecord) {
  const rlcsim::tline::GateLineLoad system{500.0, {1000.0, 1e-7, 1e-12}, 0.5e-12};
  TransientOptions opt;
  opt.t_stop = default_transient_horizon(system);
  opt.solver = SolverKind::kSparse;

  SolverReuse reuse;
  opt.reuse = &reuse;
  (void)run_transient(build_gate_line_load(system, 25), opt);
  const auto system_symbolic = reuse.system.symbolic;
  const auto dc_symbolic = reuse.dc.symbolic;
  ASSERT_TRUE(system_symbolic);
  ASSERT_TRUE(dc_symbolic);

  // A 30-segment ladder fits neither recorded pattern: it must run as if no
  // reuse were passed, and leave both records as the 25-segment run left
  // them. Each bypassed record (system and DC) counts one mismatch.
  const Circuit longer = build_gate_line_load(system, 30);
  const rlcsim::obs::Counter mismatch("reuse.mismatch");
  const std::uint64_t before = mismatch.this_thread_value();
  const std::size_t symbolic_before = rlcsim::numeric::sparse_lu_stats().symbolic;
  const TransientResult through_reuse = run_transient(longer, opt);
  const std::uint64_t counted = mismatch.this_thread_value() - before;
  // Still one symbolic analysis per matrix kind: every step size of the run
  // shares the run's own.
  EXPECT_EQ(rlcsim::numeric::sparse_lu_stats().symbolic - symbolic_before, 2u);
  opt.reuse = nullptr;
  const TransientResult fresh = run_transient(longer, opt);

  const std::vector<double> a = recorded_samples(through_reuse);
  const std::vector<double> b = recorded_samples(fresh);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
  EXPECT_EQ(through_reuse.lu_factorizations, fresh.lu_factorizations);
  EXPECT_EQ(reuse.system.symbolic, system_symbolic);
  EXPECT_EQ(reuse.dc.symbolic, dc_symbolic);
  EXPECT_EQ(reuse.system.hits, 0u);
  EXPECT_EQ(counted, rlcsim::obs::metrics_enabled() ? 2u : 0u);
}

// The Table-1 grid (Rtr = 500 ohm, Ct = 1 pF; RT x Lt x CT) on 25-segment
// ladders: ~80 unknowns, the sparse path the sweep engine runs.
std::vector<rlcsim::tline::GateLineLoad> table1_grid() {
  std::vector<rlcsim::tline::GateLineLoad> grid;
  for (double rt : {5000.0, 1000.0, 500.0})
    for (double lt : {1e-5, 1e-6, 1e-7, 1e-8})
      for (double ct : {0.1, 0.5, 1.0})
        grid.push_back({500.0, {rt, lt, 1e-12}, ct * 1e-12});
  return grid;
}

std::uint64_t extensions_counted() {
  const rlcsim::obs::Counter extensions("transient.horizon_extensions");
  return extensions.this_thread_value();
}

TEST(TransientProbe, StopsAtTheBracketingStepBitForBit) {
  SolverReuse reuse;
  for (const auto& system : table1_grid()) {
    const Circuit circuit = build_gate_line_load(system, 25);
    TransientOptions opt;
    opt.t_stop = default_transient_horizon(system);
    opt.reuse = &reuse;
    const TransientResult full = run_transient(circuit, opt);
    const auto reference = rlcsim::numeric::find_crossing(
        full.waveforms.time(), full.waveforms.trace("out").value(), 0.5, 0.0, +1);
    ASSERT_TRUE(reference);

    const DelayRun early = run_until_crossing(circuit, "out", 0.5, opt, "probe");
    EXPECT_EQ(std::memcmp(&early.crossing, &*reference, sizeof(double)), 0);
    EXPECT_LT(early.result.steps_taken, full.steps_taken);
    // Only the probe node is recorded, one sample per step plus t = 0, and
    // those samples are the full record's prefix.
    EXPECT_EQ(early.result.waveforms.node_names(), std::vector<std::string>{"out"});
    const std::vector<double> v = early.result.waveforms.trace("out").value();
    ASSERT_EQ(v.size(), early.result.steps_taken + 1);
    EXPECT_EQ(std::memcmp(v.data(), full.waveforms.trace("out").value().data(),
                          v.size() * sizeof(double)),
              0);
  }
}

TEST(TransientProbe, MissedWindowStepsOnAtTheSameDt) {
  // Table-1 point RT = 0.5, Lt = 100 nH, CT = 0.5, with a horizon a third of
  // its delay: the first window misses and one x4 extension finds it.
  const rlcsim::tline::GateLineLoad system{500.0, {1000.0, 1e-7, 1e-12}, 0.5e-12};
  const double exact = rlcsim::tline::threshold_delay(system);
  const Circuit circuit = build_gate_line_load(system, 100);
  TransientOptions opt;
  opt.t_stop = exact / 3.0;
  const double dt = opt.t_stop / 4000.0;  // the first window's dt policy

  const std::uint64_t before = extensions_counted();
  const DelayRun run = run_until_crossing(circuit, "out", 0.5, opt, "probe");
  EXPECT_EQ(extensions_counted() - before,
            rlcsim::obs::metrics_enabled() ? 1u : 0u);
  // The extension kept the first window's dt: about crossing/dt steps,
  // where a restart at a 4x coarser dt would take a quarter of that.
  const double expected_steps = run.crossing / dt;
  EXPECT_NEAR(static_cast<double>(run.result.steps_taken), expected_steps, 2.0);
  EXPECT_NEAR(run.crossing, exact, exact * 0.01);  // 100-segment ladder
}

TEST(TransientProbe, ExtendedRunMatchesOneRunAtTheLongerHorizon) {
  // An extended run takes the steps of a single run at the final horizon
  // and the first window's dt: the old horizon is no breakpoint, so no
  // backward-Euler restart lands in the middle of the response.
  const rlcsim::tline::GateLineLoad system{500.0, {1000.0, 1e-7, 1e-12}, 0.5e-12};
  const Circuit circuit = build_gate_line_load(system, 25);
  TransientOptions extended;
  extended.t_stop = rlcsim::tline::threshold_delay(system) / 3.0;  // one x4 extension
  extended.dt = extended.t_stop / 4000.0;
  TransientOptions single = extended;
  single.t_stop = 4.0 * extended.t_stop;

  for (const auto window : {CrossingWindow::kStopAtCrossing, CrossingWindow::kFullWindow}) {
    const std::uint64_t before = extensions_counted();
    const DelayRun a = run_until_crossing(circuit, "out", 0.5, extended, "ext", window);
    EXPECT_EQ(extensions_counted() - before,
              rlcsim::obs::metrics_enabled() ? 1u : 0u);
    const DelayRun b = run_until_crossing(circuit, "out", 0.5, single, "one", window);
    EXPECT_EQ(std::memcmp(&a.crossing, &b.crossing, sizeof(double)), 0);
    ASSERT_EQ(a.result.steps_taken, b.result.steps_taken);
    const auto& ta = a.result.waveforms.time();
    EXPECT_EQ(std::memcmp(ta.data(), b.result.waveforms.time().data(),
                          ta.size() * sizeof(double)),
              0);
    for (const std::string& node : b.result.waveforms.node_names()) {
      const std::vector<double> va = a.result.waveforms.trace(node).value();
      const std::vector<double> vb = b.result.waveforms.trace(node).value();
      ASSERT_EQ(va.size(), vb.size()) << node;
      EXPECT_EQ(std::memcmp(va.data(), vb.data(), va.size() * sizeof(double)), 0)
          << node;
    }
  }
}

TEST(TransientProbe, NeverCrossingRunThrowsWithContext) {
  // A divider that settles at 0.4 V never reaches the 0.5 V level.
  Circuit circuit;
  circuit.add_voltage_source("in", "0", StepSpec{0.0, 1.0, 0.0, 0.0});
  circuit.add_resistor("in", "out", 3000.0);
  circuit.add_resistor("out", "0", 2000.0);
  circuit.add_capacitor("out", "0", 1e-12);
  TransientOptions opt;
  opt.t_stop = 10e-9;

  const std::uint64_t before = extensions_counted();
  try {
    (void)run_until_crossing(circuit, "out", 0.5, opt, "settles_low");
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()).rfind("settles_low: 'out'", 0), 0u)
        << error.what();
  }
  EXPECT_EQ(extensions_counted() - before,
            rlcsim::obs::metrics_enabled() ? 3u : 0u);

  TransientOptions bad = opt;
  bad.probe = TransientProbe{"nowhere", 0.5};
  EXPECT_THROW(run_transient(circuit, bad), std::invalid_argument);
}

// record_only keeps one column of the every-node record, bit for bit: the
// same sample times and values, on the sparse path (a 60-segment ladder).
TEST(Transient, RecordOnlyKeepsOneColumnOfTheFullRecord) {
  const Circuit circuit =
      build_gate_line_load({100.0, {200.0, 5e-9, 1e-12}, 50e-15}, 60);
  TransientOptions opt;
  opt.t_stop = 2e-10;
  const TransientResult full = run_transient(circuit, opt);
  opt.record_only = "out";
  const TransientResult one = run_transient(circuit, opt);
  ASSERT_TRUE(full.used_sparse_solver);
  EXPECT_EQ(full.waveforms.node_names().size(), circuit.node_count());
  EXPECT_EQ(one.waveforms.node_names(), std::vector<std::string>{"out"});
  const std::vector<double>& t_full = full.waveforms.time();
  const std::vector<double>& t_one = one.waveforms.time();
  const std::vector<double> v_full = full.waveforms.trace("out").value();
  const std::vector<double> v_one = one.waveforms.trace("out").value();
  ASSERT_EQ(t_one.size(), t_full.size());
  ASSERT_EQ(v_one.size(), v_full.size());
  EXPECT_EQ(std::memcmp(t_one.data(), t_full.data(), t_full.size() * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(v_one.data(), v_full.data(), v_full.size() * sizeof(double)), 0);
}

TEST(Transient, OptionValidation) {
  const Circuit c = rc_charger(1.0, 1e-12);
  TransientOptions bad;
  bad.t_stop = 0.0;
  EXPECT_THROW(run_transient(c, bad), std::invalid_argument);
  bad.t_stop = 1e-9;
  bad.dt = 2e-9;
  EXPECT_THROW(run_transient(c, bad), std::invalid_argument);
  bad.dt = 0.0;
  for (const char* node : {"nowhere", "0"}) {
    bad.record_only = node;
    EXPECT_THROW(run_transient(c, bad), std::invalid_argument) << node;
  }
}

// Convergence order probe: halving dt must shrink the trapezoidal error
// by ~4x on a smooth interval.
class TrapConvergence : public ::testing::TestWithParam<double> {};

TEST_P(TrapConvergence, SecondOrderInDt) {
  const double dt = GetParam();
  const Circuit c = rc_charger(1000.0, 1e-12);
  const auto run_error = [&](double step) {
    TransientOptions opt;
    opt.t_stop = 2e-9;
    opt.dt = step;
    const Trace out = run_transient(c, opt).waveforms.trace("out");
    // Sample at a smooth point away from the t=0 discontinuity.
    return std::fabs(out.at(1.5e-9) - (1.0 - std::exp(-1.5)));
  };
  const double ratio = run_error(dt) / run_error(dt / 2.0);
  EXPECT_GT(ratio, 2.5);
  EXPECT_LT(ratio, 6.0);
}

INSTANTIATE_TEST_SUITE_P(Steps, TrapConvergence, ::testing::Values(40e-12, 20e-12));

}  // namespace
