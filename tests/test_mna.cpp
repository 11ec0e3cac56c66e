#include "sim/mna.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "numeric/matrix.h"
#include "numeric/sparse_batch.h"
#include "sim/transient.h"

namespace {

using namespace rlcsim::sim;
using rlcsim::numeric::RealLu;

TEST(DcSolve, VoltageDivider) {
  Circuit c;
  c.add_voltage_source("in", "0", DcSpec{10.0});
  c.add_resistor("in", "mid", 1000.0);
  c.add_resistor("mid", "0", 3000.0);
  const MnaAssembler mna(c);
  const auto x = RealLu(mna.dc_matrix()).solve(mna.dc_rhs(0.0));
  const auto mid = c.find_node("mid");
  ASSERT_TRUE(mid);
  EXPECT_NEAR(x[static_cast<std::size_t>(*mid)], 7.5, 1e-6);
}

TEST(DcSolve, InductorIsShort) {
  Circuit c;
  c.add_voltage_source("in", "0", DcSpec{5.0});
  c.add_inductor("in", "out", 1e-9);
  c.add_resistor("out", "0", 100.0);
  const MnaAssembler mna(c);
  const auto x = RealLu(mna.dc_matrix()).solve(mna.dc_rhs(0.0));
  const auto out = c.find_node("out");
  EXPECT_NEAR(x[static_cast<std::size_t>(*out)], 5.0, 1e-6);
  // Inductor branch current = 5 V / 100 ohm.
  EXPECT_NEAR(x[mna.inductor_branch(0)], 0.05, 1e-9);
}

TEST(DcSolve, CapacitorIsOpen) {
  Circuit c;
  c.add_voltage_source("in", "0", DcSpec{2.0});
  c.add_resistor("in", "out", 1000.0);
  c.add_capacitor("out", "0", 1e-12);
  const MnaAssembler mna(c);
  const auto x = RealLu(mna.dc_matrix()).solve(mna.dc_rhs(0.0));
  const auto out = c.find_node("out");
  // No DC current -> no drop across the resistor (up to the Gmin leak).
  EXPECT_NEAR(x[static_cast<std::size_t>(*out)], 2.0, 1e-6);
}

TEST(Assembler, UnknownLayout) {
  Circuit c;
  c.add_voltage_source("a", "0", DcSpec{1.0});
  c.add_voltage_source("b", "0", DcSpec{2.0});
  c.add_inductor("a", "b", 1e-9);
  c.add_resistor("b", "0", 1.0);
  const MnaAssembler mna(c);
  EXPECT_EQ(mna.node_count(), 2u);
  EXPECT_EQ(mna.unknown_count(), 2u + 2u + 1u);
  EXPECT_EQ(mna.vsource_branch(0), 2u);
  EXPECT_EQ(mna.vsource_branch(1), 3u);
  EXPECT_EQ(mna.inductor_branch(0), 4u);
}

TEST(TransientMatrix, CapacitorCompanionConductance) {
  Circuit c;
  c.add_voltage_source("in", "0", DcSpec{0.0});
  c.add_resistor("in", "out", 1.0);
  c.add_capacitor("out", "0", 2e-12);
  const MnaAssembler mna(c);
  const double dt = 1e-9;
  const auto trap = mna.transient_matrix(dt, Integrator::kTrapezoidal);
  const auto be = mna.transient_matrix(dt, Integrator::kBackwardEuler);
  const auto out = static_cast<std::size_t>(*c.find_node("out"));
  // Diagonal at "out": 1/R + G_c. Trapezoidal G = 2C/dt, BE G = C/dt.
  EXPECT_NEAR(trap(out, out), 1.0 + 2.0 * 2e-12 / dt, 1e-9);
  EXPECT_NEAR(be(out, out), 1.0 + 2e-12 / dt, 1e-9);
  EXPECT_THROW(mna.transient_matrix(0.0, Integrator::kTrapezoidal),
               std::invalid_argument);
}

TEST(InitialState, TransientStartsFromTheDcSolution) {
  // A transient starts from the DC operating point and, with DC sources
  // only, stays there. An RL branch: 3 V across 3 ohm, 1 A through the
  // inductor (a wrong inductor current or capacitor history would ring).
  Circuit rl;
  rl.add_voltage_source("in", "0", DcSpec{3.0});
  rl.add_inductor("in", "out", 1e-9);
  rl.add_resistor("out", "0", 3.0);
  rl.add_capacitor("out", "0", 1e-12);
  // A hand-analysis divider: 9 V over 1k + 2k puts node a at 6 V.
  Circuit divider;
  divider.add_voltage_source("in", "0", DcSpec{9.0});
  divider.add_resistor("in", "a", 1000.0);
  divider.add_resistor("a", "0", 2000.0);
  const struct {
    const Circuit& circuit;
    const char* node;
    double volts;
  } cases[] = {{rl, "out", 3.0}, {divider, "a", 6.0}};
  for (const auto& c : cases) {
    TransientOptions opt;
    opt.t_stop = 1e-9;
    const TransientResult r = run_transient(c.circuit, opt);
    EXPECT_DOUBLE_EQ(r.waveforms.time().front(), 0.0);
    const std::vector<double> trace = r.waveforms.trace(c.node).value();
    for (const double v : trace) EXPECT_NEAR(v, c.volts, 1e-6) << c.node;
  }
}

TEST(BufferDrive, SwitchesAtFireTime) {
  Buffer b;
  b.vdd = 2.5;
  b.output_v1 = 2.5;  // the builder methods set this; a raw Buffer must too
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(MnaAssembler::buffer_drive(b, inf, 1e9), 0.0);
  EXPECT_DOUBLE_EQ(MnaAssembler::buffer_drive(b, 1e-9, 0.5e-9), 0.0);
  // The value AT the fire instant is the pre-switch level (the StepSpec
  // convention, so a fire at t keeps the t-epsilon drive).
  EXPECT_DOUBLE_EQ(MnaAssembler::buffer_drive(b, 1e-9, 1e-9), 0.0);
  EXPECT_DOUBLE_EQ(MnaAssembler::buffer_drive(b, 1e-9, 2e-9), 2.5);
}

TEST(BufferDrive, RampedAndInvertingEdges) {
  Buffer b;
  b.vdd = 1.0;
  b.output_v0 = 1.0;  // inverting: high before fire
  b.output_v1 = 0.0;
  b.output_rise = 2e-10;
  EXPECT_DOUBLE_EQ(MnaAssembler::buffer_drive(b, 1e-9, 0.0), 1.0);
  EXPECT_NEAR(MnaAssembler::buffer_drive(b, 1e-9, 1.1e-9), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(MnaAssembler::buffer_drive(b, 1e-9, 1.2e-9), 0.0);
  EXPECT_DOUBLE_EQ(MnaAssembler::buffer_drive(b, 1e-9, 5e-9), 0.0);
}

TEST(Assembler, RejectsInvalidCircuit) {
  Circuit c;  // empty
  EXPECT_THROW(MnaAssembler{c}, std::invalid_argument);
}

// An RLC ladder on named nodes; `r` and `l` set the element values.
Circuit ladder(double r, double l, int segments) {
  Circuit c;
  c.add_voltage_source("in", "0", StepSpec{0.0, 1.0, 0.0, 0.0});
  std::string near = "in";
  for (int i = 0; i < segments; ++i) {
    const std::string index = std::to_string(i);
    const std::string mid = std::string(1, 'm') += index;
    const std::string far = std::string(1, 'n') += index;
    c.add_resistor(near, mid, r);
    c.add_inductor(mid, far, l);
    c.add_capacitor(far, "0", 1e-13 * (i + 1));
    near = far;
  }
  return c;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Assembler, SameTopologyAdoptsThePatternAndSlots) {
  const Circuit first = ladder(10.0, 1e-9, 6);
  const Circuit lane = ladder(37.0, 3e-9, 6);
  const MnaAssembler like(first);
  const MnaAssembler shared(lane, like);
  const MnaAssembler own(lane);
  EXPECT_EQ(shared.system_pattern(), like.system_pattern());  // same object
  std::vector<double> a, b;
  shared.system_values(2e12, a);
  own.system_values(2e12, b);
  EXPECT_TRUE(same_bits(a, b));

  // Another topology builds its own pattern.
  const Circuit longer = ladder(10.0, 1e-9, 7);
  const MnaAssembler other(longer, like);
  EXPECT_NE(other.system_pattern(), like.system_pattern());
  EXPECT_EQ(other.system_pattern()->nnz(), MnaAssembler(longer).system_pattern()->nnz());
}

TEST(Assembler, DcValuesIntoALaneMatchDcSparseBitForBit) {
  const Circuit first = ladder(10.0, 1e-9, 6);
  const Circuit lane = ladder(37.0, 3e-9, 6);
  const rlcsim::numeric::RealSparse dc = MnaAssembler(first).dc_sparse(1e-12);
  rlcsim::numeric::BatchedValues out(static_cast<std::size_t>(dc.pattern().nnz()), 4);
  const MnaAssembler mna(lane);
  ASSERT_TRUE(mna.dc_values_into(1e-12, dc.pattern(), out, 2));
  std::vector<double> got(static_cast<std::size_t>(dc.pattern().nnz()));
  for (std::size_t k = 0; k < got.size(); ++k) got[k] = out.at(k, 2);
  EXPECT_TRUE(same_bits(got, mna.dc_sparse(1e-12).values()));

  // A pattern of another topology is refused.
  const rlcsim::numeric::RealSparse bigger =
      MnaAssembler(ladder(10.0, 1e-9, 7)).dc_sparse(1e-12);
  rlcsim::numeric::BatchedValues wide(static_cast<std::size_t>(bigger.pattern().nnz()), 4);
  EXPECT_FALSE(mna.dc_values_into(1e-12, bigger.pattern(), wide, 0));
}

}  // namespace
