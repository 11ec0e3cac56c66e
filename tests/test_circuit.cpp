#include "sim/circuit.h"

#include <stdexcept>

#include <gtest/gtest.h>

namespace {

using namespace rlcsim::sim;

TEST(Nodes, GroundAliases) {
  Circuit c;
  EXPECT_EQ(c.node("0"), kGround);
  EXPECT_EQ(c.node("gnd"), kGround);
  EXPECT_EQ(c.node("GND"), kGround);
  EXPECT_EQ(c.node_count(), 0u);
}

TEST(Nodes, StableIdsAndLookup) {
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(c.node("a"), a);
  EXPECT_EQ(c.node_count(), 2u);
  EXPECT_EQ(c.find_node("a"), a);
  EXPECT_FALSE(c.find_node("missing").has_value());
  EXPECT_EQ(c.node_name(a), "a");
  EXPECT_EQ(c.node_name(kGround), "0");
  EXPECT_THROW(c.node_name(99), std::out_of_range);
}

TEST(Elements, ValueValidation) {
  Circuit c;
  EXPECT_THROW(c.add_resistor("a", "0", 0.0), std::invalid_argument);
  EXPECT_THROW(c.add_resistor("a", "0", -5.0), std::invalid_argument);
  EXPECT_THROW(c.add_capacitor("a", "0", 0.0), std::invalid_argument);
  EXPECT_THROW(c.add_inductor("a", "0", -1e-9), std::invalid_argument);
  EXPECT_THROW(c.add_voltage_source("a", "a", DcSpec{1.0}), std::invalid_argument);
  EXPECT_THROW(c.add_buffer("a", "b", 0.0, 1e-15), std::invalid_argument);
  EXPECT_THROW(c.add_buffer("a", "b", 100.0, -1e-15), std::invalid_argument);
  EXPECT_THROW(c.add_buffer("a", "b", 100.0, 1e-15, 1.0, 1.5), std::invalid_argument);
}

TEST(SourceValue, DcAndStep) {
  EXPECT_DOUBLE_EQ(source_value(DcSpec{2.5}, 100.0), 2.5);
  const StepSpec step{0.0, 1.0, 1e-9, 0.0};
  EXPECT_DOUBLE_EQ(source_value(step, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(source_value(step, 1e-9), 0.0);  // strict edge
  EXPECT_DOUBLE_EQ(source_value(step, 1.001e-9), 1.0);
}

TEST(SourceValue, StepAtTimeZeroKeepsDcPointAtV0) {
  // The regression that broke the whole simulator once: a step with delay 0
  // must still read v0 at exactly t = 0.
  const StepSpec step{0.0, 1.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(source_value(step, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(source_value(step, 1e-15), 1.0);
}

TEST(SourceValue, StepWithRamp) {
  const StepSpec step{1.0, 3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(source_value(step, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(source_value(step, 2.0), 2.0);  // halfway up the ramp
  EXPECT_DOUBLE_EQ(source_value(step, 3.0), 3.0);
  EXPECT_DOUBLE_EQ(source_value(step, 9.0), 3.0);
}

TEST(SourceValue, Pwl) {
  PwlSpec pwl;
  pwl.points = {{0.0, 0.0}, {1.0, 2.0}, {3.0, 2.0}, {4.0, -1.0}};
  EXPECT_DOUBLE_EQ(source_value(pwl, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(source_value(pwl, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(source_value(pwl, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(source_value(pwl, 3.5), 0.5);
  EXPECT_DOUBLE_EQ(source_value(pwl, 10.0), -1.0);
}

TEST(SourceValue, PulseTrain) {
  const PulseSpec p{0.0, 1.0, 1.0, 0.1, 0.1, 0.5, 2.0};
  EXPECT_DOUBLE_EQ(source_value(p, 0.5), 0.0);          // before delay
  EXPECT_NEAR(source_value(p, 1.05), 0.5, 1e-12);       // mid-rise
  EXPECT_DOUBLE_EQ(source_value(p, 1.3), 1.0);          // flat top
  EXPECT_NEAR(source_value(p, 1.65), 0.5, 1e-12);       // mid-fall
  EXPECT_DOUBLE_EQ(source_value(p, 2.0), 0.0);          // low
  EXPECT_DOUBLE_EQ(source_value(p, 3.3), 1.0);          // next period's top
}

TEST(Validate, EmptyCircuit) {
  Circuit c;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Validate, FloatingNodeDetected) {
  Circuit c;
  c.add_voltage_source("in", "0", DcSpec{1.0});
  c.add_resistor("in", "a", 100.0);
  c.add_capacitor("b", "0", 1e-12);  // "b" reachable only through nothing
  try {
    c.validate();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'b'"), std::string::npos);
  }
}

TEST(Validate, InductorAndVsourceCountAsDcPaths) {
  Circuit c;
  c.add_voltage_source("in", "0", DcSpec{1.0});
  c.add_inductor("in", "mid", 1e-9);
  c.add_resistor("mid", "out", 10.0);
  c.add_capacitor("out", "0", 1e-12);
  EXPECT_NO_THROW(c.validate());
}

TEST(Validate, VoltageSourceLoopNamesTheClosingSource) {
  Circuit parallel;
  parallel.add_voltage_source("in", "0", DcSpec{1.0}, "v1");
  parallel.add_voltage_source("in", "0", DcSpec{2.0}, "v2");
  parallel.add_resistor("in", "0", 100.0);
  try {
    parallel.validate();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'v2'"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("loop"), std::string::npos) << e.what();
  }

  // A three-source ring through ground, closed by the last one.
  Circuit ring;
  ring.add_voltage_source("a", "0", DcSpec{1.0}, "va");
  ring.add_voltage_source("b", "a", DcSpec{1.0}, "vb");
  ring.add_voltage_source("b", "0", DcSpec{2.0}, "vc");
  ring.add_resistor("b", "0", 100.0);
  try {
    ring.validate();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'vc'"), std::string::npos) << e.what();
  }

  // Sources in series are no loop.
  Circuit series;
  series.add_voltage_source("a", "0", DcSpec{1.0}, "va");
  series.add_voltage_source("b", "a", DcSpec{1.0}, "vb");
  series.add_resistor("b", "0", 100.0);
  EXPECT_NO_THROW(series.validate());
}

TEST(Validate, BufferOutputIsGrounded) {
  Circuit c;
  c.add_voltage_source("in", "0", StepSpec{});
  c.add_resistor("in", "a", 10.0);
  c.add_buffer("a", "b", 100.0, 1e-15);
  c.add_capacitor("b", "0", 1e-12);  // b driven only by the buffer
  EXPECT_NO_THROW(c.validate());
}

}  // namespace
