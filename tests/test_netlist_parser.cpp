#include "sim/netlist_parser.h"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "sim/transient.h"

namespace {

using namespace rlcsim::sim;

TEST(Parser, MinimalRcNetlist) {
  const auto parsed = parse_netlist(R"(* simple RC
V1 in 0 STEP(0 1 0)
R1 in out 1k
C1 out 0 1p
.tran 1p 5n
.end
)");
  EXPECT_EQ(parsed.circuit.resistors().size(), 1u);
  EXPECT_EQ(parsed.circuit.capacitors().size(), 1u);
  EXPECT_EQ(parsed.circuit.voltage_sources().size(), 1u);
  EXPECT_DOUBLE_EQ(parsed.circuit.resistors()[0].resistance, 1000.0);
  EXPECT_DOUBLE_EQ(parsed.circuit.capacitors()[0].capacitance, 1e-12);
  ASSERT_TRUE(parsed.tran);
  EXPECT_DOUBLE_EQ(parsed.tran->dt, 1e-12);
  EXPECT_DOUBLE_EQ(parsed.tran->t_stop, 5e-9);
}

TEST(Parser, ParsedCircuitSimulates) {
  const auto parsed = parse_netlist(R"(
V1 in 0 STEP(0 1 0)
R1 in out 1k
C1 out 0 1p
.tran 2.5p 5n
)");
  const auto result = run_transient(parsed.circuit, *parsed.tran);
  const double v = result.waveforms.trace("out").at(1e-9);
  EXPECT_NEAR(v, 1.0 - std::exp(-1.0), 1e-3);
}

TEST(Parser, TitleLineIsCaptured) {
  const auto parsed = parse_netlist(R"(my circuit title
V1 a 0 DC 1
R1 a 0 50
)");
  EXPECT_EQ(parsed.title, "my circuit title");
}

TEST(Parser, AllSourceForms) {
  const auto parsed = parse_netlist(R"(
V1 a 0 DC 2.5
V2 b 0 STEP(0 1 10p 5p)
V3 c 0 PULSE(0 1 0 10p 10p 1n 2n)
V4 d 0 PWL(0 0 1n 1 2n 0.5)
I1 0 a DC 1m
R1 a 0 1k
R2 b 0 1k
R3 c 0 1k
R4 d 0 1k
)");
  const auto& vs = parsed.circuit.voltage_sources();
  ASSERT_EQ(vs.size(), 4u);
  EXPECT_TRUE(std::holds_alternative<DcSpec>(vs[0].spec));
  EXPECT_TRUE(std::holds_alternative<StepSpec>(vs[1].spec));
  EXPECT_TRUE(std::holds_alternative<PulseSpec>(vs[2].spec));
  EXPECT_TRUE(std::holds_alternative<PwlSpec>(vs[3].spec));
  EXPECT_DOUBLE_EQ(std::get<StepSpec>(vs[1].spec).delay, 10e-12);
  EXPECT_DOUBLE_EQ(std::get<StepSpec>(vs[1].spec).rise, 5e-12);
  EXPECT_DOUBLE_EQ(std::get<PulseSpec>(vs[2].spec).width, 1e-9);
  EXPECT_EQ(std::get<PwlSpec>(vs[3].spec).points.size(), 3u);
  EXPECT_EQ(parsed.circuit.current_sources().size(), 1u);
}

TEST(Parser, BareValueIsDc) {
  const auto parsed = parse_netlist("V1 a 0 3.3\nR1 a 0 1k\n");
  EXPECT_DOUBLE_EQ(std::get<DcSpec>(parsed.circuit.voltage_sources()[0].spec).value,
                   3.3);
}

TEST(Parser, BufferElement) {
  const auto parsed = parse_netlist(R"(
V1 in 0 STEP(0 1 0)
R1 in a 10
B1 a b ROUT=120 CIN=3f VDD=2.5 TH=0.4
C1 b 0 1p
)");
  const auto& bufs = parsed.circuit.buffers();
  ASSERT_EQ(bufs.size(), 1u);
  EXPECT_DOUBLE_EQ(bufs[0].output_resistance, 120.0);
  EXPECT_DOUBLE_EQ(bufs[0].input_capacitance, 3e-15);
  EXPECT_DOUBLE_EQ(bufs[0].vdd, 2.5);
  EXPECT_DOUBLE_EQ(bufs[0].threshold, 0.4);
}

TEST(Parser, InitialConditions) {
  const auto parsed = parse_netlist(R"(
V1 a 0 DC 1
R1 a b 1k
C1 b 0 1p IC=0.5
L1 b 0 1n IC=1m
)");
  EXPECT_DOUBLE_EQ(parsed.circuit.capacitors()[0].initial_voltage, 0.5);
  EXPECT_DOUBLE_EQ(parsed.circuit.inductors()[0].initial_current, 1e-3);
}

TEST(Parser, CommentsAndBlankLines) {
  EXPECT_NO_THROW(parse_netlist(R"(* header comment

V1 a 0 DC 1   ; trailing comment
* another comment
R1 a 0 50
)"));
}

TEST(ParserErrors, ReportLineNumbers) {
  try {
    parse_netlist("V1 a 0 DC 1\nR1 a 0 50\nR2 a 0 bogus\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
}

TEST(ParserErrors, SpecificMessages) {
  EXPECT_THROW(parse_netlist("R1 a 0\n"), ParseError);                     // missing value
  EXPECT_THROW(parse_netlist("V1 a 0 STEP(0)\nR1 a 0 1\n"), ParseError);   // bad STEP
  EXPECT_THROW(parse_netlist("V1 a 0 PWL(0 0 0 1)\nR1 a 0 1\n"), ParseError);  // non-increasing
  EXPECT_THROW(parse_netlist("B1 a b CIN=1f\nR1 a 0 1\n"), ParseError);    // missing ROUT
  EXPECT_THROW(parse_netlist(".frobnicate\n"), ParseError);                // unknown card
  EXPECT_THROW(parse_netlist(".tran 1n\n"), ParseError);                   // bad .tran
  EXPECT_THROW(parse_netlist("V1 a 0 DC 1\n.end\nR1 a 0 1\n"), ParseError);  // after .end
  EXPECT_THROW(parse_netlist(""), ParseError);                             // empty
  EXPECT_THROW(parse_netlist("Q1 a b c\n"), ParseError);                   // unknown element
}

TEST(Parser, ScaleSuffixesInValues) {
  const auto parsed = parse_netlist(R"(
V1 a 0 DC 1
R1 a b 2meg
R2 b c 1.5k
C1 c 0 3f
L1 c 0 2u
)");
  EXPECT_DOUBLE_EQ(parsed.circuit.resistors()[0].resistance, 2e6);
  EXPECT_DOUBLE_EQ(parsed.circuit.resistors()[1].resistance, 1500.0);
  EXPECT_DOUBLE_EQ(parsed.circuit.capacitors()[0].capacitance, 3e-15);
  EXPECT_DOUBLE_EQ(parsed.circuit.inductors()[0].inductance, 2e-6);
}

TEST(Parser, PulseWithSpacesInsideParens) {
  EXPECT_NO_THROW(parse_netlist("V1 a 0 PULSE( 0 1 0 10p 10p 1n )\nR1 a 0 1k\n"));
}

// ---- robustness: malformed input must raise ParseError, never UB ---------

// Expects a ParseError whose message mentions `needle` and carries `line`.
void expect_parse_error(const std::string& netlist, int line,
                        const std::string& needle) {
  try {
    parse_netlist(netlist);
    FAIL() << "expected ParseError for: " << netlist;
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), line) << e.what();
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST(ParserErrors, DuplicateElementNames) {
  expect_parse_error("V1 a 0 DC 1\nR1 a b 1k\nR1 b 0 2k\n", 3, "duplicate");
  // Case-insensitive, like every other SPICE name.
  expect_parse_error("V1 a 0 DC 1\nRload a 0 1k\nRLOAD a 0 1k\n", 3, "duplicate");
  // Across element kinds the first letter differs, so names may collide
  // only within... no: SPICE names include the letter, C1 and R1 coexist.
  EXPECT_NO_THROW(parse_netlist("V1 a 0 DC 1\nR1 a 0 1k\nC1 a 0 1p\nL1 a 0 1n\n"));
}

TEST(ParserErrors, ZeroAndNegativeElementValues) {
  expect_parse_error("V1 a 0 DC 1\nR1 a 0 0\n", 2, "positive");
  expect_parse_error("V1 a 0 DC 1\nR1 a 0 -5\n", 2, "positive");
  expect_parse_error("V1 a 0 DC 1\nC1 a 0 0\n", 2, "positive");
  expect_parse_error("V1 a 0 DC 1\nC1 a 0 -1p\n", 2, "positive");
  expect_parse_error("V1 a 0 DC 1\nL1 a 0 0\n", 2, "positive");
  expect_parse_error("V1 a 0 DC 1\nL1 a 0 -1n\n", 2, "positive");
  // Overflow to infinity is rejected too, with the offending text echoed.
  expect_parse_error("V1 a 0 DC 1\nR1 a 0 1e400\n", 2, "1e400");
}

TEST(ParserErrors, StructuralErrorsCarryLineNumbers) {
  // Source shorted to itself: caught by the circuit layer, reported with
  // the netlist line.
  expect_parse_error("V1 a a DC 1\nR1 a 0 1k\n", 1, "terminals");
  // Buffer threshold outside (0, 1).
  expect_parse_error("V1 a 0 DC 1\nB1 a b ROUT=100 CIN=1f TH=1.5\nR1 b 0 1k\n", 2,
                     "threshold");
  // K-card referencing an unknown inductor name.
  expect_parse_error("V1 a 0 DC 1\nL1 a 0 1n\nK1 L1 L9 0.5\n", 3, "L9");
  // K-card coupling an inductor to itself.
  expect_parse_error("V1 a 0 DC 1\nL1 a 0 1n\nK1 L1 L1 0.5\n", 3, "itself");
}

TEST(ParserErrors, ParallelVoltageSourcesNameTheLoop) {
  // Parses fine, but two sources in parallel leave the MNA matrix singular:
  // simulating names the source that closes the loop instead of reporting
  // a bare singular matrix.
  const auto parsed = parse_netlist("V1 a 0 DC 1\nV2 a 0 DC 2\nR1 a 0 1k\n.tran 1p 1n\n");
  try {
    (void)run_transient(parsed.circuit, *parsed.tran);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'V2'"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("loop"), std::string::npos) << e.what();
  }
}

TEST(ParserErrors, MalformedLines) {
  expect_parse_error("V1 a 0 DC 1\nR1 a 0 1..2\n", 2, "1..2");  // junk suffix
  expect_parse_error("V1 a 0 DC 1\nR1 a 0 1k extra\n", 2, "value");
  expect_parse_error("V1 a 0 STEP(0 1\nR1 a 0 1k\n", 1, "malformed");  // unclosed (
  expect_parse_error("V1 a 0 PULSE(0 1 0 1p 1p 1n 2n 3n)\nR1 a 0 1k\n", 1, "PULSE");
  expect_parse_error("K1 L1\n", 1, "nodes");  // too few tokens
}

TEST(Parser, ValidNetlistStillParsesAfterHardening) {
  // The hardened parser accepts everything the simulator can actually run.
  const auto parsed = parse_netlist(R"(hardening smoke test
V1 in 0 STEP(0 1 0 5p)
R1 in n1 50
L1 n1 n2 1n IC=0
C1 n2 0 100f IC=0
Lx n2 out 2n
Ky L1 Lx 0.3
B1 out buf ROUT=200 CIN=2f
Cb buf 0 10f
.tran 1p 4n
)");
  EXPECT_EQ(parsed.circuit.inductors().size(), 2u);
  EXPECT_EQ(parsed.circuit.mutuals().size(), 1u);
  ASSERT_TRUE(parsed.tran);
}

}  // namespace
