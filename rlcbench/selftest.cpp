// rlcbench self-tests: seeded inputs and failure accounting.
//
//   rlcbench_selftest    exit 0 when every check passes
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "workloads.h"

using namespace rlcbench;
using namespace rlcsim;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

bool increasing_within(const std::vector<double>& v, double lo, double hi) {
  if (v.empty() || v.front() != lo || v.back() != hi) return false;
  for (std::size_t i = 1; i < v.size(); ++i)
    if (!(v[i] > v[i - 1]) || v[i] < lo || v[i] > hi) return false;
  return true;
}

void test_splitmix() {
  // The reference splitmix64 sequence seeded with 0 starts here.
  check(splitmix64(0) == 0xe220a8397b1dcdafULL, "splitmix64(0)");
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const double u = unit_draw(7, 3, i);
    check(u >= 0.0 && u < 1.0, "unit_draw in [0, 1)");
  }
  check(unit_draw(7, 3, 5) == unit_draw(7, 3, 5), "unit_draw is a pure function");
  check(unit_draw(7, 3, 5) != unit_draw(8, 3, 5), "unit_draw depends on the seed");
  check(unit_draw(7, 3, 5) != unit_draw(7, 4, 5), "unit_draw depends on the stream");
}

void test_seeded_axes() {
  // Seed 0 is the evenly spaced canonical axis.
  const std::vector<double> lin = seeded_axis(100.0, 1000.0, 5, false, 0, 1);
  const sweep::Axis ref = sweep::linspace(sweep::Variable::kDriverResistance, 100.0, 1000.0, 5);
  for (std::size_t i = 0; i < lin.size(); ++i)
    check(std::fabs(lin[i] - ref.values[i]) <= 1e-12 * ref.values[i], "seed 0 linspace");
  const std::vector<double> lg = seeded_axis(1e-8, 1e-6, 4, true, 0, 1);
  const sweep::Axis lref = sweep::logspace(sweep::Variable::kLineInductance, 1e-8, 1e-6, 4);
  for (std::size_t i = 0; i < lg.size(); ++i)
    check(std::fabs(lg[i] - lref.values[i]) <= 1e-12 * lref.values[i], "seed 0 logspace");
  // Other seeds stay inside the range, keep its endpoints and stay sorted.
  for (std::uint64_t seed = 1; seed < 200; ++seed) {
    check(increasing_within(seeded_axis(100.0, 1000.0, 5, false, seed, 1), 100.0, 1000.0),
          "seeded linear axis within range, seed " + std::to_string(seed));
    check(increasing_within(seeded_axis(1e-8, 1e-6, 4, true, seed, 3), 1e-8, 1e-6),
          "seeded log axis within range, seed " + std::to_string(seed));
  }
}

void test_inputs() {
  for (Workload w : kAllWorkloads) {
    const std::string name = workload_name(w);
    check(parse_workload(name) == w, "parse_workload round trip " + name);
    for (std::uint64_t seed : {0ULL, 1ULL, 12345ULL})
      check(input_bytes(make_inputs(w, seed)) == input_bytes(make_inputs(w, seed)),
            "same seed, same input bytes: " + name);
    check(input_bytes(make_inputs(w, 0)) != input_bytes(make_inputs(w, 1)),
          "seeds 0 and 1 give different inputs: " + name);
    check(input_bytes(make_inputs(w, 1)) != input_bytes(make_inputs(w, 2)),
          "seeds 1 and 2 give different inputs: " + name);
    for (std::uint64_t seed : {0ULL, 3ULL, 99ULL}) {
      const Inputs in = make_inputs(w, seed);
      in.grid.validate();
      const Inputs canonical = make_inputs(w, 0);
      for (std::size_t a = 0; a < in.grid.axes.size(); ++a) {
        const std::vector<double>& v = in.grid.axes[a].values;
        const std::vector<double>& c = canonical.grid.axes[a].values;
        check(v.size() == c.size() && increasing_within(v, c.front(), c.back()),
              "grid axis within the canonical range: " + name);
      }
    }
  }
  check(!parse_workload("no_such_workload"), "unknown workload rejected");
}

void test_accounting() {
  sweep::EngineOptions options;
  options.threads = 2;
  const sweep::SweepEngine engine(options);
  // A sweep that throws returns no values: all of its points fail, and the
  // first error text is kept.
  const OpResult thrown = run_op("synthetic.throwing", 10, [&](OpResult& op) {
    op.values = engine
                    .run_custom(10, [](std::size_t i, sweep::SweepEngine::PointContext&) {
                      if (i == 3) throw std::runtime_error("synthetic failure at 3");
                      return 1.0;
                    })
                    .values;
  });
  check(thrown.ok == 0 && thrown.values.empty(), "throwing sweep returns no points");
  check(thrown.error == "synthetic failure at 3", "first error text kept");
  // A sweep that returns: non-finite values are failed points.
  const OpResult partial = run_op("synthetic.partial", 5, [&](OpResult& op) {
    op.values = engine
                    .run_custom(5, [](std::size_t i, sweep::SweepEngine::PointContext&) {
                      return i == 2 ? NAN : 1.0;
                    })
                    .values;
  });
  check(partial.ok == 4 && partial.error.empty(), "NaN point counted failed");
  const Accounting acc = account({thrown, partial});
  check(acc.attempted == 15 && acc.failed == 11, "attempted 15, failed 11");
  check(acc.fail_frac() == 11.0 / 15.0, "fail_frac = failed / attempted");
  check(account({}).fail_frac() == 0.0, "no attempts, no failures");
}

}  // namespace

int main() {
  test_splitmix();
  test_seeded_axes();
  test_inputs();
  test_accounting();
  std::printf("rlcbench_selftest: %s (%d failures)\n", failures ? "FAIL" : "ok", failures);
  return failures ? 1 : 0;
}
