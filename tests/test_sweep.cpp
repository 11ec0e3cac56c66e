#include "sweep/sweep.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/delay_model.h"
#include "core/repeater_numeric.h"
#include "runtime/thread_pool.h"
#include "sim/builders.h"

namespace {

using namespace rlcsim;

// A 3x3x3 grid whose 25-segment ladders put the transient engine on the
// sparse-solver path (~80 unknowns), so the symbolic-reuse machinery is
// actually exercised rather than bypassed by the dense fallback.
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

sweep::EngineOptions engine_options(std::size_t threads) {
  sweep::EngineOptions options;
  options.threads = threads;
  options.segments = 25;
  return options;
}

TEST(SweepSpec, IndexingRoundTrips) {
  const sweep::SweepSpec spec = small_grid();
  ASSERT_EQ(spec.size(), 27u);
  for (std::size_t flat = 0; flat < spec.size(); ++flat) {
    const auto idx = spec.indices(flat);
    EXPECT_EQ(spec.flat_index(idx), flat);
  }
  // Last axis varies fastest; axes apply their values to the scenario.
  const auto s0 = spec.at(0);
  const auto s1 = spec.at(1);
  EXPECT_DOUBLE_EQ(s0.system.driver_resistance, 200.0);
  EXPECT_DOUBLE_EQ(s0.system.load_capacitance, 0.1e-12);
  EXPECT_DOUBLE_EQ(s1.system.driver_resistance, 200.0);
  EXPECT_DOUBLE_EQ(s1.system.load_capacitance, 0.5e-12);
  EXPECT_DOUBLE_EQ(spec.at(26).system.driver_resistance, 900.0);
}

TEST(SweepSpec, ValidatesAxes) {
  sweep::SweepSpec spec = small_grid();
  spec.axes.push_back(sweep::values(sweep::Variable::kLineResistance, {}));
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  sweep::SweepSpec length_spec;
  length_spec.base.system = {500.0, {1000.0, 1e-7, 1e-12}, 0.0};
  length_spec.axes = {sweep::linspace(sweep::Variable::kLineLength, 1e-3, 1e-2, 4)};
  // No per-unit-length parasitics set: a length axis cannot be resolved.
  EXPECT_THROW(length_spec.validate(), std::invalid_argument);
  length_spec.per_length = {5000.0, 1e-6, 1e-10, 0.0};
  EXPECT_NO_THROW(length_spec.validate());
  EXPECT_DOUBLE_EQ(length_spec.at(3).system.line.total_resistance, 50.0);
}

TEST(SweepEngine, ClosedFormMatchesDirectEvaluation) {
  const sweep::SweepSpec spec = small_grid();
  const sweep::SweepEngine engine(engine_options(3));
  const auto result = engine.run(spec, sweep::Analysis::kClosedFormDelay);
  ASSERT_EQ(result.values.size(), spec.size());
  for (std::size_t i = 0; i < spec.size(); ++i)
    EXPECT_EQ(result.values[i], core::rlc_delay(spec.at(i).system)) << "point " << i;
}

// The tentpole guarantee: a transient sweep is bit-identical at every
// thread count, because every point replays the pivot order recorded by the
// one reference factorization rather than depending on which worker ran it.
TEST(SweepEngine, TransientSweepBitIdenticalAcrossThreadCounts) {
  const sweep::SweepSpec spec = small_grid();
  const sweep::SweepEngine one(engine_options(1));
  const sweep::SweepEngine two(engine_options(2));
  const sweep::SweepEngine five(engine_options(5));

  const auto r1 = one.run(spec, sweep::Analysis::kTransientDelay);
  const auto r2 = two.run(spec, sweep::Analysis::kTransientDelay);
  const auto r5 = five.run(spec, sweep::Analysis::kTransientDelay);

  ASSERT_EQ(r1.values.size(), spec.size());
  for (std::size_t i = 0; i < spec.size(); ++i) {
    EXPECT_EQ(r1.values[i], r2.values[i]) << "1-vs-2 thread mismatch at " << i;
    EXPECT_EQ(r1.values[i], r5.values[i]) << "1-vs-5 thread mismatch at " << i;
    EXPECT_TRUE(std::isfinite(r1.values[i]));
  }
}

// Symbolic-factorization accounting: one system + one DC analysis for the
// whole sweep, every other run a reuse hit — at any thread count.
TEST(SweepEngine, TransientSweepReusesSymbolicFactorization) {
  const sweep::SweepSpec spec = small_grid();
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const sweep::SweepEngine engine(engine_options(threads));
    const auto result = engine.run(spec, sweep::Analysis::kTransientDelay);
    EXPECT_EQ(result.symbolic_factorizations, 2u) << threads << " threads";
    EXPECT_EQ(result.solver_reuse_hits, spec.size() - 1) << threads << " threads";
  }
}

// Oracle cross-check: engine results equal a direct, reuse-free
// run_transient (via simulate_gate_line_delay) on pseudo-random grid points.
TEST(SweepEngine, TransientMatchesDirectSimulation) {
  sweep::SweepSpec spec;
  spec.base.system = {500.0, {1000.0, 1e-7, 1e-12}, 0.5e-12};
  spec.axes = {
      sweep::linspace(sweep::Variable::kDriverResistance, 100.0, 1000.0, 5),
      sweep::logspace(sweep::Variable::kLineInductance, 3e-8, 3e-7, 4),
      sweep::linspace(sweep::Variable::kLoadCapacitance, 0.1e-12, 1e-12, 4),
  };
  const sweep::EngineOptions options = engine_options(4);
  const sweep::SweepEngine engine(options);
  const auto result = engine.run(spec, sweep::Analysis::kTransientDelay);

  // 20 deterministic pseudo-random points (LCG), compared to the direct path.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int draw = 0; draw < 20; ++draw) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::size_t i = static_cast<std::size_t>(state >> 33) % spec.size();
    const double direct =
        sim::simulate_gate_line_delay(spec.at(i).system, options.segments);
    EXPECT_NEAR(result.values[i], direct, 1e-9 * direct) << "point " << i;
  }
}

// Every analysis goes through run()'s one unit loop: seeded from point 0,
// W = 1 units in grid order, W = 8 tiles (a full one and a remainder) for
// transients on an explicit horizon. Each sweep is memcmp-equal at 1 and
// 3 threads and accounts every point as batched or scalar.
TEST(SweepEngine, EveryAnalysisIsThreadCountIdenticalAndFullyAccounted) {
  sweep::SweepSpec spec;
  spec.base.system = {500.0, {1000.0, 1e-7, 1e-12}, 0.5e-12};
  spec.base.buffer = {3000.0, 5e-15, 1.0, 0.0};
  spec.base.design = {32.0, 4.0};
  spec.base.xtalk.cc_ratio = 0.2;
  spec.base.xtalk.lm_ratio = 0.2;
  spec.base.xtalk.pattern = core::SwitchingPattern::kSamePhase;
  spec.axes = {
      sweep::values(sweep::Variable::kDriverResistance, {200.0, 500.0, 900.0}),
      sweep::values(sweep::Variable::kLoadCapacitance,
                    {0.1e-12, 0.3e-12, 0.6e-12, 1e-12}),
  };
  const std::size_t n = spec.size();  // 12: one 8-lane tile + 3 remainder

  struct Case {
    sweep::Analysis analysis;
    bool reuse_projection = false;
    std::size_t lanes = 0;  // with an explicit t_stop when nonzero
  };
  std::vector<Case> cases;
  for (int a = 0; a <= static_cast<int>(sweep::Analysis::kBusRepeaterNoise); ++a)
    cases.push_back({static_cast<sweep::Analysis>(a)});
  cases.push_back({sweep::Analysis::kReducedDelay, true});
  cases.push_back({sweep::Analysis::kTransientDelay, false, 1});
  cases.push_back({sweep::Analysis::kTransientDelay, false, 8});

  std::vector<double> tiled;  // the lanes = 8 values, against lanes = 1
  for (const Case& c : cases) {
    const std::string name = std::string(sweep::analysis_name(c.analysis)) +
                             (c.reuse_projection ? " projected" : "") +
                             (c.lanes ? " lanes " + std::to_string(c.lanes) : "");
    std::vector<sweep::SweepResult> results;
    for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      sweep::EngineOptions options = engine_options(threads);
      options.reuse_projection = c.reuse_projection;
      if (c.lanes != 0) {
        options.lanes = c.lanes;
        options.t_stop = 5e-9;
      }
      results.push_back(sweep::SweepEngine(options).run(spec, c.analysis));
      const sweep::SweepResult& r = results.back();
      ASSERT_EQ(r.values.size(), n) << name;
      EXPECT_EQ(r.batched_points + r.scalar_points, n) << name;
      EXPECT_EQ(r.batched_points, c.lanes == 8 ? 8u : 0u) << name;
    }
    EXPECT_EQ(std::memcmp(results[0].values.data(), results[1].values.data(),
                          n * sizeof(double)),
              0)
        << name << ": 1 vs 3 threads";
    if (c.lanes == 1) tiled = results[0].values;
    if (c.lanes == 8) {
      EXPECT_EQ(std::memcmp(tiled.data(), results[0].values.data(), n * sizeof(double)),
                0)
          << "lanes 8 vs lanes 1";
    }
  }
}

TEST(SweepEngine, ExceptionFromWorkerPropagatesLowestIndex) {
  const sweep::SweepEngine engine(engine_options(4));
  try {
    engine.run_custom(64, [](std::size_t i, sweep::SweepEngine::PointContext&) {
      if (i >= 3) throw std::runtime_error("sweep point " + std::to_string(i));
      return static_cast<double>(i);
    });
    FAIL() << "expected the worker exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "sweep point 3");
  }
  // The engine (and its pool) stay usable after a failed sweep.
  const auto ok = engine.run_custom(
      8, [](std::size_t i, sweep::SweepEngine::PointContext&) {
        return static_cast<double>(i) * 2.0;
      });
  ASSERT_EQ(ok.values.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(ok.values[i], 2.0 * i);
}

// A bad scenario inside run() propagates too (invalid_argument from the
// delay model), rather than poisoning other points.
TEST(SweepEngine, InvalidScenarioThrowsFromRun) {
  sweep::SweepSpec spec = small_grid();
  spec.axes[1] = sweep::values(sweep::Variable::kLineInductance, {1e-8, -1e-8, 1e-7});
  const sweep::SweepEngine engine(engine_options(2));
  EXPECT_THROW(engine.run(spec, sweep::Analysis::kClosedFormDelay),
               std::invalid_argument);
}

TEST(SweepEngine, RepeaterBatchMatchesSerialOptimize) {
  // T_{L/R} ~ 3 — the paper's "common for wide wires" regime, where the
  // optimum has k > 1 and both coarse passes search a nonempty box.
  const tline::LineParams line{100.0, 10e-9, 2e-12};
  const core::MinBuffer buffer{5000.0, 6.6e-15, 1.0, 0.0};
  const core::OptimizedDesign serial = core::optimize(line, buffer);
  const sweep::SweepEngine engine(engine_options(4));
  const core::OptimizedDesign parallel = engine.optimize_repeater(line, buffer);
  // Both coarse passes feed the same Nelder-Mead polish; the minimum is
  // flat, so delays agree far tighter than the (h, k) coordinates.
  EXPECT_NEAR(parallel.continuous_delay, serial.continuous_delay,
              1e-7 * serial.continuous_delay);
  EXPECT_NEAR(parallel.continuous.size, serial.continuous.size,
              1e-3 * serial.continuous.size);
  EXPECT_NEAR(parallel.continuous.sections, serial.continuous.sections,
              1e-3 * serial.continuous.sections);
}

// Every point of this grid has a closed-form seed below one section (a
// resistive 1 uH line behind a weak buffer): the optimum sits on the
// min_sections = 1 boundary instead of aborting the sweep.
TEST(SweepEngine, RepeaterOptimumOnASubSectionSeedLine) {
  sweep::SweepSpec spec;
  spec.base.system = {500.0, {1000.0, 1e-6, 1e-12}, 0.5e-12};
  spec.base.buffer = {3000.0, 5e-15, 1.0, 0.0};
  spec.axes = {
      sweep::values(sweep::Variable::kDriverResistance, {200.0, 500.0, 900.0}),
      sweep::values(sweep::Variable::kLoadCapacitance, {0.1e-12, 0.5e-12, 1e-12}),
  };
  const auto result = sweep::SweepEngine(engine_options(2))
                          .run(spec, sweep::Analysis::kRepeaterOptimum);
  ASSERT_EQ(result.values.size(), spec.size());
  for (double v : result.values) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GT(v, 0.0);
  }
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  runtime::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(10000);
  std::atomic<std::size_t> max_worker{0};
  pool.parallel_for(hits.size(), [&](std::size_t i, std::size_t worker) {
    hits[i].fetch_add(1);
    std::size_t seen = max_worker.load();
    while (worker > seen && !max_worker.compare_exchange_weak(seen, worker)) {
    }
  });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
  EXPECT_LT(max_worker.load(), 4u);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  runtime::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(32 * 8);
  pool.parallel_for(32, [&](std::size_t i, std::size_t) {
    pool.parallel_for(8, [&](std::size_t j, std::size_t) {
      hits[i * 8 + j].fetch_add(1);
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadRunsInlineWithoutBackgroundWorkers) {
  runtime::ThreadPool pool(1);
  std::vector<int> hits(100, 0);  // plain ints: no other thread may touch them
  pool.parallel_for(hits.size(), [&](std::size_t i, std::size_t worker) {
    EXPECT_EQ(worker, 0u);
    ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

}  // namespace
