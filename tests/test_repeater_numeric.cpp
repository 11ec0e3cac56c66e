#include "core/repeater_numeric.h"

#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include "numeric/optimize.h"

namespace {

using namespace rlcsim;
using namespace rlcsim::core;

TEST(NormalizedOptimum, ApproachesBakogluAsTVanishes) {
  const NormalizedOptimum opt = normalized_optimum(0.05);
  EXPECT_NEAR(opt.h_factor, 1.0, 0.03);
  EXPECT_NEAR(opt.k_factor, 1.0, 0.03);
  EXPECT_THROW(normalized_optimum(0.0), std::invalid_argument);
}

TEST(NormalizedOptimum, FactorsDecreaseWithT) {
  double prev_h = 1.1, prev_k = 1.1;
  for (double t : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    const NormalizedOptimum opt = normalized_optimum(t);
    EXPECT_LT(opt.h_factor, prev_h) << "T=" << t;
    EXPECT_LT(opt.k_factor, prev_k) << "T=" << t;
    EXPECT_GT(opt.h_factor, 0.0);
    EXPECT_GT(opt.k_factor, 0.0);
    prev_h = opt.h_factor;
    prev_k = opt.k_factor;
  }
}

TEST(NormalizedOptimum, IsActuallyAMinimum) {
  // Perturbing the found optimum in any direction must not reduce the delay.
  const double t = 3.0;
  const NormalizedOptimum opt = normalized_optimum(t);
  const tline::LineParams line{1.0, t, 1.0};
  const MinBuffer buffer{1.0, 1.0, 1.0, 0.0};
  const RepeaterDesign rc = bakoglu_rc(line, buffer);
  const RepeaterDesign best{opt.h_factor * rc.size, opt.k_factor * rc.sections};
  const double d0 = total_delay(line, buffer, best);
  for (double eps : {-0.02, 0.02}) {
    EXPECT_GE(total_delay(line, buffer, {best.size * (1.0 + eps), best.sections}),
              d0 * (1.0 - 1e-9));
    EXPECT_GE(total_delay(line, buffer, {best.size, best.sections * (1.0 + eps)}),
              d0 * (1.0 - 1e-9));
  }
}

TEST(NormalizedOptimum, ScaleInvariance) {
  // The factors must be identical for any physical instantiation with the
  // same T (the appendix's dimensional-analysis claim).
  const NormalizedOptimum norm = normalized_optimum(2.0);

  const tline::LineParams line{450.0, 2.0 * 450.0 * 15e-12, 45e-12};
  const MinBuffer buffer{3000.0, 5e-15, 1.0, 0.0};
  ASSERT_NEAR(t_lr(line, buffer), 2.0, 1e-9);
  const OptimizedDesign phys = optimize(line, buffer, kPaperFit, 0.0);
  const RepeaterDesign rc = bakoglu_rc(line, buffer);
  EXPECT_NEAR(phys.continuous.size / rc.size, norm.h_factor, 0.01);
  EXPECT_NEAR(phys.continuous.sections / rc.sections, norm.k_factor, 0.01);
}

TEST(Optimize, BeatsClosedFormSeeds) {
  const tline::LineParams line{450.0, 33.75e-9, 45e-12};
  const MinBuffer buffer{3000.0, 5e-15, 1.0, 0.0};
  const OptimizedDesign best = optimize(line, buffer);
  EXPECT_LE(best.continuous_delay,
            total_delay(line, buffer, ismail_friedman_rlc(line, buffer)) * 1.0001);
  EXPECT_LE(best.continuous_delay,
            total_delay(line, buffer, bakoglu_rc(line, buffer)) * 1.0001);
}

TEST(Optimize, PracticalDesignHasIntegerSections) {
  const tline::LineParams line{450.0, 33.75e-9, 45e-12};
  const MinBuffer buffer{3000.0, 5e-15, 1.0, 0.0};
  const OptimizedDesign best = optimize(line, buffer);
  EXPECT_DOUBLE_EQ(best.practical.sections,
                   std::round(best.practical.sections));
  EXPECT_GE(best.practical.sections, 1.0);
  // Rounding costs a little but not much (flat minimum).
  EXPECT_LT(best.practical_delay, best.continuous_delay * 1.05);
}

// A short, resistive, inductive line behind a weak buffer: the closed-form
// seed asks for well under one section, so the constrained optimum sits on
// the k_min = 1 boundary (the k range used to come out empty and throw).
TEST(Optimize, SeedBelowMinSectionsFindsTheBoundaryOptimum) {
  const tline::LineParams line{1000.0, 1e-6, 1e-12};
  const MinBuffer buffer{3000.0, 5e-15, 1.0, 0.0};
  ASSERT_LT(1.6 * ismail_friedman_rlc(line, buffer).sections, 1.0);
  const OptimizedDesign best = optimize(line, buffer, kPaperFit, 1.0);
  EXPECT_GE(best.continuous.sections, 1.0);
  EXPECT_TRUE(std::isfinite(best.continuous_delay));
  // No worse than the best single-section design.
  const auto at_one_section = numeric::brent_min(
      [&](double h) { return total_delay(line, buffer, {h, 1.0}); }, 1e-3,
      1e4, {.x_tolerance = 1e-12});
  EXPECT_LE(best.continuous_delay, at_one_section.value * (1.0 + 1e-9));
  EXPECT_GE(best.practical.sections, 1.0);
  EXPECT_LE(best.practical_delay, at_one_section.value * (1.0 + 1e-9));
}

TEST(RcSizingPenalty, NonnegativeAndGrowing) {
  EXPECT_DOUBLE_EQ(rc_sizing_penalty_percent(0.0), 0.0);
  double prev = -1e-9;
  for (double t : {1.0, 3.0, 6.0, 10.0}) {
    const double p = rc_sizing_penalty_percent(t);
    EXPECT_GE(p, -1e-6) << "T=" << t;
    EXPECT_GT(p, prev) << "T=" << t;
    prev = p;
  }
  // At T = 10 ignoring inductance costs double-digit percent extra delay.
  EXPECT_GT(rc_sizing_penalty_percent(10.0), 8.0);
  EXPECT_THROW(rc_sizing_penalty_percent(-1.0), std::invalid_argument);
}

TEST(ClosedFormExcess, SmallAtModestT) {
  // In the near-RC regime the published closed form is essentially optimal
  // under our objective too (the paper's < 0.05% claim holds there).
  EXPECT_LT(closed_form_excess_delay(0.3), 0.0005);
  EXPECT_LT(closed_form_excess_delay(1.0), 0.01);
  // At larger T our faithful objective and the paper's curves diverge (see
  // EXPERIMENTS.md); the excess grows but stays bounded.
  EXPECT_LT(closed_form_excess_delay(5.0), 0.25);
}

TEST(AreaBudget, UnconstrainedWhenBudgetIsGenerous) {
  const tline::LineParams line{450.0, 33.75e-9, 45e-12};
  const MinBuffer buffer{3000.0, 5e-15, 1.0e-12, 0.0};
  const OptimizedDesign free = optimize(line, buffer);
  const double generous =
      2.0 * repeater_area(buffer, free.continuous);
  const ConstrainedDesign c = optimize_with_area_budget(line, buffer, generous);
  EXPECT_FALSE(c.constraint_active);
  EXPECT_NEAR(c.delay, free.continuous_delay, free.continuous_delay * 1e-6);
}

TEST(AreaBudget, BindingConstraintSitsOnBoundary) {
  const tline::LineParams line{450.0, 33.75e-9, 45e-12};
  const MinBuffer buffer{3000.0, 5e-15, 1.0e-12, 0.0};
  const OptimizedDesign free = optimize(line, buffer);
  const double tight = 0.25 * repeater_area(buffer, free.continuous);
  const ConstrainedDesign c = optimize_with_area_budget(line, buffer, tight);
  EXPECT_TRUE(c.constraint_active);
  EXPECT_NEAR(repeater_area(buffer, c.design), tight, tight * 1e-6);
  EXPECT_GT(c.delay, free.continuous_delay);
}

TEST(AreaBudget, DelayMonotoneInBudget) {
  const tline::LineParams line{450.0, 33.75e-9, 45e-12};
  const MinBuffer buffer{3000.0, 5e-15, 1.0e-12, 0.0};
  const double base = repeater_area(buffer, optimize(line, buffer).continuous);
  double prev = 1e18;
  for (double fraction : {0.1, 0.2, 0.4, 0.8}) {
    const double d = optimize_with_area_budget(line, buffer, fraction * base).delay;
    EXPECT_LT(d, prev) << "fraction=" << fraction;
    prev = d;
  }
}

TEST(AreaBudget, Validation) {
  const tline::LineParams line{450.0, 33.75e-9, 45e-12};
  const MinBuffer buffer{3000.0, 5e-15, 1.0e-12, 0.0};
  EXPECT_THROW(optimize_with_area_budget(line, buffer, 0.0), std::invalid_argument);
  EXPECT_THROW(optimize_with_area_budget(line, buffer, 0.5 * buffer.area),
               std::invalid_argument);
}

TEST(DelayIncreaseEq16, LiteralDefinitionAnchorsDocumented) {
  // The literal eq. (16) with the paper's closed-form sizings, under our
  // reconstruction of the objective. We assert reproducible behavior, not
  // the paper's 10/20/30 anchors (see EXPERIMENTS.md for the analysis).
  const double at3 = delay_increase_percent(3.0);
  const double at5 = delay_increase_percent(5.0);
  EXPECT_LT(std::fabs(at3), 15.0);
  EXPECT_LT(std::fabs(at5), 25.0);
  EXPECT_DOUBLE_EQ(delay_increase_percent(0.0), 0.0);
}

}  // namespace
