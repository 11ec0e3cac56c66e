#include "core/repeater_numeric.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "numeric/optimize.h"

namespace rlcsim::core {
namespace {

// The domain of a design: h > 0 and k > 0, with k_min itself a feasible
// section count (the constrained optimum of a line whose unconstrained k
// falls below k_min sits exactly there).
bool feasible(double h, double k, double k_min) {
  return h > 1e-6 && k > 1e-6 && k >= k_min;
}

// Objective with domain guard: +inf outside the feasible domain.
double guarded_delay(const tline::LineParams& line, const MinBuffer& buffer, double h,
                     double k, double k_min, const DelayFitConstants& fit) {
  if (!feasible(h, k, k_min)) return std::numeric_limits<double>::infinity();
  return total_delay(line, buffer, {h, k}, fit);
}

// Batched version of numeric::grid_refine_2d: each refinement level builds
// the full candidate lattice, hands it to `batch` in one call (the sweep
// engine evaluates it across its thread pool), then re-centers a shrunken
// box on the incumbent. Matches grid_refine_2d's contract — robust global
// scan, ~(range * (4/grid)^levels) final resolution — but exposes the grid
// as data instead of a point-at-a-time callback.
numeric::MinimumND batched_grid_refine(
    const tline::LineParams& line, const MinBuffer& buffer,
    const DelayFitConstants& fit, const DesignBatchFn& batch, double k_min,
    double x_lo, double x_hi, double y_lo, double y_hi, int grid_points,
    int refinements) {
  std::vector<RepeaterDesign> candidates;
  std::vector<double> delays;
  numeric::MinimumND best;
  best.value = std::numeric_limits<double>::infinity();
  best.x = {0.5 * (x_lo + x_hi), 0.5 * (y_lo + y_hi)};

  for (int level = 0; level < refinements; ++level) {
    candidates.clear();
    const int n = grid_points;
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        candidates.push_back({x_lo + (x_hi - x_lo) * i / (n - 1),
                              y_lo + (y_hi - y_lo) * j / (n - 1)});
    batch(line, buffer, fit, candidates, delays);

    std::size_t arg = 0;
    double val = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      double d = delays[c];
      // Re-apply the domain guard the serial objective enforces.
      if (!feasible(candidates[c].size, candidates[c].sections, k_min))
        d = std::numeric_limits<double>::infinity();
      if (d < val) {
        val = d;
        arg = c;
      }
    }
    if (val < best.value) {
      best.value = val;
      best.x = {candidates[arg].size, candidates[arg].sections};
    }
    // Shrink to +/- 2 cells around the incumbent, clamped to the level's box.
    const double cx = best.x[0], cy = best.x[1];
    const double wx = 2.0 * (x_hi - x_lo) / (n - 1), wy = 2.0 * (y_hi - y_lo) / (n - 1);
    x_lo = std::max(x_lo, cx - wx);
    x_hi = std::min(x_hi, cx + wx);
    y_lo = std::max(y_lo, cy - wy);
    y_hi = std::min(y_hi, cy + wy);
    ++best.iterations;
  }
  best.converged = true;
  return best;
}

// Shared 2-D minimization: grid refinement for a robust global pass, then
// Nelder–Mead to polish. With a batch hook, the grid pass evaluates whole
// candidate lattices through it (parallel under the sweep engine); without
// one, the original serial grid_refine_2d path runs unchanged.
RepeaterDesign minimize_design(const tline::LineParams& line, const MinBuffer& buffer,
                               const RepeaterDesign& seed, double k_min,
                               const DelayFitConstants& fit,
                               const DesignBatchFn& batch = {}) {
  const auto objective = [&](double h, double k) {
    return guarded_delay(line, buffer, h, k, k_min, fit);
  };

  // Inductance only ever shrinks the optimum relative to the RC solution
  // (h', k' <= 1), but search a generous box around the seed anyway. A
  // seed below k_min (a short, resistive line behind a weak buffer) would
  // leave the k range empty; the range then opens upward from k_min.
  const double k_lo = std::max(k_min, 0.02 * seed.sections);
  const double k_hi = std::max(1.6 * seed.sections, 1.6 * k_lo);
  const auto coarse =
      batch ? batched_grid_refine(line, buffer, fit, batch, k_min, 0.02 * seed.size,
                                  1.6 * seed.size, k_lo, k_hi,
                                  /*grid_points=*/28, /*refinements=*/10)
            : numeric::grid_refine_2d(objective, 0.02 * seed.size, 1.6 * seed.size,
                                      k_lo, k_hi,
                                      /*grid_points=*/28, /*refinements=*/10);

  const auto polished = numeric::nelder_mead(
      [&](const std::vector<double>& x) { return objective(x[0], x[1]); },
      coarse.x, {0.01 * seed.size, 0.01 * seed.sections},
      {.x_tolerance = 1e-10, .max_iterations = 800});

  const auto& best = polished.value <= coarse.value ? polished.x : coarse.x;
  return {best[0], best[1]};
}

}  // namespace

NormalizedOptimum normalized_optimum(double t_lr_value, const DelayFitConstants& fit,
                                     const DesignBatchFn& batch) {
  if (!(t_lr_value > 0.0))
    throw std::invalid_argument("normalized_optimum: T must be > 0 (T = 0 is the RC limit)");

  // Normalized instantiation: Rt = Ct = 1, r0 = c0 = 1 -> T_{L/R} = Lt.
  const tline::LineParams line{1.0, t_lr_value, 1.0};
  const MinBuffer buffer{1.0, 1.0, 1.0, 0.0};
  const RepeaterDesign rc = bakoglu_rc(line, buffer);

  const RepeaterDesign best = minimize_design(line, buffer, rc, 0.0, fit, batch);
  NormalizedOptimum out;
  out.h_factor = best.size / rc.size;
  out.k_factor = best.sections / rc.sections;
  out.delay = total_delay(line, buffer, best, fit);
  return out;
}

OptimizedDesign optimize(const tline::LineParams& line, const MinBuffer& buffer,
                         const DelayFitConstants& fit, double min_sections,
                         const DesignBatchFn& batch) {
  tline::validate(line);
  validate(buffer);

  // Seed from the closed form (already within a fraction of a percent).
  const RepeaterDesign seed = ismail_friedman_rlc(line, buffer);
  const RepeaterDesign best =
      minimize_design(line, buffer, seed, std::max(0.0, min_sections), fit, batch);

  OptimizedDesign out;
  out.continuous = best;
  out.continuous_delay = total_delay(line, buffer, best, fit);

  // Practical design: integer k >= 1, h re-optimized for that k.
  RepeaterDesign rounded = rounded_sections(line, buffer, best, fit);
  rounded.sections = std::max(1.0, rounded.sections);
  const auto h_opt = numeric::brent_min(
      [&](double h) {
        return guarded_delay(line, buffer, h, rounded.sections, 0.0, fit);
      },
      0.02 * best.size, 4.0 * best.size, {.x_tolerance = 1e-10});
  out.practical = {h_opt.x, rounded.sections};
  out.practical_delay = total_delay(line, buffer, out.practical, fit);
  return out;
}

double rc_sizing_penalty_percent(double t_lr_value, const DelayFitConstants& fit) {
  if (t_lr_value < 0.0)
    throw std::invalid_argument("rc_sizing_penalty_percent: T must be >= 0");
  if (t_lr_value == 0.0) return 0.0;
  const tline::LineParams line{1.0, t_lr_value, 1.0};
  const MinBuffer buffer{1.0, 1.0, 1.0, 0.0};
  const double t_rc = total_delay(line, buffer, bakoglu_rc(line, buffer), fit);
  const double t_opt = normalized_optimum(t_lr_value, fit).delay;
  return 100.0 * (t_rc - t_opt) / t_opt;
}

ConstrainedDesign optimize_with_area_budget(const tline::LineParams& line,
                                            const MinBuffer& buffer, double max_area,
                                            const DelayFitConstants& fit) {
  validate(buffer);
  tline::validate(line);
  if (!(max_area > 0.0))
    throw std::invalid_argument("optimize_with_area_budget: budget must be > 0");
  if (max_area < buffer.area)
    throw std::invalid_argument(
        "optimize_with_area_budget: budget below one minimum-size repeater");

  const OptimizedDesign unconstrained = optimize(line, buffer, fit, 0.0);
  ConstrainedDesign out;
  if (repeater_area(buffer, unconstrained.continuous) <= max_area) {
    out.design = unconstrained.continuous;
    out.delay = unconstrained.continuous_delay;
    out.constraint_active = false;
    return out;
  }

  // Active constraint: h(k) = budget / (k A_min); minimize over k alone.
  const double budget_hk = max_area / buffer.area;  // h * k at the boundary
  const auto boundary_delay = [&](double k) {
    const double h = budget_hk / k;
    if (!(h > 1e-6) || !(k > 1e-6)) return std::numeric_limits<double>::infinity();
    return total_delay(line, buffer, {h, k}, fit);
  };
  // k can range from "all budget in one huge repeater" (k ~ 1) up to
  // "budget spread over many minimum-size repeaters" (k ~ budget_hk).
  const auto best = numeric::brent_min(boundary_delay, 0.5, budget_hk,
                                       {.x_tolerance = 1e-9});
  out.design = {budget_hk / best.x, best.x};
  out.delay = best.value;
  out.constraint_active = true;
  return out;
}

double closed_form_excess_delay(double t_lr_value, const DelayFitConstants& fit) {
  const tline::LineParams line{1.0, t_lr_value, 1.0};
  const MinBuffer buffer{1.0, 1.0, 1.0, 0.0};
  const double numeric_best = normalized_optimum(t_lr_value, fit).delay;
  const double closed_form =
      total_delay(line, buffer, ismail_friedman_rlc(line, buffer), fit);
  return (closed_form - numeric_best) / numeric_best;
}

}  // namespace rlcsim::core
