#include "mor/response.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "numeric/optimize.h"
#include "numeric/roots.h"
#include "sim/builders.h"

namespace rlcsim::mor {
namespace {

using Complex = std::complex<double>;

// Extremum refinement inside a bracketing interval via the shared 1-D
// minimizer (`sign` = +1 maximizes by minimizing -f). The objective is a
// smooth exponential sum, so Brent's parabolic steps converge fast.
double refine_extremum(const std::function<double(double)>& f, double lo,
                       double hi, int sign) {
  numeric::MinimizeOptions options;
  options.x_tolerance = 1e-14 * std::max(std::fabs(hi), 1e-300);
  return numeric::brent_min(
             [&](double x) { return sign > 0 ? -f(x) : f(x); }, lo, hi,
             options)
      .x;
}

}  // namespace

AnalyticResponse::AnalyticResponse(double dc_offset) : dc_offset_(dc_offset) {}

void AnalyticResponse::add_step(const PoleResidueModel& h, double delta,
                                double start) {
  add_ramp(h, delta, 0.0, start);
}

void AnalyticResponse::add_ramp(const PoleResidueModel& h, double delta,
                                double rise, double start) {
  if (rise < 0.0 || !std::isfinite(rise))
    throw std::invalid_argument("AnalyticResponse: rise must be >= 0");
  if (start < 0.0 || !std::isfinite(start))
    throw std::invalid_argument("AnalyticResponse: start must be >= 0");
  Contribution c;
  c.delta = delta;
  c.rise = rise;
  c.dc = h.dc_gain;
  // The onset composes with the model's transport delay: the response is
  // exactly 0 until start + delay, which is all contribution_value needs.
  c.delay = h.delay + start;
  c.terms.reserve(h.poles.size());
  for (std::size_t i = 0; i < h.poles.size(); ++i) {
    const Complex p = h.poles[i];
    const Complex coefficient =
        rise > 0.0 ? h.residues[i] / (p * p) : h.residues[i] / p;
    c.terms.emplace_back(p, coefficient);
    if (p.real() < 0.0)
      slowest_tau_ = std::max(slowest_tau_, 1.0 / -p.real());
    max_omega_ = std::max(max_omega_, std::fabs(p.imag()));
  }
  max_rise_ = std::max(max_rise_, rise);
  max_delay_ = std::max(max_delay_, c.delay);
  contributions_.push_back(std::move(c));
}

double AnalyticResponse::contribution_value(const Contribution& c,
                                            double t) const {
  const double ts = t - c.delay;  // response is exactly 0 before the delay
  if (ts <= 0.0) return 0.0;
  if (c.rise == 0.0) {
    Complex sum = 0.0;
    for (const auto& [p, a] : c.terms) sum += a * std::exp(p * ts);
    return c.delta * (c.dc + sum.real());
  }
  // Ramp: (z(ts) - z(ts - rise)) / rise with z the step-response integral.
  const auto z = [&](double tau) {
    if (tau <= 0.0) return 0.0;
    Complex sum = 0.0;
    for (const auto& [p, a] : c.terms) sum += a * (std::exp(p * tau) - 1.0);
    return c.dc * tau + sum.real();
  };
  return c.delta * (z(ts) - z(ts - c.rise)) / c.rise;
}

double AnalyticResponse::value(double t) const {
  double v = dc_offset_;
  for (const auto& c : contributions_) v += contribution_value(c, t);
  return v;
}

namespace {
// Block width of the batched coarse scans. Stack lanes only — the pole loop
// is hoisted OUTSIDE the lane loop, so each (pole, coefficient) pair is
// loaded once per block instead of once per sample.
constexpr std::size_t kScanBlock = 8;
}  // namespace

void AnalyticResponse::values(const double* times, double* out,
                              std::size_t count) const {
  for (std::size_t base = 0; base < count; base += kScanBlock) {
    const std::size_t w = std::min(kScanBlock, count - base);
    const double* t = times + base;
    double* o = out + base;
    for (std::size_t i = 0; i < w; ++i) o[i] = dc_offset_;
    std::array<double, kScanBlock> ts;
    std::array<Complex, kScanBlock> sum_a, sum_b;
    for (const auto& c : contributions_) {
      for (std::size_t i = 0; i < w; ++i) ts[i] = t[i] - c.delay;
      sum_a.fill(Complex(0.0));
      if (c.rise == 0.0) {
        for (const auto& [p, a] : c.terms)
          for (std::size_t i = 0; i < w; ++i)
            if (ts[i] > 0.0) sum_a[i] += a * std::exp(p * ts[i]);
        for (std::size_t i = 0; i < w; ++i)
          if (ts[i] > 0.0) o[i] += c.delta * (c.dc + sum_a[i].real());
        continue;
      }
      // Ramp lanes carry BOTH z integrals — z(ts) and z(ts - rise) — through
      // one pass over the terms, each behind its own exact-onset guard so a
      // lane straddling the onset accumulates precisely what the scalar z
      // lambda would (nothing before it, the same term order after).
      sum_b.fill(Complex(0.0));
      for (const auto& [p, a] : c.terms) {
        for (std::size_t i = 0; i < w; ++i) {
          if (ts[i] > 0.0) sum_a[i] += a * (std::exp(p * ts[i]) - 1.0);
          const double tau = ts[i] - c.rise;
          if (tau > 0.0) sum_b[i] += a * (std::exp(p * tau) - 1.0);
        }
      }
      for (std::size_t i = 0; i < w; ++i) {
        if (ts[i] <= 0.0) continue;
        const double z_on = c.dc * ts[i] + sum_a[i].real();
        const double tau = ts[i] - c.rise;
        const double z_off = tau <= 0.0 ? 0.0 : c.dc * tau + sum_b[i].real();
        o[i] += c.delta * (z_on - z_off) / c.rise;
      }
    }
  }
}

double AnalyticResponse::final_value() const {
  double v = dc_offset_;
  for (const auto& c : contributions_) v += c.delta * c.dc;
  return v;
}

double AnalyticResponse::slowest_time_constant() const { return slowest_tau_; }

double AnalyticResponse::suggested_horizon() const {
  const double tau = slowest_tau_ > 0.0 ? slowest_tau_ : 1e-12;
  return 12.0 * tau + 2.0 * max_rise_ + max_delay_;
}

std::optional<double> AnalyticResponse::first_crossing(double level,
                                                       int direction,
                                                       double t_from) const {
  double window = suggested_horizon();
  for (int attempt = 0; attempt < 4; ++attempt) {
    // Enough samples to bracket every half-oscillation in the window, with a
    // floor for smooth responses and a cap against pathological requests.
    // The floor only needs to BRACKET the crossing (Brent refines it), and a
    // smooth exponential sum's features span many samples at 512 across a
    // 12-tau window — this scan is the repeater-bus composition's hot path.
    std::size_t samples = 512;
    if (max_omega_ > 0.0) {
      const double oscillations = window * max_omega_ / (2.0 * 3.14159265358979323846);
      samples = std::clamp<std::size_t>(
          static_cast<std::size_t>(32.0 * oscillations), samples, 1u << 18);
    }
    double prev_t = t_from;
    double prev_v = value(prev_t);
    // Coarse scan in blocks: sample times are batch-evaluated (values() is
    // bit-identical to per-sample value() calls), then the bracket test
    // walks the block scalar — so the bracket found, and the Brent result
    // refined from it, match the sample-at-a-time scan exactly.
    std::array<double, 8> block_t, block_v;
    for (std::size_t i = 1; i <= samples; i += block_t.size()) {
      const std::size_t w = std::min(block_t.size(), samples - i + 1);
      for (std::size_t k = 0; k < w; ++k)
        block_t[k] = t_from + window * static_cast<double>(i + k) /
                                  static_cast<double>(samples);
      values(block_t.data(), block_v.data(), w);
      for (std::size_t k = 0; k < w; ++k) {
        const double t = block_t[k];
        const double v = block_v[k];
        const bool rising = prev_v < level && v >= level;
        const bool falling = prev_v > level && v <= level;
        if ((direction >= 0 && rising) || (direction <= 0 && falling)) {
          // Absolute x tolerance scaled to the time window: the default
          // 1e-12 is meant for O(1) roots and would stop 3 decades early on
          // nanosecond-scale crossings.
          numeric::RootOptions tolerance;
          tolerance.x_tolerance = 1e-14 * window;
          return numeric::brent([&](double x) { return value(x) - level; },
                                prev_t, t, tolerance);
        }
        prev_t = t;
        prev_v = v;
      }
    }
    window *= 4.0;
  }
  return std::nullopt;
}

ResponseMetrics AnalyticResponse::measure(double drive_lo, double drive_hi,
                                          bool want_rise) const {
  ResponseMetrics metrics;
  const double swing = drive_hi - drive_lo;
  const int direction = swing > 0.0 ? +1 : -1;
  if (swing != 0.0) {
    metrics.delay_50 = first_crossing(drive_lo + 0.5 * swing, direction);
    if (want_rise) {
      const auto t10 = first_crossing(drive_lo + 0.1 * swing, direction);
      if (t10) {
        const auto t90 =
            first_crossing(drive_lo + 0.9 * swing, direction, *t10);
        if (t90) metrics.rise_10_90 = *t90 - *t10;
      }
    }
  }

  // Global extrema: scan the settled window, refine the best brackets (the
  // floor mirrors first_crossing's: Brent sharpens whatever the coarse scan
  // brackets, and peaks of a smooth exponential sum span many samples).
  const double horizon = suggested_horizon();
  std::size_t samples = 1024;
  if (max_omega_ > 0.0) {
    const double oscillations =
        horizon * max_omega_ / (2.0 * 3.14159265358979323846);
    samples = std::clamp<std::size_t>(
        static_cast<std::size_t>(32.0 * oscillations), samples, 1u << 18);
  }
  double max_v = value(0.0), min_v = max_v;
  std::size_t max_i = 0, min_i = 0;
  std::array<double, 8> block_t, block_v;
  for (std::size_t i = 1; i <= samples; i += block_t.size()) {
    const std::size_t w = std::min(block_t.size(), samples - i + 1);
    for (std::size_t k = 0; k < w; ++k)
      block_t[k] = horizon * static_cast<double>(i + k) /
                   static_cast<double>(samples);
    values(block_t.data(), block_v.data(), w);
    for (std::size_t k = 0; k < w; ++k) {
      const double v = block_v[k];
      if (v > max_v) {
        max_v = v;
        max_i = i + k;
      }
      if (v < min_v) {
        min_v = v;
        min_i = i + k;
      }
    }
  }
  const auto refine = [&](std::size_t i, int sign, double coarse) {
    if (i == 0 || i == samples) return coarse;
    const double dt = horizon / static_cast<double>(samples);
    const double t = refine_extremum([&](double x) { return value(x); },
                                     static_cast<double>(i - 1) * dt,
                                     static_cast<double>(i + 1) * dt, sign);
    return sign > 0 ? std::max(coarse, value(t)) : std::min(coarse, value(t));
  };
  metrics.peak_value = refine(max_i, +1, max_v);
  metrics.min_value = refine(min_i, -1, min_v);

  const double envelope_lo = std::min(drive_lo, drive_hi);
  const double envelope_hi = std::max(drive_lo, drive_hi);
  metrics.peak_noise = std::max(
      {0.0, envelope_lo - metrics.min_value, metrics.peak_value - envelope_hi});
  if (swing != 0.0) {
    const double past_final = direction > 0 ? metrics.peak_value - drive_hi
                                            : drive_hi - metrics.min_value;
    metrics.overshoot = std::max(0.0, past_final / std::fabs(swing));
  }
  return metrics;
}

double reduced_gate_delay(const tline::GateLineLoad& system, int segments,
                          int order, double threshold,
                          numeric::SymbolicRecord* reuse) {
  const sim::Circuit circuit = sim::build_gate_line_load(system, segments);
  const sim::MnaAssembler mna(circuit);
  const LinearSystem linear = make_linear_system(mna, {"out"});
  const MomentGenerator generator(linear, reuse);
  const std::vector<double> moments = generator.transfer_moments(
      linear.outputs[0], linear.inputs[0], 2 * order);
  const PoleResidueModel model =
      reduce_transfer(moments, order, system.line.time_of_flight());

  AnalyticResponse response;
  response.add_step(model, 1.0);
  const auto crossing = response.first_crossing(threshold, +1);
  if (!crossing)
    throw std::runtime_error(
        "reduced_gate_delay: reduced response never crossed the threshold "
        "within the (auto-extended) window");
  return *crossing;
}

}  // namespace rlcsim::mor
