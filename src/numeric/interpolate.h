// Interpolation over sampled data and threshold-crossing location.
//
// The waveform layer measures 50% delays by locating threshold crossings in
// sampled transient data; sub-sample accuracy comes from the interpolants
// here rather than from brute-force tiny time steps.
#pragma once

#include <optional>
#include <vector>

namespace rlcsim::numeric {

// Piecewise-linear interpolation of (xs, ys) at x. xs must be strictly
// increasing. Values outside the range clamp to the end samples.
double interp_linear(const std::vector<double>& xs, const std::vector<double>& ys,
                     double x);

// Monotone cubic (Fritsch–Carlson) interpolant. Shape-preserving: never
// overshoots the data, which matters when refining crossings of waveforms
// that genuinely ring — the ringing is in the samples, not the interpolant.
class MonotoneCubic {
 public:
  MonotoneCubic(std::vector<double> xs, std::vector<double> ys);
  double operator()(double x) const;

 private:
  std::vector<double> xs_, ys_, slopes_;
};

// First x >= x_from where the piecewise-linear interpolant of (xs, ys)
// crosses `level` in the given direction (+1 rising, -1 falling, 0 either).
// Returns std::nullopt when no crossing exists.
std::optional<double> find_crossing(const std::vector<double>& xs,
                                    const std::vector<double>& ys, double level,
                                    double x_from = 0.0, int direction = 0);

// find_crossing's test and interpolation on ONE sample interval
// [(x0, y0), (x1, y1)]. find_crossing is this applied to each interval in
// order, so a transient stepper that checks every new interval as it is
// produced stops at exactly the interval, and value, a full-record search
// would return.
std::optional<double> interval_crossing(double x0, double x1, double y0,
                                        double y1, double level,
                                        double x_from = 0.0, int direction = 0);

}  // namespace rlcsim::numeric
