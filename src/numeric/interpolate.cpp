#include "numeric/interpolate.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rlcsim::numeric {
namespace {

void validate_grid(const std::vector<double>& xs, const std::vector<double>& ys) {
  if (xs.size() != ys.size()) throw std::invalid_argument("interp: size mismatch");
  if (xs.size() < 2) throw std::invalid_argument("interp: need at least 2 samples");
  for (std::size_t i = 1; i < xs.size(); ++i)
    if (!(xs[i] > xs[i - 1]))
      throw std::invalid_argument("interp: x grid must be strictly increasing");
}

// Index of the interval [xs[i], xs[i+1]] containing x (clamped).
std::size_t interval_index(const std::vector<double>& xs, double x) {
  if (x <= xs.front()) return 0;
  if (x >= xs.back()) return xs.size() - 2;
  const auto it = std::upper_bound(xs.begin(), xs.end(), x);
  return static_cast<std::size_t>(it - xs.begin()) - 1;
}

}  // namespace

double interp_linear(const std::vector<double>& xs, const std::vector<double>& ys,
                     double x) {
  validate_grid(xs, ys);
  if (x <= xs.front()) return ys.front();
  if (x >= xs.back()) return ys.back();
  const std::size_t i = interval_index(xs, x);
  const double t = (x - xs[i]) / (xs[i + 1] - xs[i]);
  return ys[i] + t * (ys[i + 1] - ys[i]);
}

MonotoneCubic::MonotoneCubic(std::vector<double> xs, std::vector<double> ys)
    : xs_(std::move(xs)), ys_(std::move(ys)) {
  validate_grid(xs_, ys_);
  const std::size_t n = xs_.size();
  std::vector<double> secants(n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i)
    secants[i] = (ys_[i + 1] - ys_[i]) / (xs_[i + 1] - xs_[i]);

  slopes_.resize(n);
  slopes_.front() = secants.front();
  slopes_.back() = secants.back();
  for (std::size_t i = 1; i + 1 < n; ++i) {
    if (secants[i - 1] * secants[i] <= 0.0)
      slopes_[i] = 0.0;  // local extremum: flat tangent preserves monotonicity
    else
      slopes_[i] = 0.5 * (secants[i - 1] + secants[i]);
  }
  // Fritsch–Carlson limiter.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (secants[i] == 0.0) {
      slopes_[i] = slopes_[i + 1] = 0.0;
      continue;
    }
    const double a = slopes_[i] / secants[i];
    const double b = slopes_[i + 1] / secants[i];
    const double norm = a * a + b * b;
    if (norm > 9.0) {
      const double tau = 3.0 / std::sqrt(norm);
      slopes_[i] = tau * a * secants[i];
      slopes_[i + 1] = tau * b * secants[i];
    }
  }
}

double MonotoneCubic::operator()(double x) const {
  if (x <= xs_.front()) return ys_.front();
  if (x >= xs_.back()) return ys_.back();
  const std::size_t i = interval_index(xs_, x);
  const double h = xs_[i + 1] - xs_[i];
  const double t = (x - xs_[i]) / h;
  const double t2 = t * t;
  const double t3 = t2 * t;
  const double h00 = 2.0 * t3 - 3.0 * t2 + 1.0;
  const double h10 = t3 - 2.0 * t2 + t;
  const double h01 = -2.0 * t3 + 3.0 * t2;
  const double h11 = t3 - t2;
  return h00 * ys_[i] + h10 * h * slopes_[i] + h01 * ys_[i + 1] +
         h11 * h * slopes_[i + 1];
}

std::optional<double> find_crossing(const std::vector<double>& xs,
                                    const std::vector<double>& ys, double level,
                                    double x_from, int direction) {
  validate_grid(xs, ys);
  for (std::size_t i = 0; i + 1 < xs.size(); ++i)
    if (const auto x = interval_crossing(xs[i], xs[i + 1], ys[i], ys[i + 1],
                                         level, x_from, direction))
      return x;
  return std::nullopt;
}

std::optional<double> interval_crossing(double x0, double x1, double y0,
                                        double y1, double level,
                                        double x_from, int direction) {
  if (x1 < x_from) return std::nullopt;
  const double d0 = y0 - level;
  const double d1 = y1 - level;
  const bool rising = d0 < 0.0 && d1 >= 0.0;
  const bool falling = d0 > 0.0 && d1 <= 0.0;
  if ((direction >= 0 && rising) || (direction <= 0 && falling)) {
    const double t = (d1 == d0) ? 0.0 : -d0 / (d1 - d0);
    const double x = x0 + t * (x1 - x0);
    if (x >= x_from) return x;
  }
  return std::nullopt;
}

}  // namespace rlcsim::numeric
