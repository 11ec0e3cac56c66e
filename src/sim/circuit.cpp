#include "sim/circuit.h"

#include <cctype>
#include <cmath>
#include <stdexcept>
#include <string>

namespace rlcsim::sim {
namespace {

bool is_ground_name(const std::string& name) {
  const auto lower = [&](std::size_t i) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(name[i])));
  };
  return name == "0" ||
         (name.size() == 3 && lower(0) == 'g' && lower(1) == 'n' && lower(2) == 'd');
}

double pwl_value(const PwlSpec& spec, double t) {
  if (spec.points.empty()) return 0.0;
  if (t <= spec.points.front().first) return spec.points.front().second;
  if (t >= spec.points.back().first) return spec.points.back().second;
  for (std::size_t i = 1; i < spec.points.size(); ++i) {
    if (t <= spec.points[i].first) {
      const auto& [t0, v0] = spec.points[i - 1];
      const auto& [t1, v1] = spec.points[i];
      const double frac = (t - t0) / (t1 - t0);
      return v0 + frac * (v1 - v0);
    }
  }
  return spec.points.back().second;
}

double pulse_value(const PulseSpec& p, double t) {
  // As with StepSpec, edges are strict so the t = 0 operating point sees v0.
  if (t <= p.delay) return p.v0;
  double local = t - p.delay;
  if (p.period > 0.0) local = std::fmod(local, p.period);
  if (p.rise > 0.0 && local <= p.rise)
    return p.v0 + (p.v1 - p.v0) * local / p.rise;
  local -= p.rise;
  if (local < p.width) return p.v1;
  local -= p.width;
  if (local < p.fall) return p.v1 + (p.v0 - p.v1) * local / p.fall;
  return p.v0;
}

}  // namespace

double source_value(const SourceSpec& spec, double t) {
  return std::visit(
      [t](const auto& s) -> double {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, DcSpec>) {
          return s.value;
        } else if constexpr (std::is_same_v<T, StepSpec>) {
          // The value AT the switching instant is the pre-switch value, so a
          // step with delay = 0 still yields a v0 DC operating point at t = 0.
          if (s.rise <= 0.0) return t > s.delay ? s.v1 : s.v0;
          if (t <= s.delay) return s.v0;
          if (t >= s.delay + s.rise) return s.v1;
          return s.v0 + (s.v1 - s.v0) * (t - s.delay) / s.rise;
        } else if constexpr (std::is_same_v<T, PwlSpec>) {
          return pwl_value(s, t);
        } else {
          return pulse_value(s, t);
        }
      },
      spec);
}

NodeId Circuit::node(const std::string& name) {
  if (is_ground_name(name)) return kGround;
  const auto [it, added] =
      node_ids_.try_emplace(name, static_cast<NodeId>(node_names_.size()));
  if (added) node_names_.push_back(name);
  return it->second;
}

std::optional<NodeId> Circuit::find_node(const std::string& name) const {
  if (is_ground_name(name)) return kGround;
  const auto it = node_ids_.find(name);
  if (it == node_ids_.end()) return std::nullopt;
  return it->second;
}

const std::string& Circuit::node_name(NodeId id) const {
  static const std::string ground = "0";
  if (id == kGround) return ground;
  if (id < 0 || static_cast<std::size_t>(id) >= node_names_.size())
    throw std::out_of_range("Circuit::node_name: bad node id");
  return node_names_[static_cast<std::size_t>(id)];
}

void Circuit::add_resistor(const std::string& n1, const std::string& n2, double r,
                           std::string name) {
  if (!(r > 0.0) || !std::isfinite(r))
    throw std::invalid_argument("resistor '" + name + "': resistance must be > 0");
  resistors_.push_back({node(n1), node(n2), r, std::move(name)});
}

void Circuit::add_capacitor(const std::string& n1, const std::string& n2, double c,
                            double initial_voltage, std::string name) {
  if (!(c > 0.0) || !std::isfinite(c))
    throw std::invalid_argument("capacitor '" + name + "': capacitance must be > 0");
  capacitors_.push_back({node(n1), node(n2), c, initial_voltage, std::move(name)});
}

void Circuit::add_structural_capacitor(const std::string& n1, const std::string& n2,
                                       double c, double initial_voltage,
                                       std::string name) {
  if (!(c >= 0.0) || !std::isfinite(c))
    throw std::invalid_argument("capacitor '" + name + "': capacitance must be >= 0");
  capacitors_.push_back({node(n1), node(n2), c, initial_voltage, std::move(name)});
}

void Circuit::add_inductor(const std::string& n1, const std::string& n2, double l,
                           double initial_current, std::string name) {
  if (!(l > 0.0) || !std::isfinite(l))
    throw std::invalid_argument("inductor '" + name + "': inductance must be > 0");
  inductors_.push_back({node(n1), node(n2), l, initial_current, std::move(name)});
}

void Circuit::add_voltage_source(const std::string& positive,
                                 const std::string& negative, SourceSpec spec,
                                 std::string name) {
  const NodeId p = node(positive);
  const NodeId n = node(negative);
  if (p == n)
    throw std::invalid_argument("voltage source '" + name + "': both terminals on one node");
  vsources_.push_back({p, n, std::move(spec), std::move(name)});
}

void Circuit::add_current_source(const std::string& from, const std::string& to,
                                 SourceSpec spec, std::string name) {
  isources_.push_back({node(from), node(to), std::move(spec), std::move(name)});
}

void Circuit::set_voltage_source_spec(std::size_t index, SourceSpec spec) {
  if (index >= vsources_.size())
    throw std::out_of_range("set_voltage_source_spec: no voltage source at index " +
                            std::to_string(index));
  vsources_[index].spec = std::move(spec);
}

void Circuit::add_buffer(const std::string& input, const std::string& output,
                         double output_resistance, double input_capacitance,
                         double vdd, double threshold, std::string name) {
  add_switching_buffer(input, output, output_resistance, input_capacitance,
                       /*input_direction=*/+1, /*output_v0=*/0.0,
                       /*output_v1=*/vdd, /*output_rise=*/0.0, vdd, threshold,
                       std::move(name));
}

void Circuit::add_switching_buffer(const std::string& input, const std::string& output,
                                   double output_resistance, double input_capacitance,
                                   int input_direction, double output_v0,
                                   double output_v1, double output_rise, double vdd,
                                   double threshold, std::string name) {
  if (!(output_resistance > 0.0))
    throw std::invalid_argument("buffer '" + name + "': output resistance must be > 0");
  if (input_capacitance < 0.0)
    throw std::invalid_argument("buffer '" + name + "': input capacitance must be >= 0");
  if (!(threshold > 0.0 && threshold < 1.0))
    throw std::invalid_argument("buffer '" + name + "': threshold must be in (0,1)");
  if (input_direction != +1 && input_direction != -1)
    throw std::invalid_argument("buffer '" + name + "': input direction must be +1 or -1");
  if (!std::isfinite(output_v0) || !std::isfinite(output_v1))
    throw std::invalid_argument("buffer '" + name + "': output levels must be finite");
  if (!(output_rise >= 0.0) || !std::isfinite(output_rise))
    throw std::invalid_argument("buffer '" + name + "': output rise must be >= 0");
  buffers_.push_back({node(input), node(output), output_resistance, input_capacitance,
                      vdd, threshold, std::move(name), input_direction, output_v0,
                      output_v1, output_rise});
}

void Circuit::add_mutual(const std::string& inductor_a, const std::string& inductor_b,
                         double k, std::string name) {
  if (!(k >= 0.0 && k < 1.0))
    throw std::invalid_argument("mutual '" + name + "': k must be in [0, 1)");
  const auto find_inductor = [&](const std::string& wanted) -> std::size_t {
    for (std::size_t i = 0; i < inductors_.size(); ++i)
      if (inductors_[i].name == wanted) return i;
    throw std::invalid_argument("mutual '" + name + "': unknown inductor '" +
                                wanted + "'");
  };
  const std::size_t a = find_inductor(inductor_a);
  const std::size_t b = find_inductor(inductor_b);
  if (a == b)
    throw std::invalid_argument("mutual '" + name + "': cannot couple an inductor to itself");
  const double m =
      k * std::sqrt(inductors_[a].inductance * inductors_[b].inductance);
  mutuals_.push_back({a, b, k, m, std::move(name)});
}

void Circuit::validate() const {
  const std::size_t element_count = resistors_.size() + capacitors_.size() +
                                    inductors_.size() + vsources_.size() +
                                    isources_.size() + buffers_.size();
  if (element_count == 0) throw std::invalid_argument("Circuit: empty circuit");
  if (node_names_.empty())
    throw std::invalid_argument("Circuit: no non-ground nodes");

  const std::size_t n = node_names_.size();

  // A loop of voltage sources fixes its loop voltage twice and makes the
  // MNA matrix singular: union-find over the source terminals (ground is
  // slot n) names the first source whose terminals are already joined.
  std::vector<std::size_t> parent(n + 1);
  for (std::size_t i = 0; i <= n; ++i) parent[i] = i;
  const auto root = [&](NodeId node) {
    std::size_t i = node == kGround ? n : static_cast<std::size_t>(node);
    while (parent[i] != i) i = parent[i] = parent[parent[i]];
    return i;
  };
  for (std::size_t k = 0; k < vsources_.size(); ++k) {
    const VoltageSource& v = vsources_[k];
    const std::size_t a = root(v.positive);
    const std::size_t b = root(v.negative);
    if (a == b) {
      const std::string label = v.name.empty() ? std::to_string(k) : v.name;
      throw std::invalid_argument("Circuit: voltage source '" + label +
                                  "' closes a loop of voltage sources (e.g. "
                                  "two in parallel)");
    }
    parent[a] = b;
  }

  // Every node needs a DC path to ground for the MNA matrix to be
  // non-singular: join the terminals of every R, L and V-source edge (and
  // each buffer output, a source behind a resistor to ground) and require
  // each node to share ground's set (the union-find above, reset).
  for (std::size_t i = 0; i <= n; ++i) parent[i] = i;
  const auto join = [&](NodeId a, NodeId b) { parent[root(a)] = root(b); };
  for (const auto& r : resistors_) join(r.n1, r.n2);
  for (const auto& l : inductors_) join(l.n1, l.n2);
  for (const auto& v : vsources_) join(v.positive, v.negative);
  for (const auto& b : buffers_) join(b.output, kGround);
  const std::size_t ground = root(kGround);
  for (std::size_t i = 0; i < n; ++i) {
    if (root(static_cast<NodeId>(i)) != ground)
      throw std::invalid_argument("Circuit: node '" + node_names_[i] +
                                  "' has no DC path to ground");
  }
}

}  // namespace rlcsim::sim
