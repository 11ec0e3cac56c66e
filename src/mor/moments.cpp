#include "mor/moments.h"

#include <stdexcept>
#include <utility>

#include "obs/obs.h"

namespace rlcsim::mor {

LinearSystem make_linear_system(const sim::MnaAssembler& mna,
                                const std::vector<std::string>& output_nodes) {
  LinearSystem system;

  std::vector<double> values;
  mna.conductance_values(values);
  system.G = numeric::RealSparse(mna.system_pattern(), values);
  mna.susceptance_values(values);
  system.C = numeric::RealSparse(mna.system_pattern(), std::move(values));

  const sim::Circuit& circuit = mna.circuit();
  const auto& vsources = circuit.voltage_sources();
  for (std::size_t k = 0; k < vsources.size(); ++k) {
    system.inputs.push_back(mna.vsource_vector(k));
    system.input_names.push_back(vsources[k].name.empty()
                                     ? "v" + std::to_string(k)
                                     : vsources[k].name);
  }
  const auto& isources = circuit.current_sources();
  for (std::size_t k = 0; k < isources.size(); ++k) {
    system.inputs.push_back(mna.isource_vector(k));
    system.input_names.push_back(isources[k].name.empty()
                                     ? "i" + std::to_string(k)
                                     : isources[k].name);
  }
  const auto& buffers = circuit.buffers();
  for (std::size_t k = 0; k < buffers.size(); ++k) {
    system.inputs.push_back(mna.buffer_vector(k));
    system.input_names.push_back(buffers[k].name.empty()
                                     ? "buf" + std::to_string(k)
                                     : buffers[k].name);
  }

  for (const std::string& name : output_nodes) {
    const auto node = circuit.find_node(name);
    if (!node)
      throw std::invalid_argument("make_linear_system: unknown output node '" +
                                  name + "'");
    system.outputs.push_back(mna.node_selector(*node));
    system.output_names.push_back(name);
  }
  return system;
}

MomentGenerator::MomentGenerator(const numeric::RealSparse& g,
                                 numeric::RealSparse c,
                                 numeric::SymbolicRecord* reuse)
    : c_(std::move(c)) {
  if (g.size() != c_.size())
    throw std::invalid_argument("MomentGenerator: G and C size mismatch");
  lu_.emplace(numeric::factor_reusing(g, reuse));
}

MomentGenerator::MomentGenerator(const LinearSystem& system,
                                 numeric::SymbolicRecord* reuse)
    : MomentGenerator(system.G, system.C, reuse) {}

std::vector<double> MomentGenerator::solve(const std::vector<double>& b) const {
  OBS_COUNTER_ADD("lu.solves", 1);
  return lu_->solve(b);
}

void MomentGenerator::advance(std::vector<double>& m) const {
  scratch_ = c_.multiply(m);
  OBS_COUNTER_ADD("lu.solves", 1);
  lu_->solve_in_place(scratch_);
  for (std::size_t i = 0; i < scratch_.size(); ++i) m[i] = -scratch_[i];
}

std::vector<std::vector<double>> MomentGenerator::block_moments(
    const std::vector<double>& b, int order) const {
  if (order < 1)
    throw std::invalid_argument("block_moments: order must be >= 1");
  std::vector<std::vector<double>> moments;
  moments.reserve(static_cast<std::size_t>(order));
  moments.push_back(solve(b));
  for (int k = 1; k < order; ++k) {
    moments.push_back(moments.back());
    advance(moments.back());
  }
  return moments;
}

std::vector<double> MomentGenerator::transfer_moments(
    const std::vector<double>& output, const std::vector<double>& input,
    int count) const {
  if (count < 1)
    throw std::invalid_argument("transfer_moments: count must be >= 1");
  if (output.size() != size() || input.size() != size())
    throw std::invalid_argument("transfer_moments: vector size mismatch");
  std::vector<double> moments;
  moments.reserve(static_cast<std::size_t>(count));
  std::vector<double> m = solve(input);
  for (int k = 0; k < count; ++k) {
    if (k > 0) advance(m);
    double dot = 0.0;
    for (std::size_t i = 0; i < m.size(); ++i) dot += output[i] * m[i];
    moments.push_back(dot);
  }
  return moments;
}

}  // namespace rlcsim::mor
