#include "sim/mna.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "numeric/sparse_batch.h"

namespace rlcsim::sim {
namespace {

// Adds current `i` flowing INTO node a and OUT of node b.
void stamp_current(std::vector<double>& rhs, NodeId a, NodeId b, double i) {
  if (a != kGround) rhs[static_cast<std::size_t>(a)] += i;
  if (b != kGround) rhs[static_cast<std::size_t>(b)] -= i;
}

// Adds `g` between nodes a and b into a triplet set.
void stamp_conductance(std::vector<numeric::Triplet<double>>& t, NodeId a, NodeId b,
                       double g) {
  if (a != kGround) {
    t.push_back({a, a, g});
    if (b != kGround) {
      t.push_back({a, b, -g});
      t.push_back({b, a, -g});
    }
  }
  if (b != kGround) t.push_back({b, b, g});
}

// Symmetric +/-1 incidence between a node pair and a branch row/column.
void stamp_branch_incidence(std::vector<numeric::Triplet<double>>& t, NodeId n1,
                            NodeId n2, int branch) {
  if (n1 != kGround) {
    t.push_back({n1, branch, 1.0});
    t.push_back({branch, n1, 1.0});
  }
  if (n2 != kGround) {
    t.push_back({n2, branch, -1.0});
    t.push_back({branch, n2, -1.0});
  }
}

}  // namespace

bool use_sparse_solver(SolverKind solver, std::size_t unknowns) {
  switch (solver) {
    case SolverKind::kDense:
      return false;
    case SolverKind::kSparse:
      return true;
    case SolverKind::kAuto:
      break;
  }
  return unknowns >= kSparseSolverThreshold;
}

MnaAssembler::MnaAssembler(const Circuit& circuit) : circuit_(circuit) {
  stamp_triplets();
  build_system_pattern();
}

MnaAssembler::MnaAssembler(const Circuit& circuit, const MnaAssembler& like)
    : circuit_(circuit) {
  const auto same_entries = [](const std::vector<numeric::Triplet<double>>& a,
                               const std::vector<numeric::Triplet<double>>& b) {
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(), [](const auto& x, const auto& y) {
             return x.row == y.row && x.col == y.col;
           });
  };
  stamp_triplets();
  if (n_unknowns_ == like.n_unknowns_ && same_entries(g_triplets_, like.g_triplets_) &&
      same_entries(c_triplets_, like.c_triplets_)) {
    pattern_ = like.pattern_;
    g_slots_ = like.g_slots_;
    c_slots_ = like.c_slots_;
  } else {
    build_system_pattern();
  }
}

std::size_t MnaAssembler::vsource_branch(std::size_t vsource_index) const {
  return vsource_base_ + vsource_index;
}

std::size_t MnaAssembler::inductor_branch(std::size_t inductor_index) const {
  return inductor_base_ + inductor_index;
}

void MnaAssembler::stamp_triplets() {
  circuit_.validate();
  n_nodes_ = circuit_.node_count();
  vsource_base_ = n_nodes_;
  inductor_base_ = vsource_base_ + circuit_.voltage_sources().size();
  n_unknowns_ = inductor_base_ + circuit_.inductors().size();

  // ---- G: conductances and incidence (timestep/frequency independent) ----
  for (const auto& r : circuit_.resistors())
    stamp_conductance(g_triplets_, r.n1, r.n2, 1.0 / r.resistance);

  const auto& vsources = circuit_.voltage_sources();
  for (std::size_t k = 0; k < vsources.size(); ++k)
    stamp_branch_incidence(g_triplets_, vsources[k].positive, vsources[k].negative,
                           static_cast<int>(vsource_branch(k)));

  const auto& inductors = circuit_.inductors();
  for (std::size_t k = 0; k < inductors.size(); ++k)
    stamp_branch_incidence(g_triplets_, inductors[k].n1, inductors[k].n2,
                           static_cast<int>(inductor_branch(k)));

  for (const auto& b : circuit_.buffers())
    stamp_conductance(g_triplets_, b.output, kGround, 1.0 / b.output_resistance);

  // ---- C: capacitances and -L/-M branch terms; the assembled system is
  // G + scale*C with scale = factor/dt (transient companion) or s (AC) ----
  for (const auto& c : circuit_.capacitors())
    stamp_conductance(c_triplets_, c.n1, c.n2, c.capacitance);

  for (const auto& b : circuit_.buffers())
    if (b.input_capacitance > 0.0)
      stamp_conductance(c_triplets_, b.input, kGround, b.input_capacitance);

  for (std::size_t k = 0; k < inductors.size(); ++k) {
    const int j = static_cast<int>(inductor_branch(k));
    c_triplets_.push_back({j, j, -inductors[k].inductance});
  }
  for (const auto& mutual : circuit_.mutuals()) {
    const int ja = static_cast<int>(inductor_branch(mutual.inductor_a));
    const int jb = static_cast<int>(inductor_branch(mutual.inductor_b));
    c_triplets_.push_back({ja, jb, -mutual.mutual});
    c_triplets_.push_back({jb, ja, -mutual.mutual});
  }
}

void MnaAssembler::build_system_pattern() {
  // ---- merged pattern + value slots --------------------------------------
  std::vector<std::pair<int, int>> positions;
  positions.reserve(g_triplets_.size() + c_triplets_.size());
  for (const auto& t : g_triplets_) positions.emplace_back(t.row, t.col);
  for (const auto& t : c_triplets_) positions.emplace_back(t.row, t.col);
  std::vector<int> slots;
  pattern_ = numeric::build_pattern(static_cast<int>(n_unknowns_), positions, &slots);
  g_slots_.assign(slots.begin(), slots.begin() + static_cast<std::ptrdiff_t>(g_triplets_.size()));
  c_slots_.assign(slots.begin() + static_cast<std::ptrdiff_t>(g_triplets_.size()), slots.end());
}

void MnaAssembler::system_values(double scale, std::vector<double>& out) const {
  out.assign(static_cast<std::size_t>(pattern_->nnz()), 0.0);
  for (std::size_t k = 0; k < g_triplets_.size(); ++k)
    out[static_cast<std::size_t>(g_slots_[k])] += g_triplets_[k].value;
  for (std::size_t k = 0; k < c_triplets_.size(); ++k)
    out[static_cast<std::size_t>(c_slots_[k])] += scale * c_triplets_[k].value;
}

void MnaAssembler::system_values(std::complex<double> scale,
                                 std::vector<std::complex<double>>& out) const {
  out.assign(static_cast<std::size_t>(pattern_->nnz()), std::complex<double>{});
  for (std::size_t k = 0; k < g_triplets_.size(); ++k)
    out[static_cast<std::size_t>(g_slots_[k])] += g_triplets_[k].value;
  for (std::size_t k = 0; k < c_triplets_.size(); ++k)
    out[static_cast<std::size_t>(c_slots_[k])] += scale * c_triplets_[k].value;
}

void MnaAssembler::stamp_values_into(double scale, numeric::BatchedValues& out,
                                     std::size_t lane) const {
  if (out.slots() != static_cast<std::size_t>(pattern_->nnz()))
    throw std::invalid_argument(
        "MnaAssembler::stamp_values_into: slot count does not match the "
        "system pattern");
  out.clear_lane(lane);
  for (std::size_t k = 0; k < g_triplets_.size(); ++k)
    out.at(static_cast<std::size_t>(g_slots_[k]), lane) += g_triplets_[k].value;
  for (std::size_t k = 0; k < c_triplets_.size(); ++k)
    out.at(static_cast<std::size_t>(c_slots_[k]), lane) +=
        scale * c_triplets_[k].value;
}

void MnaAssembler::conductance_values(std::vector<double>& out) const {
  out.assign(static_cast<std::size_t>(pattern_->nnz()), 0.0);
  for (std::size_t k = 0; k < g_triplets_.size(); ++k)
    out[static_cast<std::size_t>(g_slots_[k])] += g_triplets_[k].value;
}

void MnaAssembler::susceptance_values(std::vector<double>& out) const {
  out.assign(static_cast<std::size_t>(pattern_->nnz()), 0.0);
  for (std::size_t k = 0; k < c_triplets_.size(); ++k)
    out[static_cast<std::size_t>(c_slots_[k])] += c_triplets_[k].value;
}

std::vector<double> MnaAssembler::vsource_vector(std::size_t vsource_index) const {
  if (vsource_index >= circuit_.voltage_sources().size())
    throw std::invalid_argument("vsource_vector: index out of range");
  std::vector<double> b(n_unknowns_, 0.0);
  b[vsource_branch(vsource_index)] = 1.0;
  return b;
}

std::vector<double> MnaAssembler::isource_vector(std::size_t isource_index) const {
  if (isource_index >= circuit_.current_sources().size())
    throw std::invalid_argument("isource_vector: index out of range");
  std::vector<double> b(n_unknowns_, 0.0);
  const auto& source = circuit_.current_sources()[isource_index];
  stamp_current(b, source.to, source.from, 1.0);
  return b;
}

std::vector<double> MnaAssembler::buffer_vector(std::size_t buffer_index) const {
  if (buffer_index >= circuit_.buffers().size())
    throw std::invalid_argument("buffer_vector: index out of range");
  std::vector<double> b(n_unknowns_, 0.0);
  const auto& buffer = circuit_.buffers()[buffer_index];
  stamp_current(b, buffer.output, kGround, 1.0 / buffer.output_resistance);
  return b;
}

std::vector<double> MnaAssembler::node_selector(NodeId node) const {
  if (node == kGround || node < 0 || static_cast<std::size_t>(node) >= n_nodes_)
    throw std::invalid_argument("node_selector: not a non-ground circuit node");
  std::vector<double> l(n_unknowns_, 0.0);
  l[static_cast<std::size_t>(node)] = 1.0;
  return l;
}

double MnaAssembler::transient_scale(double dt, Integrator method) {
  if (!(dt > 0.0)) throw std::invalid_argument("transient_matrix: dt must be > 0");
  return (method == Integrator::kTrapezoidal ? 2.0 : 1.0) / dt;
}

numeric::RealSparse MnaAssembler::dc_sparse(double gmin) const {
  return numeric::RealSparse(static_cast<int>(n_unknowns_), dc_triplets(gmin));
}

bool MnaAssembler::dc_values_into(double gmin, const numeric::SparsePattern& pattern,
                                  numeric::BatchedValues& out,
                                  std::size_t lane) const {
  if (pattern.n != static_cast<int>(n_unknowns_) ||
      out.slots() != static_cast<std::size_t>(pattern.nnz()))
    return false;
  // Each stamp's slot is its (row, col) in `pattern`, found by a search of
  // the row's sorted columns; the pattern matches iff every slot is hit.
  std::vector<char> hit(static_cast<std::size_t>(pattern.nnz()), 0);
  std::size_t distinct = 0;
  out.clear_lane(lane);
  for (const auto& t : dc_triplets(gmin)) {
    const auto first = pattern.col_idx.begin() + pattern.row_ptr[t.row];
    const auto last = pattern.col_idx.begin() + pattern.row_ptr[t.row + 1];
    const auto it = std::lower_bound(first, last, t.col);
    if (it == last || *it != t.col) return false;
    const auto slot = static_cast<std::size_t>(it - pattern.col_idx.begin());
    if (!hit[slot]) {
      hit[slot] = 1;
      ++distinct;
    }
    out.at(slot, lane) += t.value;
  }
  return distinct == hit.size();
}

std::vector<numeric::Triplet<double>> MnaAssembler::dc_triplets(double gmin) const {
  std::vector<numeric::Triplet<double>> t;
  for (std::size_t i = 0; i < n_nodes_; ++i)
    t.push_back({static_cast<int>(i), static_cast<int>(i), gmin});

  for (const auto& r : circuit_.resistors())
    stamp_conductance(t, r.n1, r.n2, 1.0 / r.resistance);

  // Capacitors are open at DC: no stamp.

  // Inductors are shorts at DC: branch equation v1 - v2 = 0, KCL couples j.
  const auto& inductors = circuit_.inductors();
  for (std::size_t k = 0; k < inductors.size(); ++k)
    stamp_branch_incidence(t, inductors[k].n1, inductors[k].n2,
                           static_cast<int>(inductor_branch(k)));

  const auto& vsources = circuit_.voltage_sources();
  for (std::size_t k = 0; k < vsources.size(); ++k)
    stamp_branch_incidence(t, vsources[k].positive, vsources[k].negative,
                           static_cast<int>(vsource_branch(k)));

  // Buffer output stage: conductance 1/Rout from output node to ground.
  for (const auto& b : circuit_.buffers())
    stamp_conductance(t, b.output, kGround, 1.0 / b.output_resistance);
  return t;
}

numeric::RealMatrix MnaAssembler::dc_matrix(double gmin) const {
  return dc_sparse(gmin).to_dense();
}

std::vector<double> MnaAssembler::dc_rhs(double t) const {
  std::vector<double> rhs(n_unknowns_, 0.0);
  const auto& vsources = circuit_.voltage_sources();
  for (std::size_t k = 0; k < vsources.size(); ++k)
    rhs[vsource_branch(k)] = source_value(vsources[k].spec, t);
  for (const auto& i : circuit_.current_sources())
    stamp_current(rhs, i.to, i.from, source_value(i.spec, t));
  for (const auto& b : circuit_.buffers()) {
    const double v = buffer_drive(b, std::numeric_limits<double>::infinity(), t);
    stamp_current(rhs, b.output, kGround, v / b.output_resistance);
  }
  return rhs;
}

numeric::RealMatrix MnaAssembler::transient_matrix(double dt, Integrator method) const {
  std::vector<double> values;
  system_values(transient_scale(dt, method), values);
  return numeric::RealSparse(pattern_, std::move(values)).to_dense();
}

double MnaAssembler::buffer_drive(const Buffer& buffer, double fire_time, double t) {
  // The value AT the fire instant is the pre-switch level (matching the
  // StepSpec convention in source_value), and an output_rise > 0 ramps
  // linearly to the post-switch level.
  if (!(t > fire_time)) return buffer.output_v0;
  if (buffer.output_rise <= 0.0 || t >= fire_time + buffer.output_rise)
    return buffer.output_v1;
  return buffer.output_v0 + (buffer.output_v1 - buffer.output_v0) *
                                (t - fire_time) / buffer.output_rise;
}

}  // namespace rlcsim::sim
