// Scenario-batched value layer under the sparse LU's symbolic machinery.
//
// Every sweep in this library evaluates thousands of matrices that share ONE
// sparsity pattern and — via SparseLu::refactor — one recorded elimination
// sequence. The scalar hot path still walks that sequence once per scenario;
// this header walks it once per BATCH: a BatchedValues holds W scenarios'
// CSR value arrays side by side (structure-of-arrays, lane-major:
// values[slot * W + lane]), and SparseLuBatch replays the donor
// factorization's recorded pivot order updating all W lanes per CSR slot.
//
// The lane loops are plain double arithmetic over contiguous double[W]
// blocks — exactly the shape the autovectorizer turns into SIMD under
// -march=native — with NO intrinsics, so correctness never depends on the
// target ISA. Bit-identity contract: because the pivot order is frozen from
// the donor's symbolic analysis, every lane takes the same control path and
// performs the same arithmetic, in the same order, as W independent scalar
// SparseLu::refactor calls — results are bit-identical (the scalar replay's
// exact-zero guards are reproduced per lane as value-preserving blends, so
// even signed zeros match). A lane whose values hit the exact-zero stale
// pivot ejects to the scalar path INDIVIDUALLY (SparseLu copy + refactor,
// which re-pivots), again matching what the scalar path would have done.
//
// Lane widths are W in {1, 4, 8}, dispatched at runtime (templated kernels
// instantiated per width); RLCSIM_LANES overrides the default dispatch.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "numeric/sparse.h"

namespace rlcsim::numeric {

// Lane widths the batched kernels are instantiated for.
inline constexpr std::size_t kBatchLaneWidths[] = {1, 4, 8};
bool is_supported_lane_width(std::size_t lanes);

// Default lane width of the batched sweep paths: the RLCSIM_LANES
// environment knob when set ("1" | "4" | "8" | "auto"; unset/empty/auto =
// the widest kernel, 8). Anything else throws std::invalid_argument naming
// the variable and the offending value — a typo'd lane count silently
// falling back to some default is exactly the failure mode an override knob
// must not have (the RLCSIM_THREADS hardening, applied here).
std::size_t default_lane_width();

// W CSR value arrays (or W right-hand sides) over one shared structure,
// stored lane-major so the elimination inner loops touch W contiguous
// doubles per slot.
class BatchedValues {
 public:
  BatchedValues() = default;
  // `slots` = pattern nnz for matrix values, or n for RHS vectors.
  // Throws std::invalid_argument for an unsupported lane count.
  BatchedValues(std::size_t slots, std::size_t lanes);

  std::size_t slots() const { return slots_; }
  std::size_t lanes() const { return lanes_; }

  double& at(std::size_t slot, std::size_t lane) {
    return data_[slot * lanes_ + lane];
  }
  double at(std::size_t slot, std::size_t lane) const {
    return data_[slot * lanes_ + lane];
  }
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  // Scalar <-> lane transfers (sizes must match `slots`).
  void set_lane(std::size_t lane, const std::vector<double>& values);
  void extract_lane(std::size_t lane, std::vector<double>& out) const;

  // Zero one lane (fresh accumulation target for stamping loops).
  void clear_lane(std::size_t lane);

 private:
  std::size_t slots_ = 0;
  std::size_t lanes_ = 1;
  std::vector<double> data_;
};

// Batched numeric refactorization + solve along a donor RealSparseLu's
// recorded symbolic analysis. The donor is copied at construction (so the
// batch owns its symbolic state) and also serves as the template for the
// per-lane scalar ejection fallback.
class SparseLuBatch {
 public:
  // Throws std::invalid_argument for an unsupported lane count.
  SparseLuBatch(const RealSparseLu& donor, std::size_t lanes);

  std::size_t size() const { return donor_.size(); }
  std::size_t lanes() const { return lanes_; }

  // Numeric-only refactorization of all W lanes: `values` must hold the CSR
  // value arrays (donor pattern slot order, slots() == pattern nnz). Counts
  // as one numeric pass PER NON-EJECTED LANE in sparse_lu_stats(); ejected
  // lanes count under ejected_lanes plus whatever their scalar fallback
  // factorization records.
  void refactor(const BatchedValues& values);

  // In-place batched triangular solves: x holds W right-hand sides
  // (slots() == size()) and receives the W solutions. Ejected lanes are
  // routed through their scalar fallback factorization transparently (each
  // adds one lu.solves). The obs counter batch.solves is not added here:
  // sim::run_batched_crossings adds its tile's solves once per tile.
  void solve_in_place(BatchedValues& x) const;

  // Lanes ejected by the last refactor() (zero stale pivot -> scalar path).
  std::size_t ejected_lane_count() const;
  bool lane_ejected(std::size_t lane) const { return ejected_[lane] != 0; }

 private:
  template <int W>
  void refactor_kernel(const BatchedValues& values);
  template <int W>
  void solve_kernel(BatchedValues& x) const;

  RealSparseLu donor_;
  std::size_t lanes_ = 1;
  // Batched factor values, lane-major over the donor's lx_/ux_ layouts.
  std::vector<double> lx_, ux_;
  std::vector<char> ejected_;
  // Scalar fallbacks, allocated lazily per ejected lane.
  mutable std::vector<std::unique_ptr<RealSparseLu>> scalar_;
  mutable std::vector<double> work_;         // n * lanes solve scratch
  mutable std::vector<double> scalar_work_;  // n scratch for ejected lanes
};

}  // namespace rlcsim::numeric
