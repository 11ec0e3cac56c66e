// Scenario-batched transient stepping.
//
// The sweep engine's transient hot path runs W topologically identical
// circuits that differ only in element VALUES, on one shared time grid
// (explicit t_stop/dt, no buffers, identical source breakpoints). This
// entry point steps all W of them in lockstep through the stepper every
// scalar run uses (sim/stepper.h), instantiated at the tile's width: per
// step one lane-major RHS, ONE batched solve over the recorded symbolic
// factorization (numeric::SparseLuBatch, lane-major SoA values the
// autovectorizer turns into SIMD), and a probe test on the single node the
// caller asked about; nothing is recorded. What is batch-only is the tile
// setup: the eligibility checks below, lanes after the first adopting lane
// 0's system pattern and value slots (the two-circuit MnaAssembler
// constructor), and a batched DC solve with every lane's values written
// straight onto the recorded DC pattern (MnaAssembler::dc_values_into), so
// a tile sorts one pattern, not W + W.
//
// Early stop: a lane retires at the first step whose sample interval
// brackets its crossing, and the tile ends when its last lane has retired.
// Retired lanes keep riding the batched kernels until then; their answers
// are fixed. A lane still open when the window ends extends the whole tile
// (4x/16x/64x, each counted under transient.horizon_extensions), exactly
// as its scalar run extends: the step grid of a buffer-free tile does not
// depend on state, and its lanes share their source corners in every
// window an extension reaches. A lane that never crosses throws the
// scalar path's context-prefixed error.
//
// Bit-identity contract: every per-lane number is produced by the same
// arithmetic, in the same order, as the scalar run_until_crossing path —
// the batched kernels guarantee it per solve (see numeric/sparse_batch.h),
// the stamping seams per matrix (MnaAssembler::stamp_values_into and
// dc_values_into), and the stepper per step. So every lane's crossing is
// memcmp-equal to the one its scalar probe run stops at.
//
// Eligibility is checked, not assumed: a batch whose lanes cannot share the
// grid returns std::nullopt, counts its reason under the obs counter
// batch.ineligible.<reason>, and the caller runs the points scalar. The
// reasons: lanes (unsupported width), options (bad t_stop or dt), unseeded
// (no recorded system or DC symbolic), buffers, node (probe node missing
// or ground), dense (below the sparse-solver size), pattern (system
// or DC pattern differs from the record), topology (lanes differ in element
// counts or terminals), breakpoints (lanes differ in source corners in some
// window out to 4^kMaxHorizonExtensions * t_stop, or a source's corners
// cannot be enumerated that far).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sim/circuit.h"
#include "sim/transient.h"

namespace rlcsim::sim {

// First rising crossing of `level` at `node`, per lane, for W = 1/4/8
// circuits stepped as one batch. Requires options.reuse populated with the
// recorded system + DC patterns and symbolic factorizations every lane
// structurally matches (the sweep engine's point-0 seeding provides this).
// Returns std::nullopt when the batch is ineligible — the caller must then
// evaluate the points through the scalar path; throws (like the scalar
// path) only for failures the scalar path would also throw for, e.g. a lane
// that never crosses within the auto-extended horizon.
std::optional<std::vector<double>> run_batched_crossings(
    const std::vector<Circuit>& circuits, const std::string& node, double level,
    const TransientOptions& options, const char* context);

}  // namespace rlcsim::sim
