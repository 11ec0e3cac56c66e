// Scenario-batched transient stepping.
//
// The sweep engine's transient hot path runs W topologically identical
// circuits that differ only in element VALUES, on one shared time grid
// (explicit t_stop/dt, no buffers, identical source breakpoints). This
// entry point steps all W of them in lockstep: per step it assembles W
// right-hand sides, performs ONE batched numeric refactor/solve over the
// recorded symbolic factorization (numeric::SparseLuBatch, lane-major SoA
// values the autovectorizer turns into SIMD), and watches only the single
// node the caller asked about: each lane keeps its previous sample of it,
// nothing is recorded. Per-tile setup is shared too: lanes after the first
// adopt lane 0's system pattern and value slots (the two-circuit
// MnaAssembler constructor), and every lane writes its DC values straight
// onto the recorded DC pattern (MnaAssembler::dc_values_into), so a tile
// sorts one pattern, not W + W.
//
// Early stop: a lane retires at the first step whose sample interval
// brackets its crossing (numeric::interval_crossing, the scalar probe's
// test), and the tile ends when its last lane has retired. Retired lanes
// keep riding the batched kernels until then; their answers are fixed.
//
// Bit-identity contract: every per-lane number is produced by the same
// arithmetic, in the same order, as the scalar run_until_crossing path —
// the batched kernels guarantee it per solve (see numeric/sparse_batch.h),
// the stamping seams guarantee it per matrix (MnaAssembler::
// stamp_values_into and dc_values_into), and the shared step-size sequence is state-
// independent for buffer-free circuits. So a lane's crossing is the one its
// scalar probe run stops at. A lane that does not cross within the shared
// horizon is handed to the scalar run_until_crossing itself (its first
// window, then its horizon extensions), so batched sweep results are
// memcmp-equal to scalar ones.
//
// Eligibility is checked, not assumed: a batch whose lanes cannot share the
// grid returns std::nullopt, counts its reason under the obs counter
// batch.ineligible.<reason>, and the caller runs the points scalar. The
// reasons: lanes (unsupported width), options (bad t_stop/dt/min_dt_fraction),
// unseeded (no recorded system or DC symbolic), buffers, node (probe node
// missing or ground), dense (below the sparse-solver size), pattern (system
// or DC pattern differs from the record), topology (lanes differ in element
// counts or terminals), breakpoints (lanes differ in source corners).
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
