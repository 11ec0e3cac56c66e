#include "sim/transient_batch.h"

#include <cmath>
#include <set>
#include <stdexcept>

#include "numeric/sparse_batch.h"
#include "obs/obs.h"
#include "sim/mna.h"
#include "sim/stepper.h"

namespace rlcsim::sim {

// Every ineligible batch returns through here, counting its reason under
// batch.ineligible.<reason> (one counter handle per call site).
#define RLCSIM_BATCH_INELIGIBLE(reason)                   \
  do {                                                    \
    OBS_COUNTER_ADD("batch.ineligible." reason, 1);       \
    return std::nullopt;                                  \
  } while (0)

std::optional<std::vector<double>> run_batched_crossings(
    const std::vector<Circuit>& circuits, const std::string& node, double level,
    const TransientOptions& options, const char* context) {
  OBS_SPAN("transient.batch");
  const std::size_t lanes = circuits.size();
  if (!numeric::is_supported_lane_width(lanes)) RLCSIM_BATCH_INELIGIBLE("lanes");

  // Ineligible-option combinations fall back rather than throw: the scalar
  // path then raises exactly the diagnostics run_transient documents.
  if (detail::invalid_options(options)) RLCSIM_BATCH_INELIGIBLE("options");

  // The batch replays RECORDED symbolic factorizations — without a fully
  // seeded SolverReuse each lane would pay (and pivot) its own symbolic
  // analysis, which is exactly the scalar path.
  SolverReuse* reuse = options.reuse;
  if (!reuse || !reuse->system.symbolic || !reuse->dc.symbolic)
    RLCSIM_BATCH_INELIGIBLE("unseeded");

  // Per-lane assemblers, the later lanes on lane 0's pattern and slots;
  // every lane must be buffer-free (shared step grid), observe an actual
  // node, and match the recorded system pattern.
  std::vector<MnaAssembler> assemblers;
  assemblers.reserve(lanes);
  std::vector<NodeId> node_id(lanes, kGround);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const Circuit& circuit = circuits[lane];
    if (!circuit.buffers().empty()) RLCSIM_BATCH_INELIGIBLE("buffers");
    const auto found = circuit.find_node(node);
    if (!found || *found == kGround) RLCSIM_BATCH_INELIGIBLE("node");
    node_id[lane] = *found;
    if (lane == 0)
      assemblers.emplace_back(circuit);
    else
      assemblers.emplace_back(circuit, assemblers[0]);
  }
  const std::size_t unknowns = assemblers[0].unknown_count();
  if (!use_sparse_solver(options.solver, unknowns)) RLCSIM_BATCH_INELIGIBLE("dense");
  for (const MnaAssembler& assembler : assemblers) {
    if (assembler.unknown_count() != unknowns) RLCSIM_BATCH_INELIGIBLE("pattern");
    if (!numeric::same_structure(*reuse->system.pattern, *assembler.system_pattern()))
      RLCSIM_BATCH_INELIGIBLE("pattern");
  }

  // The stepper walks lane 0's element topology for EVERY lane, so all
  // lanes must agree on element counts and node/branch indices — only the
  // VALUES may differ. Sweep tiles are built by one builder and always
  // qualify; anything else falls back to the scalar per-point path.
  const Circuit& c0 = circuits[0];
  const auto& caps0 = c0.capacitors();
  const auto& inductors0 = c0.inductors();
  const auto& mutuals0 = c0.mutuals();
  const auto& vsources0 = c0.voltage_sources();
  const auto& isources0 = c0.current_sources();
  for (std::size_t lane = 1; lane < lanes; ++lane) {
    const Circuit& c = circuits[lane];
    if (c.node_count() != c0.node_count()) RLCSIM_BATCH_INELIGIBLE("topology");
    if (c.capacitors().size() != caps0.size() ||
        c.inductors().size() != inductors0.size() ||
        c.mutuals().size() != mutuals0.size() ||
        c.voltage_sources().size() != vsources0.size() ||
        c.current_sources().size() != isources0.size())
      RLCSIM_BATCH_INELIGIBLE("topology");
    for (std::size_t k = 0; k < caps0.size(); ++k)
      if (c.capacitors()[k].n1 != caps0[k].n1 ||
          c.capacitors()[k].n2 != caps0[k].n2)
        RLCSIM_BATCH_INELIGIBLE("topology");
    for (std::size_t k = 0; k < inductors0.size(); ++k)
      if (c.inductors()[k].n1 != inductors0[k].n1 ||
          c.inductors()[k].n2 != inductors0[k].n2)
        RLCSIM_BATCH_INELIGIBLE("topology");
    for (std::size_t k = 0; k < mutuals0.size(); ++k)
      if (c.mutuals()[k].inductor_a != mutuals0[k].inductor_a ||
          c.mutuals()[k].inductor_b != mutuals0[k].inductor_b)
        RLCSIM_BATCH_INELIGIBLE("topology");
    for (std::size_t k = 0; k < vsources0.size(); ++k)
      if (c.voltage_sources()[k].positive != vsources0[k].positive ||
          c.voltage_sources()[k].negative != vsources0[k].negative)
        RLCSIM_BATCH_INELIGIBLE("topology");
    for (std::size_t k = 0; k < isources0.size(); ++k)
      if (c.current_sources()[k].to != isources0[k].to ||
          c.current_sources()[k].from != isources0[k].from)
        RLCSIM_BATCH_INELIGIBLE("topology");
  }

  // Shared breakpoints in every window the tile can reach (it extends
  // together): buffer-free circuits step on source corners only, so equal
  // corners mean an identical, state-independent dt sequence. A lane whose
  // source specs equal lane 0's shares them trivially; any other lane must
  // list lane 0's corners in every window. A tile with a pulse train whose
  // corners cannot be enumerated out to the last window runs scalar.
  try {
    const double last = std::ldexp(options.t_stop, 2 * kMaxHorizonExtensions);
    for (const auto& v : vsources0)
      if (const auto* pulse = std::get_if<PulseSpec>(&v.spec))
        (void)detail::last_pulse_cycle(*pulse, last);
    for (const auto& i : isources0)
      if (const auto* pulse = std::get_if<PulseSpec>(&i.spec))
        (void)detail::last_pulse_cycle(*pulse, last);
    for (std::size_t lane = 1; lane < lanes; ++lane) {
      const Circuit& c = circuits[lane];
      bool same = true;
      for (std::size_t k = 0; k < vsources0.size(); ++k)
        same = same && c.voltage_sources()[k].spec == vsources0[k].spec;
      for (std::size_t k = 0; k < isources0.size(); ++k)
        same = same && c.current_sources()[k].spec == isources0[k].spec;
      for (int window = kMaxHorizonExtensions; !same && window >= 0; --window) {
        const double horizon = std::ldexp(options.t_stop, 2 * window);  // x 4^window
        std::set<double> lane0, other;
        detail::add_source_breakpoints(c0, horizon, lane0);
        detail::add_source_breakpoints(c, horizon, other);
        if (other != lane0) RLCSIM_BATCH_INELIGIBLE("breakpoints");
      }
    }
  } catch (const std::invalid_argument&) {
    RLCSIM_BATCH_INELIGIBLE("breakpoints");
  }

  // --- batched DC operating point -----------------------------------------
  numeric::BatchedValues dc_values(
      static_cast<std::size_t>(reuse->dc.pattern->nnz()), lanes);
  numeric::BatchedValues dc_solution(unknowns, lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    if (!assemblers[lane].dc_values_into(detail::kDcGmin, *reuse->dc.pattern,
                                         dc_values, lane))
      RLCSIM_BATCH_INELIGIBLE("pattern");
    dc_solution.set_lane(lane, assemblers[lane].dc_rhs(0.0));
  }
  numeric::SparseLuBatch dc_lu(*reuse->dc.symbolic, lanes);
  dc_lu.refactor(dc_values);
  dc_lu.solve_in_place(dc_solution);

  reuse->system.hits += lanes;  // one replayed system symbolic per lane
  OBS_COUNTER_ADD("reuse.hits", lanes);
  OBS_COUNTER_ADD("batch.tiles", 1);
  OBS_COUNTER_ADD("batch.lanes", lanes);

  // One batched refactor per (dt, integrator) key: every lane stamps its
  // G + scale*C onto the recorded pattern.
  numeric::BatchedValues system_values(
      static_cast<std::size_t>(reuse->system.pattern->nnz()), lanes);
  const auto make_factor = [&](double dt, Integrator method) {
    const double scale = MnaAssembler::transient_scale(dt, method);
    for (std::size_t lane = 0; lane < lanes; ++lane)
      assemblers[lane].stamp_values_into(scale, system_values, lane);
    numeric::SparseLuBatch factor(*reuse->system.symbolic, lanes);
    factor.refactor(system_values);
    return factor;
  };
  std::vector<const Circuit*> lane_circuits;
  for (const Circuit& circuit : circuits) lane_circuits.push_back(&circuit);
  const detail::StepperInput in{options, lane_circuits, assemblers[0],
                                dc_solution.data(), node_id, level};
  numeric::BatchedValues x(unknowns, lanes);
  const auto no_record = [](double, const double*) {};
  detail::StepperOutput run;
  switch (lanes) {
    case 1: run = detail::step_lanes<1>(in, x, make_factor, no_record); break;
    case 4: run = detail::step_lanes<4>(in, x, make_factor, no_record); break;
    default: run = detail::step_lanes<8>(in, x, make_factor, no_record); break;
  }
  OBS_COUNTER_ADD("cache.lu_dt_batch.hits", run.lu_hits);
  OBS_COUNTER_ADD("cache.lu_dt_batch.misses", run.lu_misses);
  // The DC solve plus one batched solve per step solve (each is one cache
  // hit or miss), counted once per tile.
  OBS_COUNTER_ADD("batch.solves", 1 + run.lu_hits + run.lu_misses);

  std::vector<double> crossings(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane)
    crossings[lane] = detail::crossed(run.crossing[lane], context, node);
  return crossings;
}

#undef RLCSIM_BATCH_INELIGIBLE

}  // namespace rlcsim::sim
