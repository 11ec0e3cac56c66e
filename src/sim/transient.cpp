#include "sim/transient.h"

#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "numeric/matrix.h"
#include "numeric/sparse.h"
#include "obs/obs.h"
#include "sim/stepper.h"

namespace rlcsim::sim {
namespace {

// One cached transient-system factorization: dense LU or sparse LU,
// whichever the run's solver policy selected.
struct CachedFactor {
  std::optional<numeric::RealLu> dense;
  std::optional<numeric::RealSparseLu> sparse;

  void solve_in_place(std::vector<double>& x) const {
    if (dense)
      dense->solve_in_place(x);
    else
      sparse->solve_in_place(x);
  }
};

}  // namespace

void collect_source_breakpoints(const SourceSpec& spec, double t_stop,
                                std::set<double>& out) {
  if (const auto* step = std::get_if<StepSpec>(&spec)) {
    if (step->delay <= t_stop) out.insert(step->delay);
    if (step->rise > 0.0 && step->delay + step->rise <= t_stop)
      out.insert(step->delay + step->rise);
    return;
  }
  if (const auto* pwl = std::get_if<PwlSpec>(&spec)) {
    for (const auto& [t, _] : pwl->points)
      if (t >= 0.0 && t <= t_stop) out.insert(t);
    return;
  }
  if (const auto* pulse = std::get_if<PulseSpec>(&spec)) {
    const std::int64_t last_cycle = detail::last_pulse_cycle(*pulse, t_stop);
    for (std::int64_t cycle = 0; cycle <= last_cycle; ++cycle) {
      const double base = pulse->delay + static_cast<double>(cycle) * pulse->period;
      if (base > t_stop) break;
      const double edges[4] = {base, base + pulse->rise, base + pulse->rise + pulse->width,
                               base + pulse->rise + pulse->width + pulse->fall};
      for (double e : edges)
        if (e <= t_stop) out.insert(e);
    }
  }
}

namespace detail {

std::int64_t last_pulse_cycle(const PulseSpec& pulse, double t_stop) {
  // Every cycle whose base lies inside [0, t_stop] contributes edges; the
  // count is bounded by t_stop/period, not by an arbitrary cycle cap. A
  // simulation must land a step on each edge anyway, so a cycle count no
  // run could ever integrate is a spec error, not something to truncate
  // silently: fail loudly instead of exhausting memory.
  constexpr double kMaxPulseCycles = 1'000'000;
  const double cycles =
      pulse.period > 0.0 ? std::floor((t_stop - pulse.delay) / pulse.period) : 0.0;
  // Compare BEFORE casting: a double beyond int64 range would make the
  // cast undefined and could skip this guard entirely.
  if (cycles > kMaxPulseCycles)
    throw std::invalid_argument(
        "collect_source_breakpoints: pulse period is so small that t_stop "
        "covers more than 1e6 cycles; refusing to enumerate breakpoints");
  return static_cast<std::int64_t>(cycles);
}

const char* invalid_options(const TransientOptions& options) {
  if (!(options.t_stop > 0.0)) return "t_stop must be > 0";
  const double dt = options.dt > 0.0 ? options.dt : options.t_stop / 4000.0;
  if (dt >= options.t_stop) return "dt must be < t_stop";
  return nullptr;
}

void add_source_breakpoints(const Circuit& circuit, double t_stop,
                            std::set<double>& out) {
  for (const auto& v : circuit.voltage_sources())
    collect_source_breakpoints(v.spec, t_stop, out);
  for (const auto& i : circuit.current_sources())
    collect_source_breakpoints(i.spec, t_stop, out);
}

double crossed(const std::optional<double>& crossing, const char* context,
               const std::string& node) {
  if (!crossing)
    throw std::runtime_error(std::string(context) + ": '" + node +
                             "' never crossed the threshold within the "
                             "(auto-extended) horizon");
  return *crossing;
}

}  // namespace detail

TransientResult run_transient(const Circuit& circuit, const TransientOptions& options) {
  OBS_SPAN("transient.run");
  OBS_COUNTER_ADD("transient.runs", 1);
  if (const char* error = detail::invalid_options(options))
    throw std::invalid_argument(std::string("run_transient: ") + error);
  const auto node_of = [&](const std::string& name, const char* role) {
    const auto found = circuit.find_node(name);
    if (!found || *found == kGround)
      throw std::invalid_argument(std::string("run_transient: ") + role + " node '" +
                                  name + "' is not a node of the circuit");
    return *found;
  };
  const std::optional<TransientProbe>& probe = options.probe;
  const NodeId probe_node = probe ? node_of(probe->node, "probe") : kGround;
  std::vector<std::size_t> recorded;  // node indices, one per column
  if (options.record_only) {
    recorded.push_back(
        static_cast<std::size_t>(node_of(*options.record_only, "record_only")));
  } else {
    for (std::size_t i = 0; i < circuit.node_count(); ++i) recorded.push_back(i);
  }

  const MnaAssembler assembler(circuit);
  const bool use_sparse = use_sparse_solver(options.solver, assembler.unknown_count());
  SolverReuse* reuse = use_sparse ? options.reuse : nullptr;
  // The DC operating point at t = 0 (every buffer unfired); the sparse LU
  // replays reuse->dc when given.
  std::vector<double> dc = assembler.dc_rhs(0.0);
  if (use_sparse)
    numeric::factor_reusing(assembler.dc_sparse(detail::kDcGmin),
                            reuse ? &reuse->dc : nullptr)
        .solve_in_place(dc);
  else
    numeric::RealLu(assembler.dc_matrix(detail::kDcGmin)).solve_in_place(dc);

  // Every sparse factorization of this run shares one symbolic analysis,
  // held in `run_system`: the caller's recorded one when it fits this
  // circuit, else this run's first (see numeric::factor_reusing).
  numeric::SymbolicRecord run_system;
  std::vector<double> system_values;  // reused CSR value buffer
  const auto make_factor = [&](double dt, Integrator method) {
    CachedFactor factor;
    if (use_sparse) {
      assembler.system_values(MnaAssembler::transient_scale(dt, method), system_values);
      factor.sparse.emplace(numeric::factor_reusing(
          numeric::RealSparse(assembler.system_pattern(), system_values),
          reuse ? &reuse->system : nullptr, &run_system));
    } else {
      factor.dense.emplace(assembler.transient_matrix(dt, method));
    }
    return factor;
  };

  // --- recording: the record_only node, else every node -------------------
  std::vector<double> times;
  std::map<std::string, std::vector<double>> node_values;
  std::vector<std::vector<double>*> columns(recorded.size());
  for (std::size_t c = 0; c < recorded.size(); ++c)
    columns[c] = &node_values[circuit.node_name(static_cast<NodeId>(recorded[c]))];
  const auto record = [&](double time, const double* v) {
    times.push_back(time);
    for (std::size_t c = 0; c < recorded.size(); ++c)
      columns[c]->push_back(v[recorded[c]]);
  };

  std::vector<double> x(assembler.unknown_count());
  const detail::StepperInput in{
      options, {&circuit}, assembler, dc.data(),
      probe ? std::vector<NodeId>{probe_node} : std::vector<NodeId>{},
      probe ? probe->level : 0.0,
      probe && probe->window == CrossingWindow::kStopAtCrossing};
  detail::StepperOutput run = detail::step_lanes<1>(in, x, make_factor, record);

  OBS_COUNTER_ADD("transient.steps", run.steps);
  OBS_COUNTER_ADD("transient.recorded_values", times.size() * recorded.size());
  OBS_COUNTER_ADD("cache.lu_dt.hits", run.lu_hits);
  OBS_COUNTER_ADD("cache.lu_dt.misses", run.lu_misses);
  // Every step solve (rejected ones included) is one cache hit or miss.
  if (use_sparse) OBS_COUNTER_ADD("lu.solves", 1 + run.lu_hits + run.lu_misses);
  TransientResult result;
  result.waveforms = WaveformSet(std::move(times), std::move(node_values));
  result.buffer_fire_times = std::move(run.buffer_fire_times);
  result.steps_taken = run.steps;
  result.lu_factorizations = run.lu_misses;
  result.used_sparse_solver = use_sparse;
  result.crossing = run.crossing[0];
  return result;
}

}  // namespace rlcsim::sim
