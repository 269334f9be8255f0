// paper-glp: the paper's nine problems through GL-P on a simulated machine.
//
// Each problem runs groebner_parallel on a SimMachine at P=4 with exact
// coefficients, the default (unbatched) wire and a fixed engine seed, then
// reduce_basis and verify_groebner_result. The engine, the basis store, the
// task queue and the machine do most of the pass, and wall time on the
// simulator grows with the message count, so protocol changes show here;
// the virtual makespan is the paper's own host-independent figure.
//
// The seed picks the order of the problems in a pass; the engine seed stays
// fixed because it changes the schedule, and with it the work done. The
// check reference is reduce_basis of the sequential engine's answer,
// computed during set-up.
#include <algorithm>

#include "checks.hpp"
#include "gb/parallel.hpp"
#include "gb/sequential.hpp"
#include "gb/verify.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/tracer.hpp"
#include "poly/reduce.hpp"
#include "problems/problems.hpp"
#include "support/rng.hpp"
#include "workload.hpp"

namespace gbbench {
namespace {

using gbd::Polynomial;

constexpr int kProcs = 4;
constexpr std::uint64_t kEngineSeed = 1;

struct Item {
  std::string name;
  gbd::PolyContext ctx;
  std::vector<Polynomial> reference;
};

// Adds a GL-P run's engine, machine, basis and queue figures to `l`.
void add_run(const gbd::ParallelResult& res, const gbd::MetricsSnapshot& snap,
             const gbd::BreakdownReport& br, Layers* layers) {
  Layers& l = *layers;
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const gbd::GbStats& st = res.stats;
  l["gb.spolys"] += d(st.spolys_computed);
  l["gb.reductions_to_zero"] += d(st.reductions_to_zero);
  l["gb.reduction_steps"] += d(st.reduction_steps);
  l["gb.work_units"] += d(st.work_units);
  l["gb.lock_wait_units"] += d(st.lock_wait_units);
  l["machine.virtual_makespan"] += d(res.machine.makespan);
  l["machine.messages"] += d(st.messages_sent);
  l["machine.bytes"] += d(st.bytes_sent);
  l["basis.polys_transferred"] += d(st.polys_transferred);
  l["basis.peak_resident_bodies"] =
      std::max(l["basis.peak_resident_bodies"], d(st.peak_resident_bodies));
  l["taskq.steals_sent"] += d(snap.total("taskq.steals_sent"));
  l["taskq.steals_won"] += d(snap.total("taskq.steals_won"));
  // The workers run on the machine's threads: their kernel counters come
  // from the registry, not from this thread's counters.
  l["poly.reducer.mask_rejects"] += d(snap.total("kernel.find_reducer.mask_rejects"));
  l["poly.reducer.probes"] += d(snap.total("kernel.find_reducer.probes"));
  l["poly.geobucket.axpys"] += d(snap.total("kernel.geobucket.axpys"));
  // The obs breakdown of the run's trace, as busy time per bucket.
  double busy_max = 0, busy_sum = 0;
  for (const gbd::ProcBreakdown& p : br.procs) {
    l["machine.reduce_units"] += d(p.reduce);
    l["machine.comm_units"] += d(p.comm + p.other);
    l["machine.hold_units"] += d(p.hold);
    l["machine.idle_units"] += d(p.idle);
    busy_max = std::max(busy_max, d(p.busy()));
    busy_sum += d(p.busy());
  }
  l["machine.proc_time_units"] += d(br.makespan) * d(br.procs.size());
  l["machine.busy_max_units"] += busy_max;
  l["machine.busy_mean_units"] += br.procs.empty() ? 0 : busy_sum / d(br.procs.size());
}

class PaperGlp final : public Workload {
 public:
  explicit PaperGlp(std::uint64_t seed) : seed_(seed) {}

  // GL-P on a SimMachine runs one simulated processor at a time, each on
  // its own thread, and hands the turn over through a condition variable
  // thousands of times a pass. Across CPUs each hand-over is a wake-up of
  // another vCPU, which waits whenever the hypervisor has that vCPU
  // descheduled: with 11% steal time on the host, unpinned passes took
  // 1.4-7.5 s of wall time for 1.3-1.7 s of CPU, while passes pinned to one
  // CPU took 1.08-1.30 s with wall time equal to CPU time. So each pass runs
  // on one CPU; the machine's threads, started by each groebner_parallel
  // call, inherit the calling thread's affinity.
  bool one_cpu() const override { return true; }

  void setup() override {
    for (const gbd::ProblemInfo& info : gbd::problem_list()) {
      if (info.extra) continue;
      gbd::PolySystem sys = gbd::load_problem(info.name);
      items_.push_back({info.name, sys.ctx,
                        gbd::reduce_basis(sys.ctx, gbd::groebner_sequential(sys).basis)});
    }
    gbd::Rng rng(seed_);
    order_ = shuffled(items_.size(), rng);
  }

  PassResult pass(SpanLog& log) override {
    PassResult r;
    const bool traced = log.enabled();
    const KernelCounters k0 = traced ? KernelCounters::now() : KernelCounters{};
    const double t0 = now_s(), c0 = cpu_s();
    std::vector<Solve> solves;
    for (std::size_t idx : order_) {
      const Item& it = items_[idx];
      const std::uint64_t op = ++ops_;
      const double s0 = now_s();
      SpanLog::Scope root = log.scope(op, "glp.solve");
      gbd::PolySystem sys;
      {
        SpanLog::Scope sp = log.scope(op, "io.parse");
        sys = gbd::load_problem(it.name);
      }
      gbd::ParallelConfig cfg;
      cfg.nprocs = kProcs;
      cfg.seed = kEngineSeed;
      std::unique_ptr<gbd::Tracer> tracer;
      std::unique_ptr<gbd::MetricsRegistry> metrics;
      if (traced) {
        tracer = std::make_unique<gbd::Tracer>(gbd::TracerConfig{std::size_t{1} << 18});
        metrics = std::make_unique<gbd::MetricsRegistry>(kProcs);
        cfg.tracer = tracer.get();
        cfg.metrics = metrics.get();
      }
      gbd::ParallelResult res;
      {
        SpanLog::Scope sp = log.scope(op, "gb.engine");
        res = gbd::groebner_parallel(sys, cfg);
      }
      Solve s;
      s.name = it.name;
      s.ctx = &it.ctx;
      s.reference = &it.reference;
      {
        SpanLog::Scope sp = log.scope(op, "gb.reduce_basis");
        s.basis = gbd::reduce_basis(sys.ctx, std::move(res.basis));
      }
      {
        SpanLog::Scope sp = log.scope(op, "gb.verify");
        s.certified = gbd::verify_groebner_result(sys.ctx, sys.polys, s.basis);
      }
      r.latencies_ms.push_back(1e3 * (now_s() - s0));
      if (traced) {
        // Not on the timed path of an untraced pass, but inside this one:
        // the analysis is part of what tracing costs.
        add_run(res, metrics->snapshot(), gbd::analyze_trace(tracer->data()), &r.layers);
      }
      solves.push_back(std::move(s));
    }
    r.wall_s = now_s() - t0;
    r.cpu_s = cpu_s() - c0;
    if (traced) {
      KernelCounters::now().since(k0).add_to(&r.layers);
      log.add_durations(&r.layers);
      r.coverage = log.covered(t0, t0 + r.wall_s) / r.wall_s;
    }

    check_solves("paper-glp", solves, &r);
    return r;
  }

 private:
  std::uint64_t seed_;
  std::vector<Item> items_;
  std::vector<std::size_t> order_;
  std::uint64_t ops_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_paper_glp(std::uint64_t seed) {
  return std::make_unique<PaperGlp>(seed);
}

}  // namespace gbbench
