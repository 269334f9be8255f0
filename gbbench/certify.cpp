// certify: one-shot certified solves on one thread.
//
// Zp half: katsura(5), cyclic(5) and eco(7) through the sequential engine
// with the F4 matrix kernel, over a prime below 2^32 so the AVX2 sweep runs,
// then reduce_basis and verify_groebner_result. Q half: the same three
// systems through groebner_multimodular, one prime job at a time, which
// certifies its lift over Q itself. Certification is most of a pass here,
// so cheaper certificates show on this workload first.
//
// The Zp half is kept small so that a pass takes about 2.5 s and a run
// takes a median over a dozen passes. With katsura(6), cyclic(6) and eco(8)
// a pass took 8-11 s, mostly in eco(8)'s and katsura(6)'s certificates, and
// the median of the three or four passes of a 30 s run moved by up to a
// third between runs: this single thread's speed follows the host's shared
// memory system, which drifts over seconds to minutes.
//
// The seed picks the prime and the order of the solves in a pass. Check
// references come from other engine paths, computed during set-up: the
// per-polynomial sequential engine for the Zp half and the exact sequential
// engine for the Q half.
#include <algorithm>

#include "bigint/zp.hpp"
#include "checks.hpp"
#include "gb/modular.hpp"
#include "gb/sequential.hpp"
#include "gb/verify.hpp"
#include "poly/reduce.hpp"
#include "problems/problems.hpp"
#include "support/rng.hpp"
#include "workload.hpp"

namespace gbbench {
namespace {

using gbd::CoeffOptions;
using gbd::Polynomial;

struct Item {
  std::string name;
  bool modular = false;  // Q half
  gbd::PolyContext ctx;
  std::vector<Polynomial> reference;  // canonical reduced basis
};

class Certify final : public Workload {
 public:
  explicit Certify(std::uint64_t seed) : seed_(seed) {}

  // One thread: each pass runs on one CPU, a different one each time.
  bool one_cpu() const override { return true; }

  void setup() override {
    gbd::Rng rng(seed_);
    // A prime in [2^32 - 2^20, 2^32): below 2^32 the Zp sweep is vectorized.
    prime_ = gbd::prev_prime_u64((std::uint64_t{1} << 32) - rng.below(std::uint64_t{1} << 20));
    for (bool modular : {false, true})
      for (const char* n : {"katsura(5)", "cyclic(5)", "eco(7)"})
        items_.push_back({n, modular, {}, {}});
    for (Item& it : items_) {
      gbd::PolySystem sys = gbd::load_problem(it.name);
      it.ctx = sys.ctx;
      gbd::GbConfig cfg;
      if (!it.modular) cfg.coeff = zp();
      it.reference =
          gbd::reduce_basis(sys.ctx, gbd::groebner_sequential(sys, cfg).basis, cfg.coeff);
    }
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
      SpanLog::Scope root = log.scope(op, "certify.solve");
      Solve s;
      s.name = it.name;
      gbd::PolySystem sys;
      {
        SpanLog::Scope sp = log.scope(op, "io.parse");
        sys = gbd::load_problem(it.name);
      }
      if (it.modular) {
        gbd::ModularConfig mc;
        mc.jobs = 1;
        const double m0 = now_s();
        gbd::ModularResult mr;
        {
          SpanLog::Scope sp = log.scope(op, "gb.modular");
          mr = gbd::groebner_multimodular(sys, mc);
        }
        if (traced) {
          // ModularStats' own timers split the call: the CRT lift, the
          // certificates (each per-prime Zp certificate and the final one
          // over Q, all in verify_seconds), and the rest, the per-prime
          // engine runs.
          const auto& st = mr.stats;
          double total_ms = 1e3 * (now_s() - m0);
          r.layers["gb.modular.lift_ms"] += 1e3 * st.lift_seconds;
          r.layers["gb.modular.primes_used"] += static_cast<double>(st.primes_used);
          r.layers["gb.modular_verify_ms"] += 1e3 * st.verify_seconds;
          r.layers["gb.modular_engine_ms"] +=
              total_ms - 1e3 * (st.lift_seconds + st.verify_seconds);
        }
        s.basis = std::move(mr.basis);
        s.certified = mr.stats.verified;
      } else {
        gbd::GbConfig cfg;
        cfg.coeff = zp();
        cfg.matrix_reduce = true;
        gbd::SequentialResult res;
        {
          SpanLog::Scope sp = log.scope(op, "gb.engine");
          res = gbd::groebner_sequential(sys, cfg);
        }
        {
          SpanLog::Scope sp = log.scope(op, "gb.reduce_basis");
          s.basis = gbd::reduce_basis(sys.ctx, std::move(res.basis), cfg.coeff);
        }
        {
          SpanLog::Scope sp = log.scope(op, "gb.verify");
          s.certified =
              gbd::verify_groebner_result(sys.ctx, sys.polys, s.basis, nullptr, cfg.coeff);
        }
        if (traced) {
          r.layers["gb.spolys"] += static_cast<double>(res.stats.spolys_computed);
          r.layers["gb.reductions_to_zero"] += static_cast<double>(res.stats.reductions_to_zero);
          r.layers["gb.reduction_steps"] += static_cast<double>(res.stats.reduction_steps);
          r.layers["gb.work_units"] += static_cast<double>(res.stats.work_units);
        }
      }
      r.latencies_ms.push_back(1e3 * (now_s() - s0));
      s.coeff = it.modular ? CoeffOptions::exact() : zp();
      s.ctx = &it.ctx;
      s.reference = &it.reference;
      solves.push_back(std::move(s));
    }
    r.wall_s = now_s() - t0;
    r.cpu_s = cpu_s() - c0;
    if (traced) {
      KernelCounters::now().since(k0).add_to(&r.layers);
      log.add_durations(&r.layers);
      r.layers["gb.engine_ms"] += r.layers["gb.modular_engine_ms"];
      r.layers["gb.verify_ms"] += r.layers["gb.modular_verify_ms"];
      r.coverage = log.covered(t0, t0 + r.wall_s) / r.wall_s;
    }

    check_solves("certify", solves, &r);
    return r;
  }

 private:
  CoeffOptions zp() const { return CoeffOptions::zp(prime_); }

  std::uint64_t seed_;
  std::uint64_t prime_ = 0;
  std::vector<Item> items_;
  std::vector<std::size_t> order_;
  std::uint64_t ops_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_certify(std::uint64_t seed) {
  return std::make_unique<Certify>(seed);
}

}  // namespace gbbench
