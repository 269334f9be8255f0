// serve-mix: an in-process gbd_serve JobServer over TCP loopback.
//
// Sequential backend, 2 workers, a certificate on every job. One client (the
// benchmark's main thread) runs a closed loop with kWindow jobs outstanding.
// Jobs are small systems sent as text: sparse(n, k) systems, exact and mod
// a prime, and small katsura, cyclic and eco systems mod a fresh prime
// each. Each job computes for tens of microseconds to a few milliseconds,
// so admission, canonicalize, queueing, the wire and rendering are a large
// share of a pass.
//
// Three jobs in ten are renamed, reordered or rescaled resubmissions of a
// recent original and must hit the canonical-form cache, so the cache is
// both read and written. The mix is synthetic: no record of real traffic
// exists to check it against (the README gives the reason for each
// figure). A variant is sent only after its original's result has arrived,
// so every pass hits and misses the same way. A pass has more distinct
// systems than the cache has entries, so each pass starts as cold as the
// one before.
//
// The checks: every token is answered exactly once; every result is parsed
// back in the submitted variables and re-certified in this process; an
// original's reduced answer equals the reduced basis the sequential engine
// gives for the submitted text, computed in set-up without canonicalize or
// the cache, and has the literature root count where one is known; a
// variant's answer is the renaming of its original's, and the daemon
// reports it as a cache hit. A pass compares each result with the one
// already checked for the same job, and re-checks it in full when they
// differ.
#include <algorithm>
#include <numeric>

#include "bigint/zp.hpp"
#include "checks.hpp"
#include "gb/sequential.hpp"
#include "gb/verify.hpp"
#include "poly/reduce.hpp"
#include "problems/problems.hpp"
#include "serve/cache.hpp"
#include "serve/canonical.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support/rng.hpp"
#include "workload.hpp"

namespace gbbench {
namespace {

using gbd::Polynomial;

constexpr std::size_t kJobs = 1000;     // per pass
constexpr std::size_t kWindow = 4;      // outstanding jobs
constexpr std::size_t kMaxLag = 40;     // how far back a variant's original lies
constexpr std::uint32_t kWorkers = 2;
constexpr int kPassTimeoutS = 60;

enum class Kind { kOriginal, kRenamed, kReordered, kRescaled };

struct Job {
  Kind kind = Kind::kOriginal;
  std::string name;           // originals: the problem name
  std::string text;
  gbd::PolySystem sys;        // `text` parsed, for the checks
  std::uint64_t prime = 0;    // 0 = exact
  std::size_t original = 0;   // variants: index of the original
  std::vector<std::string> checked;  // a result that passed every check
  std::vector<Polynomial> reduced;   // its canonical reduced basis
  std::vector<Polynomial> reference;  // originals: the set-up reference
};

gbd::PolySystem renamed(const gbd::PolySystem& in, std::size_t salt) {
  gbd::PolySystem out = in;
  for (std::size_t i = 0; i < out.ctx.vars.size(); ++i)
    out.ctx.vars[i] = "r" + std::to_string(salt % 7) + "v" + std::to_string(i);
  return out;
}

gbd::PolySystem reordered(const gbd::PolySystem& in, gbd::Rng& rng) {
  gbd::PolySystem out = in;
  auto& p = out.polys;
  for (std::size_t i = p.size(); i > 1; --i) std::swap(p[i - 1], p[rng.below(i)]);
  auto same = [](const Polynomial& a, const Polynomial& b) { return a.equals(b); };
  if (p.size() > 1 && std::equal(p.begin(), p.end(), in.polys.begin(), same))
    std::swap(p.front(), p.back());
  return out;
}

gbd::PolySystem rescaled(const gbd::PolySystem& in, gbd::Rng& rng) {
  gbd::PolySystem out = in;
  for (Polynomial& p : out.polys)
    p = p.mul_term(gbd::BigInt(static_cast<std::int64_t>(2 + rng.below(8))),
                   gbd::Monomial(out.ctx.nvars()));
  return out;
}

class ServeMix final : public Workload {
 public:
  explicit ServeMix(std::uint64_t seed) : seed_(seed) {}

  ~ServeMix() override {
    client_.close();
    if (server_) server_->stop();
  }

  void setup() override {
    build_corpus();
    for (Job& job : jobs_) {
      if (job.kind != Kind::kOriginal) continue;
      gbd::GbConfig gb;
      gb.coeff = coeff(job);
      job.reference = gbd::reduce_basis(
          job.sys.ctx, gbd::groebner_sequential(job.sys, gb).basis, gb.coeff);
    }
    gbd::ServerConfig cfg;
    cfg.workers = kWorkers;
    cfg.backend = gbd::ServeBackend::kSequential;
    cache_capacity_ = cfg.cache_capacity;
    base_gb_ = cfg.gb;
    server_ = std::make_unique<gbd::JobServer>(std::move(cfg));
    std::string err;
    if (!server_->start(&err) || !client_.connect("127.0.0.1", server_->port(), &err)) {
      report_failure("serve-mix: cannot start or reach the server: " + err);
      std::exit(1);
    }
  }

  PassResult pass(SpanLog& log) override {
    PassResult r;
    const bool traced = log.enabled();
    const gbd::CacheStats cache0 = server_->cache_stats();
    std::vector<double> submitted(kJobs, 0), latency(kJobs, -1);
    std::vector<std::size_t> answers(kJobs, 0);
    std::vector<gbd::JobResultMsg> results(kJobs);
    const std::uint64_t base = tokens_;
    tokens_ += kJobs;
    bool lost = false;

    const double t0 = now_s(), c0 = cpu_s();
    std::size_t next = 0, outstanding = 0, received = 0;
    while (received < kJobs && !lost) {
      while (next < kJobs && outstanding < kWindow) {
        const Job& job = jobs_[next];
        if (job.kind != Kind::kOriginal && answers[job.original] == 0) break;
        gbd::SubmitRequest req;
        req.token = base + next + 1;
        req.want_cert = true;
        req.problem = job.text;
        req.zp_prime = job.prime;
        submitted[next] = now_s();
        if (!client_.submit(req)) {
          lost = true;
          break;
        }
        ++next;
        ++outstanding;
      }
      gbd::ClientUpdate u;
      int got = lost ? -1 : client_.poll(&u, 1000);
      if (got < 0 || now_s() - t0 > kPassTimeoutS) {
        lost = true;
      } else if (got == 1 && u.kind == gbd::ClientUpdate::Kind::kResult) {
        const std::uint64_t i = u.result.token - base - 1;
        if (u.result.token <= base || i >= next) {
          report_failure("serve-mix: result for a token not sent in this pass");
          r.wrong = true;
          continue;
        }
        if (answers[i]++ == 0) {
          latency[i] = 1e3 * (now_s() - submitted[i]);
          results[i] = std::move(u.result);
          --outstanding;
          ++received;
        }
      }
    }
    r.wall_s = now_s() - t0;
    r.cpu_s = cpu_s() - c0;
    if (lost) report_failure("serve-mix: connection lost or pass timed out");

    for (std::size_t i = 0; i < kJobs; ++i) {
      ++r.attempted;
      if (answers[i] == 0) {
        ++r.failed;
        continue;
      }
      r.latencies_ms.push_back(latency[i]);
      if (traced)
        log.record(base + i + 1, "serve.job", submitted[i], submitted[i] + latency[i] / 1e3);
      const gbd::JobResultMsg& res = results[i];
      if (answers[i] > 1 || res.status != gbd::JobState::kDone || res.cert != 1) {
        if (answers[i] > 1) report_failure("serve-mix: token answered more than once");
        else report_failure("serve-mix: job " + std::to_string(i) + " " +
                            gbd::job_state_name(res.status) + ": " + res.error);
        ++r.failed;
        continue;
      }
      if (!check(i, res.basis)) {
        ++r.failed;
        r.wrong = true;
      } else if (jobs_[i].kind != Kind::kOriginal && !res.cache_hit) {
        report_failure("serve-mix: job " + std::to_string(i) + ", a variant of job " +
                       std::to_string(jobs_[i].original) + ", missed the cache");
        ++r.failed;
      }
    }
    if (passes_++ > 0)  // the warm-up pass is not timed
      latencies_.insert(latencies_.end(), r.latencies_ms.begin(), r.latencies_ms.end());

    if (traced) {
      const gbd::CacheStats cache1 = server_->cache_stats();
      r.layers["serve.cache_hit_ratio"] =
          ratio(static_cast<double>(cache1.hits - cache0.hits), kJobs);
      r.layers["serve.cache_evictions"] = static_cast<double>(cache1.evictions - cache0.evictions);
      r.layers["serve.daemon_us_per_job"] = 1e6 * r.wall_s / kJobs;
      double daemon_cov = log.covered(t0, t0 + r.wall_s) / r.wall_s;
      const double d0 = now_s();
      const KernelCounters k0 = KernelCounters::now();
      direct_pass(log, &r);
      const double d1 = now_s();
      KernelCounters::now().since(k0).add_to(&r.layers);
      r.layers["serve.direct_us_per_job"] = 1e6 * (d1 - d0) / kJobs;
      log.add_durations(&r.layers);
      r.coverage = std::min(daemon_cov, log.covered(d0, d1) / (d1 - d0));
    }
    return r;
  }

  void finish(Layers* layers) override {
    (*layers)["serve.latency_p99_ms"] = quantile(latencies_, 0.99);
  }

 private:
  void build_corpus() {
    gbd::Rng rng(seed_ ^ 0x5e4e3d2c1b0a9988ULL);
    // The originals: each system of a fixed pool of sparse systems once
    // exact and once mod a prime, and small named systems mod a fresh prime
    // each, so that each is a distinct cache key. The pool is fixed because
    // the cost of a seeded sparse system is heavy-tailed: with the systems
    // drawn from the seed, the certified work of a pass varied by about
    // ±10% between seeds. The seed picks the primes, the order, and the
    // variants.
    std::uint64_t p = (std::uint64_t{1} << 31) - rng.below(std::uint64_t{1} << 24);
    std::vector<Job> originals;
    auto add = [&](const std::string& name, std::uint64_t prime) {
      Job job;
      job.name = name;
      job.prime = prime;
      job.text = gbd::to_text(gbd::load_problem(name));
      originals.push_back(std::move(job));
    };
    // 4 * kJobs/8 sparse and kJobs/5 named: the 7 originals of every ten jobs.
    const std::uint64_t sparse_prime = p = gbd::prev_prime_u64(p - 1);
    for (std::size_t k = 1; k <= kJobs / 8; ++k)
      for (const char* n : {"4", "5"})
        for (std::uint64_t prime : {std::uint64_t{0}, sparse_prime})
          add("sparse(" + std::string(n) + "," + std::to_string(k) + ")", prime);
    const char* named[] = {"katsura(3)", "cyclic(4)", "eco(4)"};
    for (std::size_t k = 0; k < kJobs / 5; ++k) {
      p = gbd::prev_prime_u64(p - 1);
      add(named[k % std::size(named)], p);
    }
    for (std::size_t i = originals.size(); i > 1; --i)
      std::swap(originals[i - 1], originals[rng.below(i)]);

    // Of every ten jobs, the last three are variants of recent originals.
    std::size_t variants = 0, next_original = 0;
    for (std::size_t i = 0; i < kJobs; ++i) {
      Job job;
      std::vector<std::size_t> recent;
      for (std::size_t j = i > kMaxLag ? i - kMaxLag : 0; j < i; ++j)
        if (jobs_[j].kind == Kind::kOriginal) recent.push_back(j);
      if (i % 10 >= 7 && !recent.empty()) {
        job.original = recent[rng.below(recent.size())];
        const Job& orig = jobs_[job.original];
        job.prime = orig.prime;
        job.kind = static_cast<Kind>(1 + variants++ % 3);
        gbd::PolySystem v = job.kind == Kind::kRenamed     ? renamed(orig.sys, variants)
                            : job.kind == Kind::kReordered ? reordered(orig.sys, rng)
                                                           : rescaled(orig.sys, rng);
        job.text = gbd::to_text(v);
      } else {
        job = std::move(originals.at(next_original++));
      }
      std::string err;
      if (!gbd::parse_system(job.text, &job.sys, &err)) {
        report_failure("serve-mix: corpus text does not parse: " + err);
        std::exit(1);
      }
      jobs_.push_back(std::move(job));
    }
  }

  gbd::CoeffOptions coeff(const Job& job) const {
    return job.prime ? gbd::CoeffOptions::zp(job.prime) : gbd::CoeffOptions::exact();
  }

  bool check(std::size_t i, const std::vector<std::string>& result) {
    Job& job = jobs_[i];
    if (!job.checked.empty() && result == job.checked) return true;
    std::string why;
    std::vector<Polynomial> reduced;
    bool ok = check_served(job.sys, result, coeff(job), &reduced, &why);
    if (ok && job.kind == Kind::kOriginal) {
      Solve s;
      s.name = job.name;
      s.ctx = &job.sys.ctx;
      s.coeff = coeff(job);
      s.basis = reduced;
      s.certified = true;  // check_served re-certified it
      s.reference = &job.reference;
      ok = check_solve(s, &why);
    } else if (ok) {
      const Job& orig = jobs_[job.original];
      std::vector<std::size_t> identity(job.sys.ctx.nvars());
      std::iota(identity.begin(), identity.end(), 0);
      ok = !orig.checked.empty() &&
           check_renaming(job.sys.ctx, reduced, orig.reduced, identity, &why);
      if (orig.checked.empty()) why = "original was not checked";
    }
    if (!ok) {
      report_failure("serve-mix: job " + std::to_string(i) + ": " + why);
      return false;
    }
    job.checked = result;
    job.reduced = std::move(reduced);
    return true;
  }

  // The daemon's job path called in-process, job by job and in the same
  // order: parse, canonicalize, cache lookup, engine, certificate, cache
  // insert, render.
  void direct_pass(SpanLog& log, PassResult* r) {
    gbd::ResultCache cache(cache_capacity_);
    for (std::size_t i = 0; i < kJobs; ++i) {
      const Job& job = jobs_[i];
      const std::uint64_t op = ++direct_ops_;
      SpanLog::Scope root = log.scope(op, "serve.direct_job");
      gbd::PolySystem sys;
      {
        SpanLog::Scope sp = log.scope(op, "io.parse");
        std::string err;
        gbd::parse_system(job.text, &sys, &err);
      }
      gbd::CanonicalSystem canon;
      std::string key;
      {
        SpanLog::Scope sp = log.scope(op, "serve.canonicalize");
        canon = gbd::canonicalize(sys);
        key = gbd::ResultCache::make_key(canon.key, job.prime);
      }
      gbd::CacheEntry entry;
      bool hit;
      {
        SpanLog::Scope sp = log.scope(op, "serve.cache");
        hit = cache.lookup(key, true, &entry);
      }
      if (!hit) {
        gbd::GbConfig gb = base_gb_;
        gb.coeff = coeff(job);
        gbd::SequentialResult res;
        {
          SpanLog::Scope sp = log.scope(op, "gb.engine");
          res = gbd::groebner_sequential(canon.sys, gb);
        }
        bool ok;
        {
          SpanLog::Scope sp = log.scope(op, "gb.verify");
          ok = gbd::verify_groebner_result(canon.sys.ctx, canon.sys.polys, res.basis, nullptr,
                                           gb.coeff);
        }
        r->layers["gb.spolys"] += static_cast<double>(res.stats.spolys_computed);
        r->layers["gb.reductions_to_zero"] += static_cast<double>(res.stats.reductions_to_zero);
        r->layers["gb.reduction_steps"] += static_cast<double>(res.stats.reduction_steps);
        r->layers["gb.work_units"] += static_cast<double>(res.stats.work_units);
        entry.basis = std::move(res.basis);
        entry.verified = ok;
        SpanLog::Scope sp = log.scope(op, "serve.cache");
        cache.insert(key, entry);
      }
      std::vector<std::string> rendered;
      {
        SpanLog::Scope sp = log.scope(op, "serve.render");
        for (const Polynomial& p : entry.basis) rendered.push_back(p.to_string(sys.ctx));
      }
      // This pass copies the daemon's job path to time its layers; the
      // daemon's answers are checked on their own above. A disagreement
      // means the copy is out of date, not that the program is wrong.
      if (!job.checked.empty() && rendered != job.checked)
        report_failure("serve-mix: in-process job path renders job " + std::to_string(i) +
                       " differently from the daemon");
    }
  }

  std::uint64_t seed_;
  std::vector<Job> jobs_;
  std::unique_ptr<gbd::JobServer> server_;
  gbd::ServeClient client_;
  std::size_t cache_capacity_ = 0;
  gbd::GbConfig base_gb_;
  std::uint64_t tokens_ = 0;
  std::uint64_t direct_ops_ = 0;
  std::size_t passes_ = 0;
  std::vector<double> latencies_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mix(std::uint64_t seed) {
  return std::make_unique<ServeMix>(seed);
}

}  // namespace gbbench
