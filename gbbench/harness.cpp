#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>

#include "bigint/bigint.hpp"
#include "workload.hpp"

namespace gbbench {

namespace {

using Clock = std::chrono::steady_clock;

// Initialized before main() runs, so set-up time counts from process start.
const Clock::time_point g_start = Clock::now();

}  // namespace

double now_s() { return std::chrono::duration<double>(Clock::now() - g_start).count(); }

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[std::min(v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())))];
}

std::vector<std::size_t> shuffled(std::size_t n, gbd::Rng& rng) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  return order;
}

void check_solves(const char* workload, const std::vector<Solve>& solves, PassResult* r) {
  for (const Solve& s : solves) {
    std::string why;
    ++r->attempted;
    if (!check_solve(s, &why)) {
      ++r->failed;
      r->wrong = r->wrong || s.certified;
      report_failure(std::string(workload) + ": " + why);
    }
  }
}

void pin_to_next_cpu() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) out.push_back(c);
    return out;
  }();
  static std::size_t next = 0;
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[next++ % cpus.size()], &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) report_failure("could not pin to a CPU");
}

void report_failure(const std::string& what) {
  std::fprintf(stderr, "gbbench: %s\n", what.c_str());
}

SpanLog::Scope::Scope(SpanLog* log, std::uint64_t op, const char* name) : log_(log) {
  if (!log_->enabled_) return;
  Span s;
  s.op = op;
  s.name = name;
  s.parent = log_->open_.empty() ? -1 : log_->open_.back();
  index_ = static_cast<int>(log_->spans_.size());
  log_->open_.push_back(index_);
  s.start = now_s();
  log_->spans_.push_back(s);
}

SpanLog::Scope::~Scope() {
  if (index_ < 0) return;
  log_->spans_[static_cast<std::size_t>(index_)].end = now_s();
  log_->open_.pop_back();
}

void SpanLog::record(std::uint64_t op, const char* name, double start, double end) {
  if (!enabled_) return;
  Span s;
  s.op = op;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start = start;
  s.end = end;
  spans_.push_back(s);
}

double SpanLog::covered(double t0, double t1) const {
  std::vector<std::pair<double, double>> iv;
  for (std::size_t i = pass_begin_; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent < 0 || static_cast<std::size_t>(s.parent) < pass_begin_)
      iv.emplace_back(std::max(s.start, t0), std::min(s.end, t1));
  }
  std::sort(iv.begin(), iv.end());
  double total = 0, reach = t0;
  for (const auto& [a, b] : iv) {
    double lo = std::max(a, reach);
    if (b > lo) {
      total += b - lo;
      reach = b;
    }
  }
  return total;
}

void SpanLog::add_durations(Layers* layers) const {
  for (std::size_t i = pass_begin_; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    (*layers)[std::string(s.name) + "_ms"] += 1e3 * (s.end - s.start);
  }
}

void SpanLog::end_pass(std::size_t keep) {
  if (passes_kept_ < keep) {
    ++passes_kept_;
  } else {
    spans_.resize(pass_begin_);
  }
  pass_begin_ = spans_.size();
}

std::string SpanLog::to_json() const {
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%d}}",
                  i ? "," : "", s.name, static_cast<unsigned long long>(s.op), 1e6 * s.start,
                  1e6 * (s.end - s.start), i, s.parent);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

KernelCounters KernelCounters::now() {
  KernelCounters k;
  k.find_reducer = gbd::find_reducer_stats();
  k.geobucket = gbd::geobucket_stats();
  k.matrix = gbd::matrix_kernel_stats();
  k.heap_allocs = gbd::LimbVec::heap_allocs();
  return k;
}

KernelCounters KernelCounters::since(const KernelCounters& b) const {
  KernelCounters d;
  d.find_reducer.probes = find_reducer.probes - b.find_reducer.probes;
  d.find_reducer.mask_rejects = find_reducer.mask_rejects - b.find_reducer.mask_rejects;
  d.geobucket.axpys = geobucket.axpys - b.geobucket.axpys;
  d.matrix.work_rows = matrix.work_rows - b.matrix.work_rows;
  d.matrix.rows_zeroed = matrix.rows_zeroed - b.matrix.rows_zeroed;
  d.matrix.simd_rows = matrix.simd_rows - b.matrix.simd_rows;
  d.matrix.scalar_rows = matrix.scalar_rows - b.matrix.scalar_rows;
  d.matrix.sweep_ns = matrix.sweep_ns - b.matrix.sweep_ns;
  d.matrix.memo_hits = matrix.memo_hits - b.matrix.memo_hits;
  d.matrix.memo_misses = matrix.memo_misses - b.matrix.memo_misses;
  d.heap_allocs = heap_allocs - b.heap_allocs;
  return d;
}

void KernelCounters::add_to(Layers* layers) const {
  Layers& l = *layers;
  const auto& m = matrix;
  l["poly.matrix.sweep_ms"] += 1e-6 * static_cast<double>(m.sweep_ns);
  l["poly.matrix.work_rows"] += static_cast<double>(m.work_rows);
  l["poly.matrix.rows_zeroed"] += static_cast<double>(m.rows_zeroed);
  l["poly.matrix.memo_hits"] += static_cast<double>(m.memo_hits);
  l["poly.matrix.memo_lookups"] += static_cast<double>(m.memo_hits + m.memo_misses);
  l["poly.matrix.simd_rows"] += static_cast<double>(m.simd_rows);
  l["poly.matrix.swept_rows"] += static_cast<double>(m.simd_rows + m.scalar_rows);
  l["poly.reducer.mask_rejects"] += static_cast<double>(find_reducer.mask_rejects);
  l["poly.reducer.probes"] += static_cast<double>(find_reducer.probes);
  l["poly.geobucket.axpys"] += static_cast<double>(geobucket.axpys);
  l["bigint.heap_allocs"] += static_cast<double>(heap_allocs);
}

}  // namespace gbbench
