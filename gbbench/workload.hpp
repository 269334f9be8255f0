// The harness shared by the three workloads: clocks, the in-memory span log
// of the traced run, thread-local kernel counter deltas, and the per-pass
// record a workload hands back to main.cpp.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "poly/divmask.hpp"
#include "poly/geobucket.hpp"
#include "poly/symbolic.hpp"
#include "support/rng.hpp"

namespace gbbench {

/// Steady-clock seconds since the process started (static initialization).
double now_s();
/// User + system CPU seconds consumed so far by every thread of the process.
double cpu_s();

/// Per-layer values of one traced pass, by metric name.
using Layers = std::map<std::string, double>;

/// One span: a call from the benchmark into a layer. `op` is shared by the
/// spans of one solve or job; `parent` indexes the enclosing span (-1 for a
/// root). Times are now_s() seconds.
struct Span {
  std::uint64_t op = 0;
  const char* name = "";
  int parent = -1;
  double start = 0;
  double end = 0;
};

/// Spans of the traced run, kept in memory and written out when the run
/// ends. Only the benchmark's main thread records spans. A disabled log
/// records nothing and reads no clock.
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog* log, std::uint64_t op, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int index_ = -1;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Open a span that closes when the returned scope is destroyed.
  Scope scope(std::uint64_t op, const char* name) { return Scope(this, op, name); }
  /// Record a span whose ends were measured elsewhere (a served job, timed
  /// from its submit to its result).
  void record(std::uint64_t op, const char* name, double start, double end);

  /// Start a new pass: later queries see only spans recorded after this.
  void begin_pass() { pass_begin_ = spans_.size(); }
  /// Time in [t0, t1] covered by the union of this pass's root spans.
  double covered(double t0, double t1) const;
  /// Adds, for each span name of this pass, the summed duration in ms to
  /// layers["<name>_ms"].
  void add_durations(Layers* layers) const;
  /// Drop this pass's spans unless fewer than `keep` passes are retained.
  void end_pass(std::size_t keep);

  /// Chrome trace-event JSON of the retained spans (one track per op).
  std::string to_json() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::size_t pass_begin_ = 0;
  std::size_t passes_kept_ = 0;
};

/// The calling thread's kernel counters (poly/ and bigint/ thread-locals).
struct KernelCounters {
  gbd::FindReducerStats find_reducer;
  gbd::GeobucketStats geobucket;
  gbd::MatrixKernelStats matrix;
  std::uint64_t heap_allocs = 0;

  static KernelCounters now();
  /// this - base, for the fields add_to reads.
  KernelCounters since(const KernelCounters& base) const;
  /// Adds the poly.* and bigint.* per-layer metrics of these counts.
  void add_to(Layers* layers) const;
};

/// What a workload reports for one pass.
struct PassResult {
  double wall_s = 0;                 ///< timed section only
  double cpu_s = 0;                  ///< process CPU over the timed section
  std::vector<double> latencies_ms;  ///< one per solve or job
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< not carried to a certified, checked result
  bool wrong = false;        ///< a result the program certified failed a check
  Layers layers;             ///< traced passes only
  double coverage = 0;       ///< traced passes only: root-span share of wall_s
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the inputs and the references for the checks; start services.
  virtual void setup() = 0;
  /// One pass over the corpus. `log` is enabled on traced passes.
  virtual PassResult pass(SpanLog& log) = 0;
  /// Per-layer values that span the whole traced run, not one pass.
  virtual void finish(Layers* layers) { (void)layers; }
  /// True for a workload whose passes run on one CPU at a time: main.cpp
  /// then moves it to the next CPU before each untraced pass.
  virtual bool one_cpu() const { return false; }
};

/// Pins the calling thread, and so the threads it starts later, to the
/// next CPU of those the process could use when first called, in turn.
/// On a shared host each vCPU runs at its own speed for seconds to minutes
/// (in four runs started together on four CPUs, one ran its passes
/// 15-30% slower than the other three, and which one changed between
/// rounds), so a run that stays on one CPU measures that CPU. Taking the
/// passes of a run on every CPU in turn lets the median pass come from
/// the usual speed.
void pin_to_next_cpu();

std::unique_ptr<Workload> make_certify(std::uint64_t seed);
std::unique_ptr<Workload> make_paper_glp(std::uint64_t seed);
std::unique_ptr<Workload> make_serve_mix(std::uint64_t seed);

/// 0, 1, ..., n-1 in an order drawn from `rng`.
std::vector<std::size_t> shuffled(std::size_t n, gbd::Rng& rng);

/// Runs check_solve on each solve of a pass and counts it in r.
void check_solves(const char* workload, const std::vector<Solve>& solves, PassResult* r);

/// Prints a failure to stderr (the stdout's last line is the result).
void report_failure(const std::string& what);

/// The ratio num/den, 0 when den is 0.
double ratio(double num, double den);
/// Median of v (mean of the middle two for an even count), 0 when empty.
double median(std::vector<double> v);
/// The q-quantile of v by nearest rank, 0 when empty.
double quantile(std::vector<double> v, double q);

}  // namespace gbbench
