// gbbench — one workload of the end-to-end benchmark per invocation.
//
//   gbbench --workload certify|paper-glp|serve-mix --seed N --seconds S
//           --trace 0|1 [--trace-out FILE]
//
// Set-up builds the workload's inputs and check references from the seed,
// starts what the workload needs, and runs one untimed, checked warm-up
// pass. The run then repeats whole passes over the corpus until `seconds`
// have elapsed and reports medians over the passes. With --trace 1 each
// untraced pass is followed by a traced one: the traced passes give the
// per-layer metrics, the untraced ones the tracing overhead. The last line
// of stdout is the JSON result; diagnostics go to stderr.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "workload.hpp"

namespace gbbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// Must list exactly the metrics of BENCHMARK.json.
const Metric kEndToEnd[] = {
    {"setup_s", "s"}, {"wall_s", "s"}, {"cpu_s", "s"}, {"latency_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

const Metric kPerLayer[] = {
    {"io.parse_ms", "ms"},
    {"serve.canonicalize_ms", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.cache_evictions", "count"},
    {"serve.direct_us_per_job", "us"},
    {"serve.daemon_us_per_job", "us"},
    {"serve.latency_p99_ms", "ms"},
    {"gb.engine_ms", "ms"},
    {"gb.verify_ms", "ms"},
    {"gb.reduce_basis_ms", "ms"},
    {"gb.spolys", "count"},
    {"gb.reduction_steps", "count"},
    {"gb.work_units", "units"},
    {"gb.zero_ratio", "ratio"},
    {"gb.modular.lift_ms", "ms"},
    {"gb.modular.primes_used", "count"},
    {"gb.lock_wait_units", "units"},
    {"poly.matrix.sweep_ms", "ms"},
    {"poly.matrix.rows_zeroed_ratio", "ratio"},
    {"poly.matrix.memo_hit_ratio", "ratio"},
    {"poly.matrix.simd_row_ratio", "ratio"},
    {"poly.reducer.mask_reject_ratio", "ratio"},
    {"poly.geobucket.axpys", "count"},
    {"bigint.heap_allocs", "count"},
    {"machine.virtual_makespan", "units"},
    {"machine.messages", "count"},
    {"machine.bytes", "bytes"},
    {"machine.reduce_pct", "%"},
    {"machine.comm_pct", "%"},
    {"machine.hold_pct", "%"},
    {"machine.idle_pct", "%"},
    {"machine.load_imbalance", "ratio"},
    {"basis.polys_transferred", "count"},
    {"basis.peak_resident_bodies", "count"},
    {"taskq.steals_sent", "count"},
    {"taskq.steals_won", "count"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.span_coverage_pct", "%"},
};

// Ratios are formed from the pass's summed counts, after the medians.
void derive_ratios(Layers* layers) {
  Layers& l = *layers;
  l["gb.zero_ratio"] = ratio(l["gb.reductions_to_zero"], l["gb.spolys"]);
  l["poly.matrix.rows_zeroed_ratio"] =
      ratio(l["poly.matrix.rows_zeroed"], l["poly.matrix.work_rows"]);
  l["poly.matrix.memo_hit_ratio"] =
      ratio(l["poly.matrix.memo_hits"], l["poly.matrix.memo_lookups"]);
  l["poly.matrix.simd_row_ratio"] =
      ratio(l["poly.matrix.simd_rows"], l["poly.matrix.swept_rows"]);
  l["poly.reducer.mask_reject_ratio"] =
      ratio(l["poly.reducer.mask_rejects"], l["poly.reducer.probes"]);
  double proc_time = l["machine.proc_time_units"];
  l["machine.reduce_pct"] = 100 * ratio(l["machine.reduce_units"], proc_time);
  l["machine.comm_pct"] = 100 * ratio(l["machine.comm_units"], proc_time);
  l["machine.hold_pct"] = 100 * ratio(l["machine.hold_units"], proc_time);
  l["machine.idle_pct"] = 100 * ratio(l["machine.idle_units"], proc_time);
  l["machine.load_imbalance"] = ratio(l["machine.busy_max_units"], l["machine.busy_mean_units"]);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<std::pair<const Metric*, double>>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[160];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                  metrics[i].first->name, metrics[i].second, metrics[i].first->unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// The resident-set high-water mark of this process image. ru_maxrss would
// also count the image that exec'd this one (a Python launcher), since
// Linux keeps it across execve; VmHWM starts afresh with the new image.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: gbbench --workload certify|paper-glp|serve-mix --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n");
  return 2;
}

int run(int argc, char** argv) {
  std::string workload, trace_out;
  std::uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") workload = val;
    else if (flag == "--seed") seed = std::strtoull(val, nullptr, 10);
    else if (flag == "--seconds") seconds = std::strtod(val, nullptr);
    else if (flag == "--trace") trace = std::atoi(val);
    else if (flag == "--trace-out") trace_out = val;
    else return usage();
  }
  if (argc % 2 != 1 || seconds <= 0 || (trace != 0 && trace != 1)) return usage();

  std::unique_ptr<Workload> wl;
  if (workload == "certify") wl = make_certify(seed);
  else if (workload == "paper-glp") wl = make_paper_glp(seed);
  else if (workload == "serve-mix") wl = make_serve_mix(seed);
  else return usage();

  wl->setup();
  SpanLog off(false);
  SpanLog on(trace == 1);
  if (wl->one_cpu()) pin_to_next_cpu();
  std::vector<PassResult> warmup{wl->pass(off)};  // checked, not timed
  const double setup_s = now_s();

  std::vector<PassResult> untraced, traced;
  const double t0 = now_s();
  do {
    // A traced pass runs on the CPU of the untraced pass before it.
    if (wl->one_cpu()) pin_to_next_cpu();
    untraced.push_back(wl->pass(off));
    if (trace == 1) {
      on.begin_pass();
      traced.push_back(wl->pass(on));
      on.end_pass(5);
    }
  } while (now_s() - t0 < seconds);

  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  for (const auto* set : {&warmup, &untraced, &traced}) {
    for (const PassResult& p : *set) {
      attempted += p.attempted;
      failed += p.failed;
      correct = correct && !p.wrong;
    }
  }

  std::vector<std::pair<const Metric*, double>> out;
  if (trace == 0) {
    std::vector<double> wall, cpu, lat;
    for (const PassResult& p : untraced) {
      wall.push_back(p.wall_s);
      cpu.push_back(p.cpu_s);
      lat.insert(lat.end(), p.latencies_ms.begin(), p.latencies_ms.end());
    }
    const double values[] = {setup_s, median(wall), median(cpu), median(lat), peak_rss_mb()};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i)
      out.emplace_back(&kEndToEnd[i], values[i]);
  } else {
    std::vector<double> wall_u, wall_t, cov;
    std::map<std::string, std::vector<double>> by_name;
    for (const PassResult& p : untraced) wall_u.push_back(p.wall_s);
    for (const PassResult& p : traced) {
      wall_t.push_back(p.wall_s);
      cov.push_back(p.coverage);
      for (const auto& [k, v] : p.layers) by_name[k].push_back(v);
    }
    Layers layers;
    for (auto& [k, v] : by_name) layers[k] = median(std::move(v));
    derive_ratios(&layers);
    wl->finish(&layers);
    layers["obs.trace_overhead_pct"] = 100 * (median(wall_t) / median(wall_u) - 1);
    layers["obs.span_coverage_pct"] = 100 * median(cov);
    for (const Metric& m : kPerLayer) out.emplace_back(&m, layers[m.name]);
    if (!trace_out.empty()) {
      std::ofstream f(trace_out);
      f << on.to_json();
      if (!f) report_failure("could not write " + trace_out);
    }
  }
  std::fprintf(stderr,
               "gbbench: %s seed %llu: %zu untraced + %zu traced passes, %llu/%llu failed\n",
               workload.c_str(), static_cast<unsigned long long>(seed), untraced.size(),
               traced.size(), static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(attempted));
  std::fprintf(stderr, "gbbench: untraced pass walls (s):");
  for (const PassResult& p : untraced) std::fprintf(stderr, " %.4f", p.wall_s);
  std::fprintf(stderr, "\n");
  print_result(correct, attempted, failed, out);
  return 0;
}

}  // namespace
}  // namespace gbbench

int main(int argc, char** argv) { return gbbench::run(argc, argv); }
