// The repository benchmark. Runs one named workload from a seed through
// the public Warehouse::Execute front door, checks every answer, and
// prints each metric by name with its unit. The last line of standard
// output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// second, traced run (--trace 1). See BENCHMARK.json for the workloads
// and what each metric should move.
//
// Usage: perfbench --workload <dashboard|scan_agg|ingest_mixed> --seed <n>
//                  --seconds <s> --trace <0|1> [--out <dir>]
// Exit status is nonzero when an output check or a workload-shape check
// fails.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && !args->workload.empty() &&
         args->seconds > 0 && args->seconds <= 600;
}

// One metric of the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

void RunPhase(Workload* workload, sdw::warehouse::Warehouse* wh,
              double seconds, bool traced, Phase* phase, CheckLog* checks) {
  phase->traced = traced;
  workload->WarmUp(wh, checks);
  phase->rss_start_bytes = CurrentRssBytes();
  phase->before = SnapshotCounters();
  workload->Run(wh, seconds, phase, checks);
  phase->after = SnapshotCounters();
  phase->rss_end_bytes = CurrentRssBytes();
  phase->query_log_records = wh->query_log()->Snapshot().size();
}

uint64_t SelectsOk(const Phase& phase) {
  uint64_t n = 0;
  for (const StmtSample& s : phase.rec.selects) n += s.ok ? 1 : 0;
  return n;
}

// The user-visible metrics of one untraced phase, shared by both modes.
struct EndToEnd {
  double select_p50_ms, select_p90_ms, select_p99_ms, select_qps;
  double systable_p50_ms;
  double copy_p50_ms, copy_p90_ms, ingest_rows_per_s;
  double lateness_p99_ms;
};

EndToEnd Summarize(const Phase& p) {
  EndToEnd e;
  e.select_p50_ms = Percentile(p.rec.select_ms, 0.50);
  e.select_p90_ms = Percentile(p.rec.select_ms, 0.90);
  e.select_p99_ms = Percentile(p.rec.select_ms, 0.99);
  e.select_qps = SelectsOk(p) / p.window_s;
  e.systable_p50_ms = Percentile(p.rec.system_ms, 0.50);
  e.copy_p50_ms = Percentile(p.rec.copy_ms, 0.50);
  e.copy_p90_ms = Percentile(p.rec.copy_ms, 0.90);
  e.ingest_rows_per_s = p.rec.copy_rows / p.window_s;
  e.lateness_p99_ms = Percentile(p.rec.lateness_ms, 0.99);
  return e;
}

void Report(std::ostringstream* out, const char* label, const Phase& p) {
  const EndToEnd e = Summarize(p);
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%s phase: %d client threads, window %.3f s\n"
                "  select    n=%zu  p50 %.4f ms  p90 %.4f ms  p99 %.4f ms%s  "
                "%.1f q/s\n"
                "  systable  n=%zu  p50 %.4f ms\n",
                label, p.client_threads, p.window_s, p.rec.select_ms.size(),
                e.select_p50_ms, e.select_p90_ms, e.select_p99_ms,
                p.rec.select_ms.size() < 1000 ? " (under 1000 samples)" : "",
                e.select_qps, p.rec.system_ms.size(), e.systable_p50_ms);
  *out << buf;
  if (!p.rec.copy_ms.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "  copy      n=%zu  p50 %.3f ms  p90 %.3f ms  %.0f rows/s "
                  "(%llu rows acked)\n",
                  p.rec.copy_ms.size(), e.copy_p50_ms, e.copy_p90_ms,
                  e.ingest_rows_per_s,
                  static_cast<unsigned long long>(p.rec.copy_rows));
    *out << buf;
  }
  std::vector<double> execute_ms;
  for (const StmtSample& s : p.rec.selects) execute_ms.push_back(s.seconds * 1e3);
  std::snprintf(buf, sizeof(buf), "  execute   p50 %.4f ms (Warehouse::Execute alone)\n",
                Median(execute_ms));
  *out << buf;
  std::snprintf(buf, sizeof(buf),
                "  schedule  n=%zu  lateness p99 %.4f ms\n"
                "  errors    %llu failed of %llu attempted\n",
                p.rec.lateness_ms.size(), e.lateness_p99_ms,
                static_cast<unsigned long long>(p.rec.failed),
                static_cast<unsigned long long>(p.rec.attempted));
  *out << buf;
}

// Per-layer metrics of the traced run, each with the base its ratio uses.
std::vector<Metric> LayerMetrics(const Phase& plain, const Phase& traced,
                                 const LayerProbes& probes,
                                 double admit_wait_p99_ms,
                                 std::ostringstream* out) {
  std::vector<double> parse_us, plan_us, overhead_us, slice_ms, leader_ms;
  double execute_us = 0, unattributed_us = 0, skew_sum = 0, network = 0,
         blocks = 0;
  uint64_t executed = 0;
  for (const StmtSample& s : traced.rec.selects) {
    if (!s.ok) continue;
    parse_us.push_back(s.parse_us);
    plan_us.push_back(s.plan_us);
    overhead_us.push_back(s.overhead_us);
    execute_us += s.execute_us;
    unattributed_us += s.overhead_us;
    blocks += static_cast<double>(s.exec.blocks_decoded);
    if (s.from_result_cache || s.exec.slice_seconds.empty()) continue;
    ++executed;
    slice_ms.push_back(s.exec.MaxSliceSeconds() * 1e3);
    leader_ms.push_back(s.exec.leader_seconds * 1e3);
    const double mean =
        s.exec.TotalSliceSeconds() / static_cast<double>(s.exec.slice_seconds.size());
    skew_sum += Ratio(s.exec.MaxSliceSeconds(), mean);
    network += static_cast<double>(s.exec.network_bytes);
  }
  const double selects = static_cast<double>(SelectsOk(traced));
  const double copies = static_cast<double>(traced.rec.copies);
  auto delta = [&](const char* name) {
    return Delta(traced.before, traced.after, name);
  };
  const double result_hits = delta("sdw_cache_result_hits");
  const double result_lookups = result_hits + delta("sdw_cache_result_misses");
  const double segment_hits = delta("sdw_cache_segment_hits");
  const double segment_lookups = segment_hits + delta("sdw_cache_segment_misses");
  const EndToEnd e = Summarize(plain);
  const EndToEnd t = Summarize(traced);
  const double statements = static_cast<double>(plain.rec.attempted);

  std::vector<Metric> m = {
      {"sql.parse_us", Median(parse_us), "us"},
      {"plan.plan_us", Median(plan_us), "us"},
      {"warehouse.execute_overhead_us", Median(overhead_us), "us"},
      {"warehouse.execute_unattributed_frac", Ratio(unattributed_us, execute_us),
       "ratio"},
      {"warehouse.result_cache_hit_ratio", Ratio(result_hits, result_lookups),
       "ratio"},
      {"warehouse.result_cache_evictions", delta("sdw_cache_result_evictions"),
       "count"},
      {"warehouse.segment_cache_hit_ratio", Ratio(segment_hits, segment_lookups),
       "ratio"},
      {"cluster.admit_wait_p99_ms", admit_wait_p99_ms, "ms"},
      {"cluster.wlm_timeouts", delta("sdw_wlm_timeouts"), "count"},
      {"cluster.slice_ms", Median(slice_ms), "ms"},
      {"cluster.slice_skew", Ratio(skew_sum, static_cast<double>(executed)),
       "ratio"},
      {"cluster.leader_ms", Median(leader_ms), "ms"},
      {"cluster.network_bytes_per_query",
       Ratio(network, static_cast<double>(executed)), "bytes"},
      {"cluster.mvcc_versions_per_copy",
       Ratio(delta("sdw_mvcc_versions_installed"), copies), "count"},
      {"storage.readrange_ns_per_row", probes.readrange_ns_per_row, "ns/row"},
      {"storage.scan_scaling_2t", probes.scan_scaling_2t, "ratio"},
      {"storage.blocks_decoded_per_query", Ratio(blocks, selects), "count"},
      {"storage.block_read_bytes_per_query",
       Ratio(delta("sdw_storage_block_read_bytes"), selects), "bytes"},
      {"compress.decode_ns_per_row", probes.decode_ns_per_row, "ns/row"},
      {"exec.filter_ns_per_row", probes.filter_ns_per_row, "ns/row"},
      {"exec.agg_ns_per_row", probes.agg_ns_per_row, "ns/row"},
      {"load.parse_ns_per_row", probes.parse_ns_per_row, "ns/row"},
      {"load.analyze_ms", probes.analyze_ms, "ms"},
      {"durability.log_append_ms", probes.log_append_ms, "ms"},
      {"durability.log_bytes_per_copy",
       Ratio(delta("sdw_durability_log_bytes"), copies), "bytes"},
      {"obs.query_log_records", static_cast<double>(traced.query_log_records),
       "count"},
      {"obs.rss_bytes_per_statement",
       Ratio(plain.rss_end_bytes - plain.rss_start_bytes, statements), "bytes"},
      {"driver.lateness_p99_ms", e.lateness_p99_ms, "ms"},
      {"trace.overhead_frac", Ratio(t.select_p50_ms, e.select_p50_ms) - 1,
       "ratio"},
      {"systable_p50_ms", e.systable_p50_ms, "ms"},
      {"select_p90_ms", e.select_p90_ms, "ms"},
      {"select_p99_ms", e.select_p99_ms, "ms"},
      {"copy_p50_ms", e.copy_p50_ms, "ms"},
      {"copy_p90_ms", e.copy_p90_ms, "ms"},
      {"ingest_rows_per_s", e.ingest_rows_per_s, "rows/s"},
      {"error_frac",
       Ratio(static_cast<double>(plain.rec.failed + traced.rec.failed),
             static_cast<double>(plain.rec.attempted + traced.rec.attempted)),
       "ratio"},
  };

  char buf[256];
  *out << "bases: traced SELECTs " << selects << " (" << executed
       << " executed on slices), result-cache lookups " << result_lookups
       << ", segment-cache lookups " << segment_lookups << ", COPYs " << copies
       << ", untraced statements " << statements << ", untraced SELECTs "
       << plain.rec.select_ms.size() << "\n";
  *out << "layer self time (traced spans; us per span):\n";
  for (const auto& [name, time] : LayerTimes(traced.span_views())) {
    std::snprintf(buf, sizeof(buf), "  %-22s n=%-7llu total %10.2f  self %10.2f\n",
                  name.c_str(), static_cast<unsigned long long>(time.count),
                  Ratio(time.total_us, time.count), Ratio(time.self_us, time.count));
    *out << buf;
  }
  return m;
}

// cluster.admit_wait_p99_ms: queued_seconds of every admitted statement
// in stl_wlm, read through Execute after the run.
double AdmitWaitP99Ms(sdw::warehouse::Warehouse* wh, CheckLog* checks) {
  auto result = wh->Execute("SELECT state, queued_seconds FROM stl_wlm");
  if (!result.ok()) {
    checks->Fail("reading stl_wlm: " + result.status().ToString());
    return 0;
  }
  std::vector<double> waits;
  const auto& rows = result->rows;
  for (size_t i = 0; i < rows.num_rows(); ++i) {
    if (rows.columns[0].StringAt(i) == "result_cache") continue;
    waits.push_back(rows.columns[1].DoubleAt(i) * 1e3);
  }
  return Percentile(waits, 0.99);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out <dir>]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const IdleSpinners spinners;
  std::ostringstream report;
  report << "perfbench workload=" << args.workload << " seed=" << args.seed
         << " seconds=" << args.seconds << " trace=" << args.trace
         << " nproc=" << HardwareThreads() << "\n";
  workload->Prepare(args.seed);

  // Set up several times and report the median; the last warehouse is
  // the one measured. The traced run sets up as often, so both of its
  // phases start from the same allocator state as an untraced run.
  const int reps = workload->setup_reps();
  std::vector<double> setup_s;
  std::unique_ptr<sdw::warehouse::Warehouse> wh;
  std::string error;
  auto set_up = [&]() -> bool {
    wh.reset();
    const Clock::time_point start = Clock::now();
    wh = SetUp(workload->BaseTables(), &error);
    setup_s.push_back(SecondsBetween(start, Clock::now()));
    return wh != nullptr;
  };
  for (int r = 0; r < reps; ++r) {
    if (!set_up()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
  }
  report << "setup_s  median " << Median(setup_s) << " s over " << setup_s.size()
         << " set-ups:";
  for (double s : setup_s) report << " " << s;
  report << "\n";

  CheckLog checks;
  Phase plain;
  RunPhase(workload.get(), wh.get(), args.seconds, false, &plain, &checks);
  Report(&report, "untraced", plain);
  std::vector<ShapeCheck> shape = workload->Shape(plain);

  std::vector<Metric> metrics;
  uint64_t attempted = plain.rec.attempted;
  uint64_t failed = plain.rec.failed;
  if (!args.trace) {
    const EndToEnd e = Summarize(plain);
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"select_p50_ms", e.select_p50_ms, "ms"},
        {"select_qps", e.select_qps, "1/s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    // A fresh warehouse for the traced run, so both runs start alike.
    if (!set_up()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    Phase traced;
    RunPhase(workload.get(), wh.get(), args.seconds, true, &traced, &checks);
    Report(&report, "traced", traced);
    const double admit_wait = AdmitWaitP99Ms(wh.get(), &checks);
    LayerProbes probes;
    if (!ProbeLayers(wh.get(), workload->Probe(), &probes, &error)) {
      checks.Fail("layer probe: " + error);
    }
    metrics = LayerMetrics(plain, traced, probes, admit_wait, &report);
    const sdw::warehouse::CacheConfig caches;
    report << "caches: result " << caches.result_cache_entries
           << " entries, segment " << caches.segment_cache_entries
           << " entries (defaults); decode cache measured at "
           << probes.decode_cache_blocks << " blocks per shard"
           << (probes.decode_cache_blocks == probes.decode_cache_probed_blocks
                   ? " (lower bound: the table has no more blocks)"
                   : "")
           << "\n";
    if (args.workload == "ingest_mixed") {
      shape.push_back({"load.analyze_ms " + Num(probes.analyze_ms) + " > 0",
                       probes.analyze_ms > 0});
    }
    attempted += traced.rec.attempted;
    failed += traced.rec.failed;
    const std::string spans_path = args.out + "/spans-" + args.workload +
                                   "-seed" + std::to_string(args.seed) + ".tsv";
    std::filesystem::create_directories(args.out);
    if (!WriteSpans(spans_path, traced.span_views())) {
      checks.Fail("could not write " + spans_path);
    }
    report << "spans written to " << spans_path << "\n";
  }

  bool shape_ok = true;
  for (const ShapeCheck& s : shape) {
    report << (s.ok ? "[SHAPE-OK] " : "[SHAPE-FAIL] ") << s.what << "\n";
    shape_ok = shape_ok && s.ok;
  }
  for (const std::string& f : checks.failures()) report << "[CHECK-FAIL] " << f << "\n";
  report << (checks.ok() ? "[CHECK-OK] every answer matched\n" : "");
  for (const Metric& m : metrics) {
    report << "  " << m.name << " = " << Num(m.value) << " " << m.unit << "\n";
  }
  std::filesystem::create_directories(args.out);
  std::ofstream(args.out + "/report-" + args.workload + "-seed" +
                std::to_string(args.seed) + "-trace" +
                std::to_string(args.trace) + ".txt")
      << report.str();
  std::fputs(report.str().c_str(), stdout);
  std::printf("%s\n", ResultLine(checks.ok(), attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return checks.ok() && shape_ok && attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
