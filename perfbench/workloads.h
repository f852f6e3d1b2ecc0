// The three benchmark workloads and what one measured phase of a
// workload records.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

// What the client threads of one phase saw, merged after they joined.
// Latencies are in milliseconds; open-loop requests are timed from when
// they were due, closed-loop requests from when they were sent.
struct Recorder {
  std::vector<double> select_ms;
  std::vector<double> system_ms;
  std::vector<double> copy_ms;
  // How late each scheduled send left (open-loop requests, COPYs and
  // operator polls).
  std::vector<double> lateness_ms;
  // Every user SELECT, in the order its thread completed it.
  std::vector<StmtSample> selects;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t copies = 0;
  uint64_t copy_rows = 0;

  void Merge(Recorder&& other);
};

// One measured phase: a fresh warehouse, one run of the workload loop.
struct Phase {
  bool traced = false;
  int client_threads = 0;
  double window_s = 0;  // loop start to last completion
  Recorder rec;
  Counters before;
  Counters after;
  double rss_start_bytes = 0;
  double rss_end_bytes = 0;
  uint64_t query_log_records = 0;
  std::vector<std::unique_ptr<SpanBuffer>> spans;
  std::vector<const SpanBuffer*> span_views() const;
};

// Printed as [SHAPE-OK] / [SHAPE-FAIL]: each workload must load the
// layers it was chosen for.
struct ShapeCheck {
  std::string what;
  bool ok = false;
};

// Inputs the per-layer probes run against after the traced phase.
struct ProbeSpec {
  std::string table;
  std::vector<int> columns;  // schema indices read by the probes
  int filter_column = 0;     // index into `columns`
  int64_t filter_below = 0;  // filter keeps values < this
  int group_column = 0;      // index into `columns`
  int sum_column = 0;        // index into `columns`
  std::string csv_batch;     // one COPY batch, for load::ParseCsv
  std::string copy_sql;      // a COPY statement, for the commit log
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual int setup_reps() const = 0;
  // Generates the inputs and the expected answers from the seed.
  virtual void Prepare(uint64_t seed) = 0;
  virtual std::vector<TableLoad> BaseTables() const = 0;
  // Untimed work on the fresh warehouse before the phase's counters are
  // read (the dashboard answers each template once, cold).
  virtual void WarmUp(sdw::warehouse::Warehouse* wh, CheckLog* checks) {}
  // Runs the loop for `seconds` on a freshly set-up warehouse, then checks
  // every answer it collected.
  virtual void Run(sdw::warehouse::Warehouse* wh, double seconds,
                   Phase* phase, CheckLog* checks) = 0;
  virtual std::vector<ShapeCheck> Shape(const Phase& phase) const = 0;
  virtual ProbeSpec Probe() const = 0;
};

// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);
const std::vector<std::string>& WorkloadNames();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
