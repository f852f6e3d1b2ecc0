#ifndef SDW_OBS_QUERY_LOG_H_
#define SDW_OBS_QUERY_LOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/record_log.h"
#include "obs/trace.h"

namespace sdw::obs {

/// One finished query as recorded in stl_query. Ticks come from the
/// owning warehouse's virtual clock (starts at 0 per warehouse), so two
/// warehouses running the same workload log identical histories.
struct QueryRecord {
  int query_id = 0;
  std::string sql_text;
  std::string status;  // "success" | "error"
  uint64_t start_tick = 0;
  uint64_t end_tick = 0;
  uint64_t result_rows = 0;
  /// Measured admission wait vs execution time (the stl_query timing
  /// split). Real seconds, not virtual ticks — they never feed the
  /// deterministic byte-identity comparisons.
  double queue_seconds = 0;
  double exec_seconds = 0;
  /// The MVCC snapshot the query read: "table@version ..." for every
  /// pinned table, empty for non-SELECT statements and cache hits that
  /// never pinned one.
  std::string snapshot;
  SpanCounters counters;
  std::shared_ptr<Trace> trace;  // null when tracing was disabled

  uint64_t elapsed() const { return end_tick - start_tick; }
};

/// Per-warehouse history of executed queries plus the warehouse's
/// virtual clock. Thread-safe: a warehouse may serve concurrent
/// Execute() calls. The records live in a RecordLog; this class owns
/// only what is particular to stl_query — the clock, query-id
/// reservation at start, and trace virtual-time assignment at finish.
class QueryLog {
 public:
  /// Reserves a query id and the query's start tick.
  struct Started {
    int query_id;
    uint64_t start_tick;
  };
  Started StartQuery() SDW_EXCLUDES(mu_);

  /// Records a finished query: assigns virtual times to its trace
  /// (if any), advances the warehouse clock past the query's end, and
  /// appends the record. Returns the query's end tick (callers stamp
  /// follow-on records like alerts with it).
  uint64_t FinishQuery(QueryRecord record) SDW_EXCLUDES(mu_);

  std::vector<QueryRecord> Snapshot() const { return records_.Snapshot(); }
  uint64_t now() const SDW_EXCLUDES(mu_);

 private:
  mutable common::Mutex mu_{common::LockRank::kObsLog};
  int next_query_id_ SDW_GUARDED_BY(mu_) = 1;
  uint64_t clock_ SDW_GUARDED_BY(mu_) = 0;
  RecordLog<QueryRecord> records_;
};

/// One health/control-plane event as recorded in stl_health_events.
/// The event's tick is its position in the history (`event_id - 1`).
struct HealthEvent {
  int event_id = 0;
  std::string source;  // "host_manager" | "control_plane" | "sweep"
  std::string kind;    // "restart" | "replace" | "rereplicate" | ...
  int node = -1;
  double value = 0;
  std::string detail;
};

/// Append-only event history, shared by the warehouse's health sweep
/// and the control plane.
using EventLog = RecordLog<HealthEvent, &HealthEvent::event_id>;

}  // namespace sdw::obs

#endif  // SDW_OBS_QUERY_LOG_H_
