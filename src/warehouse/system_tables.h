#ifndef SDW_WAREHOUSE_SYSTEM_TABLES_H_
#define SDW_WAREHOUSE_SYSTEM_TABLES_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/executor.h"
#include "cluster/wlm.h"
#include "common/result.h"
#include "exec/batch.h"
#include "obs/alerts.h"
#include "obs/profiler.h"
#include "obs/query_log.h"
#include "plan/logical.h"
#include "plan/physical.h"
#include "warehouse/query_cache.h"

namespace sdw::warehouse {

/// True when `name` is one of the Redshift-style observability system
/// tables declared in system_tables.cc's registry (the stl_/stv_
/// catalog in DESIGN.md).
bool IsSystemTable(const std::string& name);

struct SystemQueryResult {
  exec::Batch rows;
  std::vector<std::string> column_names;
};

/// Everything a system-table SELECT may materialize from. The caller
/// (the warehouse) fills in every pointer to its live components plus
/// a consistent copy of the table-version counters (used by stv_cache
/// to mark entries live vs stale).
struct SystemTableSources {
  const obs::QueryLog* query_log = nullptr;
  const obs::EventLog* event_log = nullptr;
  cluster::Cluster* cluster = nullptr;
  const cluster::AdmissionController* wlm = nullptr;
  SegmentCache* segment_cache = nullptr;
  ResultCache* result_cache = nullptr;
  const obs::ScanLog* scan_log = nullptr;
  const obs::InflightRegistry* inflight = nullptr;
  const obs::GaugeHistory* gauges = nullptr;
  const obs::AlertLog* alerts = nullptr;
  std::map<std::string, uint64_t> table_versions;
};

/// Executes a single-table SELECT whose FROM is a system table. The
/// table is materialized from the warehouse's query/event logs, the
/// cluster's block chains, the global metrics registry, the admission
/// controller's history (stl_wlm), or the plan/result caches
/// (stv_cache), then the query runs through the ordinary planner and
/// leader operators (filter, aggregate, project, sort, limit) — system
/// tables are just tables. Joins are not supported.
Result<SystemQueryResult> ExecuteSystemQuery(const plan::LogicalQuery& query,
                                             const SystemTableSources& sources);

/// Renders the physical plan annotated with counters from the recorded
/// trace (EXPLAIN ANALYZE). `trace` may be null (tracing disabled); the
/// annotation then falls back to ExecStats totals only. Scan lines are
/// further annotated with per-scan zone-map accounting (blocks read vs
/// skipped) when the result carries ScanProfiles, and any performance
/// alerts the query fired are appended at the end.
std::string RenderExplainAnalyze(const plan::PhysicalQuery& query,
                                 const cluster::QueryResult& result,
                                 const std::vector<obs::AlertEvent>& alerts = {});

}  // namespace sdw::warehouse

#endif  // SDW_WAREHOUSE_SYSTEM_TABLES_H_
