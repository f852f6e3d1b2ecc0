// Per-layer probes of the traced run: each times one layer's public entry
// point directly, on the workload's own table, after the traced phase.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>

#include "workloads.h"

namespace perfbench {

struct LayerProbes {
  double readrange_ns_per_row = 0;  // storage::TableShard::ReadRange
  double scan_scaling_2t = 0;       // 2-thread / 1-thread ReadRange rows/s
  double decode_ns_per_row = 0;     // compress::DecodeColumn
  double filter_ns_per_row = 0;     // exec::Filter
  double agg_ns_per_row = 0;        // exec::HashAggregate (partial)
  double parse_ns_per_row = 0;      // load::ParseCsv
  double analyze_ms = 0;            // cluster::Cluster::Analyze
  double log_append_ms = 0;         // durability::CommitLog::Append
  // Decode-cache capacity of one shard, measured; a value equal to
  // decode_cache_probed_blocks is only a lower bound.
  uint64_t decode_cache_blocks = 0;
  uint64_t decode_cache_probed_blocks = 0;
};

// Returns false and fills *error if a probed call fails.
bool ProbeLayers(sdw::warehouse::Warehouse* wh, const ProbeSpec& spec,
                 LayerProbes* out, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
