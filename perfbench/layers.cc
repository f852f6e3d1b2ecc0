#include "layers.h"

#include <thread>

#include "backup/s3sim.h"
#include "compress/codec.h"
#include "durability/commit_log.h"
#include "exec/operators.h"
#include "load/formats.h"

namespace perfbench {

namespace {

using sdw::exec::Batch;
using sdw::storage::RowRange;
using sdw::storage::ShardSnapshot;
using sdw::storage::TableShard;

// The scan operator's batch size: ReadRange is timed the way scans call it.
constexpr uint64_t kRangeRows = 4096;
// Rows of slice 0 kept for the operator probes.
constexpr uint64_t kOperatorRows = 1 << 20;
// Blocks per column fetched for the decode probe.
constexpr size_t kDecodeBlocks = 16;
constexpr int kRepeats = 3;

struct PinnedShard {
  std::shared_ptr<TableShard> shard;
  ShardSnapshot version;
};

// Reads the whole shard in kRangeRows ranges; keeps up to `keep_rows` rows
// as batches when `keep` is set. Returns rows read, or -1 on error.
int64_t ReadShard(const PinnedShard& pinned, const std::vector<int>& columns,
                  std::vector<Batch>* keep, uint64_t keep_rows) {
  const uint64_t rows = pinned.version->row_count;
  for (uint64_t begin = 0; begin < rows; begin += kRangeRows) {
    const RowRange range{begin, std::min(rows, begin + kRangeRows)};
    auto read = pinned.shard->ReadRange(*pinned.version, columns, range);
    if (!read.ok()) return -1;
    if (keep != nullptr && begin < keep_rows) {
      Batch batch;
      batch.columns = *std::move(read);
      keep->push_back(std::move(batch));
    }
  }
  return static_cast<int64_t>(rows);
}

// Drains `op` without materializing its output; returns seconds.
double Drain(sdw::exec::Operator* op) {
  const Clock::time_point start = Clock::now();
  while (true) {
    auto next = op->Next();
    if (!next.ok() || !next->has_value()) break;
  }
  return SecondsBetween(start, Clock::now());
}

// The largest k for which reading the first k blocks of `pinned` twice
// decodes nothing the second time: the decode cache's capacity (FIFO, so
// the property holds exactly for k up to the capacity).
void MeasureDecodeCache(const PinnedShard& pinned, const std::vector<int>& columns,
                        LayerProbes* out) {
  constexpr size_t kMaxBlocks = 256;
  std::vector<std::pair<int, RowRange>> blocks;
  for (int column : columns) {
    for (const auto& meta : pinned.version->chains[column]) {
      if (blocks.size() < kMaxBlocks) {
        blocks.push_back({column, {meta.first_row, meta.first_row + meta.row_count}});
      }
    }
  }
  auto read = [&](size_t k) {
    for (size_t i = 0; i < k; ++i) {
      (void)pinned.shard->ReadRange(*pinned.version, {blocks[i].first},
                                    blocks[i].second);
    }
  };
  auto fits = [&](size_t k) {
    pinned.shard->ResetCounters();  // empties the cache
    read(k);
    const uint64_t decoded = pinned.shard->blocks_decoded();
    read(k);
    return pinned.shard->blocks_decoded() == decoded;
  };
  size_t lo = 0, hi = blocks.size();  // fits(lo) holds
  while (lo < hi) {
    const size_t mid = (lo + hi + 1) / 2;
    if (fits(mid)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  out->decode_cache_blocks = lo;
  out->decode_cache_probed_blocks = blocks.size();
}

}  // namespace

bool ProbeLayers(sdw::warehouse::Warehouse* wh, const ProbeSpec& spec,
                 LayerProbes* out, std::string* error) {
  sdw::cluster::Cluster* cluster = wh->data_plane();
  auto schema = cluster->catalog()->GetTable(spec.table);
  if (!schema.ok()) {
    *error = schema.status().ToString();
    return false;
  }
  std::vector<PinnedShard> shards;
  for (int s = 0; s < cluster->total_slices(); ++s) {
    auto shard = cluster->shard_ref(s, spec.table);
    if (!shard.ok()) {
      *error = shard.status().ToString();
      return false;
    }
    PinnedShard pinned{*shard, (*shard)->Snapshot()};
    shards.push_back(std::move(pinned));
  }

  // storage: ReadRange over every shard, one thread.
  std::vector<Batch> batches;
  {
    const Clock::time_point start = Clock::now();
    int64_t rows = 0;
    for (size_t s = 0; s < shards.size(); ++s) {
      const int64_t read = ReadShard(shards[s], spec.columns,
                                     s == 0 ? &batches : nullptr, kOperatorRows);
      if (read < 0) {
        *error = "ReadRange failed";
        return false;
      }
      rows += read;
    }
    out->readrange_ns_per_row =
        SecondsBetween(start, Clock::now()) * 1e9 / std::max<int64_t>(rows, 1);
  }

  // storage: aggregate ReadRange throughput of two threads on distinct
  // shards over one thread reading the same two shards in turn.
  if (shards.size() >= 2) {
    std::vector<double> ratios;
    for (int r = 0; r < kRepeats; ++r) {
      Clock::time_point start = Clock::now();
      ReadShard(shards[0], spec.columns, nullptr, 0);
      ReadShard(shards[1], spec.columns, nullptr, 0);
      const double one = SecondsBetween(start, Clock::now());
      start = Clock::now();
      std::thread other([&] { ReadShard(shards[1], spec.columns, nullptr, 0); });
      ReadShard(shards[0], spec.columns, nullptr, 0);
      other.join();
      const double two = SecondsBetween(start, Clock::now());
      ratios.push_back(Ratio(one, two));
    }
    out->scan_scaling_2t = Median(ratios);
  }

  // compress: DecodeColumn on blocks fetched with BlockStore::Get.
  {
    sdw::storage::BlockStore* store = cluster->NodeOfSlice(0)->store();
    struct Fetched {
      sdw::ColumnEncoding encoding;
      sdw::TypeId type;
      sdw::Bytes bytes;
      uint64_t rows;
    };
    std::vector<Fetched> blocks;
    for (int column : spec.columns) {
      const auto& chain = shards[0].version->chains[column];
      for (size_t b = 0; b < chain.size() && b < kDecodeBlocks; ++b) {
        auto bytes = store->Get(chain[b].id);
        if (!bytes.ok()) {
          *error = bytes.status().ToString();
          return false;
        }
        blocks.push_back({chain[b].encoding, schema->column(column).type,
                          *std::move(bytes), chain[b].row_count});
      }
    }
    std::vector<double> ns;
    for (int r = 0; r < kRepeats; ++r) {
      uint64_t rows = 0;
      const Clock::time_point start = Clock::now();
      for (const Fetched& f : blocks) {
        auto decoded = sdw::compress::DecodeColumn(f.encoding, f.type, f.bytes);
        if (!decoded.ok()) {
          *error = decoded.status().ToString();
          return false;
        }
        rows += f.rows;
      }
      ns.push_back(SecondsBetween(start, Clock::now()) * 1e9 /
                   std::max<uint64_t>(rows, 1));
    }
    out->decode_ns_per_row = Median(ns);
  }

  // exec: filter and partial hash aggregate over the ReadRange batches,
  // each net of draining the same batches unfiltered.
  {
    uint64_t rows = 0;
    for (const Batch& b : batches) rows += b.num_rows();
    const std::vector<sdw::TypeId> types(spec.columns.size(),
                                         sdw::TypeId::kInt64);
    std::vector<double> filter_ns, agg_ns;
    for (int r = 0; r < kRepeats; ++r) {
      auto base_op = sdw::exec::MemoryScan(types, batches);
      const double base = Drain(base_op.get());
      auto filter_op = sdw::exec::Filter(
          sdw::exec::MemoryScan(types, batches),
          sdw::exec::Cmp(sdw::exec::CmpOp::kLt,
                         sdw::exec::Col(spec.filter_column, sdw::TypeId::kInt64),
                         sdw::exec::Lit(sdw::Datum::Int64(spec.filter_below))));
      filter_ns.push_back((Drain(filter_op.get()) - base) * 1e9 /
                          std::max<uint64_t>(rows, 1));
      auto agg_op = sdw::exec::HashAggregate(
          sdw::exec::MemoryScan(types, batches), {spec.group_column},
          {{sdw::exec::AggFn::kCount, -1}, {sdw::exec::AggFn::kSum, spec.sum_column}},
          sdw::exec::AggMode::kPartial);
      agg_ns.push_back((Drain(agg_op.get()) - base) * 1e9 /
                       std::max<uint64_t>(rows, 1));
    }
    out->filter_ns_per_row = Median(filter_ns);
    out->agg_ns_per_row = Median(agg_ns);
  }

  MeasureDecodeCache(shards[0], spec.columns, out);

  // load: CSV parse of one COPY batch.
  {
    std::vector<double> ns;
    for (int r = 0; r < kRepeats; ++r) {
      const Clock::time_point start = Clock::now();
      auto parsed = sdw::load::ParseCsv(spec.csv_batch, *schema);
      const double seconds = SecondsBetween(start, Clock::now());
      if (!parsed.ok() || parsed->empty()) {
        *error = "ParseCsv failed";
        return false;
      }
      ns.push_back(seconds * 1e9 / std::max<size_t>((*parsed)[0].size(), 1));
    }
    out->parse_ns_per_row = Median(ns);
  }

  // load / cluster: the whole-table ANALYZE every COPY runs.
  {
    const Clock::time_point start = Clock::now();
    const sdw::Status analyzed = cluster->Analyze(spec.table);
    out->analyze_ms = SecondsBetween(start, Clock::now()) * 1e3;
    if (!analyzed.ok()) {
      *error = analyzed.ToString();
      return false;
    }
  }

  // durability: appends of a COPY-sized record to a log on its own S3.
  {
    sdw::backup::S3 s3;
    sdw::durability::CommitLog log(&s3, "us-east-1", "perfbench-probe");
    std::vector<double> ms;
    for (int i = 0; i < 64; ++i) {
      sdw::durability::LogRecord record;
      record.statements = {spec.copy_sql};
      const Clock::time_point start = Clock::now();
      auto lsn = log.Append(std::move(record));
      ms.push_back(SecondsBetween(start, Clock::now()) * 1e3);
      if (!lsn.ok()) {
        *error = lsn.status().ToString();
        return false;
      }
    }
    out->log_append_ms = Median(ms);
  }
  return true;
}

}  // namespace perfbench
