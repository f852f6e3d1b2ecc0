// Shared pieces of the repository benchmark: sizes, the seeded data
// model, set-up, answer checks, the span recorder, statement execution
// and the small statistics helpers every workload uses.
//
// The benchmark drives the warehouse only through its public headers;
// nothing here is part of the warehouse itself.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "warehouse/warehouse.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Sizes. Every number a later change may want to quote lives here and is
// repeated in BENCHMARK.json's "sizes" block.

// Topology: 2 nodes x 2 slices. Everything else in WarehouseOptions stays
// at its default (caches, durability, workload intelligence, one queue).
constexpr int kNodes = 2;
constexpr int kSlicesPerNode = 2;

// The fact table `events`. scan_agg loads 8.4M rows: 2.1M rows per slice
// is 32 blocks of 65,536 rows per column, so a query reading 4 columns
// pulls 128 blocks through each shard's 64-block decode cache (2x).
constexpr uint64_t kScanEventsRows = 8'400'000;
// ingest_mixed loads a smaller copy of the same table so a COPY, which
// re-runs ANALYZE over the whole table, completes well inside its period.
constexpr uint64_t kIngestEventsRows = 200'000;
constexpr int64_t kCustomers = 50'000;  // co-located join side
constexpr int64_t kProducts = 2'000;     // broadcast join side
constexpr int64_t kGroups = 64;
constexpr int64_t kQtyDomain = 1'000;
constexpr int64_t kPriceDomain = 10'000;
constexpr int64_t kSegments = 8;
constexpr int64_t kCategories = 16;

// The small dashboard table `sales`: 50k rows per slice, one block per
// column per shard, far under the decode cache.
constexpr uint64_t kSalesRows = 200'000;
constexpr int64_t kDays = 365;
constexpr int64_t kRegions = 16;
constexpr int64_t kStores = 200;
constexpr int64_t kAmountDomain = 10'000;

// CSV parts per staged table (COPY parses files in parallel).
constexpr int kCsvParts = 8;

// ---------------------------------------------------------------------------
// Seeded data model. Every value is a pure function of (seed, row, column),
// so the benchmark can regenerate any row to check an answer without
// keeping the table in memory.

uint64_t Mix(uint64_t seed, uint64_t row, uint64_t column);

struct EventRow {
  int64_t ts, cust, prod, grp, qty, price;
};
EventRow MakeEvent(uint64_t seed, uint64_t row);
int64_t CustomerSegment(uint64_t seed, int64_t id);
int64_t ProductCategory(uint64_t seed, int64_t id);

struct SaleRow {
  int64_t day, region, store, amount;
};
SaleRow MakeSale(uint64_t seed, uint64_t row);

constexpr const char* kEventsDdl =
    "CREATE TABLE events (ts BIGINT, cust BIGINT, prod BIGINT, grp BIGINT, "
    "qty BIGINT, price BIGINT) DISTKEY(cust) SORTKEY(ts)";
constexpr const char* kCustomersDdl =
    "CREATE TABLE customers (id BIGINT, segment BIGINT) DISTKEY(id)";
constexpr const char* kProductsDdl =
    "CREATE TABLE products (id BIGINT, category BIGINT) DISTKEY(id)";
constexpr const char* kSalesDdl =
    "CREATE TABLE sales (day BIGINT, region BIGINT, store BIGINT, "
    "amount BIGINT) DISTKEY(store) SORTKEY(day)";

// CSV text of rows [begin, end) of each table, split into `parts` files.
std::vector<std::string> EventsCsv(uint64_t seed, uint64_t begin, uint64_t end,
                                   int parts);
std::vector<std::string> CustomersCsv(uint64_t seed, int parts);
std::vector<std::string> ProductsCsv(uint64_t seed, int parts);
std::vector<std::string> SalesCsv(uint64_t seed, int parts);

// One table to create and COPY during set-up.
struct TableLoad {
  std::string ddl;
  std::string table;
  const std::vector<std::string>* csv_parts;  // owned by the workload
};

// Builds a warehouse with the benchmark topology, then stages and COPYs
// every table (COPY ANALYZEs by itself). Returns null and fills *error on
// failure.
std::unique_ptr<sdw::warehouse::Warehouse> SetUp(
    const std::vector<TableLoad>& tables, std::string* error);

// Stages `parts` under s3://bench/<prefix>/ in the warehouse's region.
sdw::Status Stage(sdw::warehouse::Warehouse* wh, const std::string& prefix,
                  const std::vector<std::string>& parts);

// ---------------------------------------------------------------------------
// Results and checks.

using IntRows = std::vector<std::vector<int64_t>>;
// The result rows as integers (every benchmark query returns BIGINTs).
IntRows ToIntRows(const sdw::exec::Batch& rows);
uint64_t Fingerprint(const IntRows& rows);
std::string RowsToString(const IntRows& rows, size_t max_rows = 4);

// Collects failed output checks from any thread.
class CheckLog {
 public:
  void Fail(const std::string& what);
  bool ok() const;
  std::vector<std::string> failures() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------------
// Span recorder. A traced statement records a root span and one child per
// layer call the benchmark makes; spans of one statement share its id.
// Each client thread owns one SpanBuffer, so recording takes no lock; the
// buffers are merged and written out when the run ends.

struct Span {
  uint64_t statement = 0;
  int parent = -1;  // index into the same buffer; -1 for a root
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanBuffer {
 public:
  int Begin(const char* name, uint64_t statement, int parent);
  void End(int index);
  // A span whose interval is derived rather than observed (slice and
  // leader time reported by the executor, laid out at the end of their
  // parent).
  int Add(const char* name, uint64_t statement, int parent, int64_t start_ns,
          int64_t end_ns);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

struct LayerTime {
  uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;  // span minus the part its children cover
};
std::map<std::string, LayerTime> LayerTimes(
    const std::vector<const SpanBuffer*>& buffers);
// Writes every span as one tab-separated line; returns false on I/O error.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanBuffer*>& buffers);

// ---------------------------------------------------------------------------
// Statement execution. A Client runs statements for one thread. When it
// has a SpanBuffer it is traced: it times sql::ParseStatement and
// plan::Planner::Plan on the statement itself before calling
// Warehouse::Execute, and records spans around each call.

enum class StmtKind { kSelect, kSystem, kCopy };

// What one executed statement reports back.
struct StmtSample {
  StmtKind kind = StmtKind::kSelect;
  bool ok = false;
  bool from_result_cache = false;
  double seconds = 0;  // Execute() wall time (not counting the due-time wait)
  sdw::cluster::ExecStats exec;
  // Traced only.
  double parse_us = 0;
  double plan_us = 0;
  double execute_us = 0;
  double overhead_us = 0;
};

class Client {
 public:
  Client(sdw::warehouse::Warehouse* wh, SpanBuffer* spans)
      : wh_(wh), spans_(spans) {}

  // Runs one statement; the result is returned through *out on success.
  StmtSample Run(const std::string& sql, StmtKind kind,
                 sdw::warehouse::StatementResult* out);

 private:
  sdw::warehouse::Warehouse* wh_;
  SpanBuffer* spans_;
  static std::atomic<uint64_t> next_statement_;
};

// ---------------------------------------------------------------------------
// Statistics.

// Nearest-rank percentile, p in (0, 1]. Returns 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double PeakRssMb();
double CurrentRssBytes();

using Counters = std::map<std::string, double>;
Counters SnapshotCounters();
double Delta(const Counters& before, const Counters& after,
             const std::string& name);
// a / b, or 0 when b is 0.
double Ratio(double a, double b);

int HardwareThreads();

// One step of a spin-wait loop (the x86 `pause` hint, which spares the
// sibling hardware thread).
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// One SCHED_IDLE spinning thread per CPU for the object's lifetime. A
// virtual CPU with nothing to run halts, and waking it again costs the
// host 0.1-10 ms; with these spinners an idle CPU never halts, and the
// kernel hands it to any runnable benchmark or warehouse thread at once.
// Without them, statement latencies on a virtual machine swing 3x from
// run to run with how often the slice pool's threads find their CPU
// asleep. If SCHED_IDLE cannot be set, no spinner runs.
class IdleSpinners {
 public:
  IdleSpinners();
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
