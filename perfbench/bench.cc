#include "bench.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <pthread.h>
#include <sched.h>
#include <thread>
#include <variant>

#include "obs/registry.h"
#include "plan/planner.h"
#include "sql/parser.h"

namespace perfbench {

namespace {

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

int64_t Pick(uint64_t seed, uint64_t row, uint64_t column, int64_t domain) {
  return static_cast<int64_t>(Mix(seed, row, column) %
                              static_cast<uint64_t>(domain));
}

void AppendInt(std::string* out, int64_t v) {
  char buf[24];
  char* end = buf + sizeof(buf);
  char* p = end;
  const bool negative = v < 0;
  uint64_t u = negative ? 0 - static_cast<uint64_t>(v) : static_cast<uint64_t>(v);
  do {
    *--p = static_cast<char>('0' + u % 10);
    u /= 10;
  } while (u != 0);
  if (negative) *--p = '-';
  out->append(p, end);
}

template <typename RowFn>
std::vector<std::string> MakeCsv(uint64_t begin, uint64_t end, int parts,
                                 RowFn row_fn) {
  std::vector<std::string> out(parts);
  const uint64_t n = end - begin;
  for (int p = 0; p < parts; ++p) {
    const uint64_t lo = begin + n * p / parts;
    const uint64_t hi = begin + n * (p + 1) / parts;
    std::string& s = out[p];
    s.reserve((hi - lo) * 32);
    for (uint64_t i = lo; i < hi; ++i) row_fn(i, &s);
  }
  return out;
}

}  // namespace

uint64_t Mix(uint64_t seed, uint64_t row, uint64_t column) {
  return SplitMix(SplitMix(seed * 0x100000001b3ULL + column) ^ row);
}

EventRow MakeEvent(uint64_t seed, uint64_t row) {
  EventRow e;
  e.ts = static_cast<int64_t>(row);
  e.cust = Pick(seed, row, 1, kCustomers);
  e.prod = Pick(seed, row, 2, kProducts);
  e.grp = Pick(seed, row, 3, kGroups);
  e.qty = Pick(seed, row, 4, kQtyDomain);
  e.price = Pick(seed, row, 5, kPriceDomain);
  return e;
}

int64_t CustomerSegment(uint64_t seed, int64_t id) {
  return Pick(seed, static_cast<uint64_t>(id), 6, kSegments);
}

int64_t ProductCategory(uint64_t seed, int64_t id) {
  return Pick(seed, static_cast<uint64_t>(id), 7, kCategories);
}

SaleRow MakeSale(uint64_t seed, uint64_t row) {
  SaleRow s;
  s.day = static_cast<int64_t>(row * kDays / kSalesRows);
  s.region = Pick(seed, row, 8, kRegions);
  s.store = Pick(seed, row, 9, kStores);
  s.amount = Pick(seed, row, 10, kAmountDomain);
  return s;
}

std::vector<std::string> EventsCsv(uint64_t seed, uint64_t begin, uint64_t end,
                                   int parts) {
  return MakeCsv(begin, end, parts, [seed](uint64_t i, std::string* s) {
    const EventRow e = MakeEvent(seed, i);
    for (int64_t v : {e.ts, e.cust, e.prod, e.grp, e.qty}) {
      AppendInt(s, v);
      s->push_back(',');
    }
    AppendInt(s, e.price);
    s->push_back('\n');
  });
}

std::vector<std::string> CustomersCsv(uint64_t seed, int parts) {
  return MakeCsv(0, kCustomers, parts, [seed](uint64_t i, std::string* s) {
    AppendInt(s, static_cast<int64_t>(i));
    s->push_back(',');
    AppendInt(s, CustomerSegment(seed, static_cast<int64_t>(i)));
    s->push_back('\n');
  });
}

std::vector<std::string> ProductsCsv(uint64_t seed, int parts) {
  return MakeCsv(0, kProducts, parts, [seed](uint64_t i, std::string* s) {
    AppendInt(s, static_cast<int64_t>(i));
    s->push_back(',');
    AppendInt(s, ProductCategory(seed, static_cast<int64_t>(i)));
    s->push_back('\n');
  });
}

std::vector<std::string> SalesCsv(uint64_t seed, int parts) {
  return MakeCsv(0, kSalesRows, parts, [seed](uint64_t i, std::string* s) {
    const SaleRow r = MakeSale(seed, i);
    for (int64_t v : {r.day, r.region, r.store}) {
      AppendInt(s, v);
      s->push_back(',');
    }
    AppendInt(s, r.amount);
    s->push_back('\n');
  });
}

sdw::Status Stage(sdw::warehouse::Warehouse* wh, const std::string& prefix,
                  const std::vector<std::string>& parts) {
  sdw::backup::S3Region* region = wh->s3()->region("us-east-1");
  for (size_t p = 0; p < parts.size(); ++p) {
    SDW_RETURN_IF_ERROR(region->PutObject(
        "bench/" + prefix + "/part-" + std::to_string(p),
        sdw::Bytes(parts[p].begin(), parts[p].end())));
  }
  return sdw::Status::OK();
}

std::unique_ptr<sdw::warehouse::Warehouse> SetUp(
    const std::vector<TableLoad>& tables, std::string* error) {
  sdw::warehouse::WarehouseOptions options;
  options.cluster.num_nodes = kNodes;
  options.cluster.slices_per_node = kSlicesPerNode;
  auto wh = std::make_unique<sdw::warehouse::Warehouse>(options);
  for (const TableLoad& load : tables) {
    auto created = wh->Execute(load.ddl);
    sdw::Status status = created.status();
    if (status.ok()) status = Stage(wh.get(), load.table, *load.csv_parts);
    if (status.ok()) {
      status = wh->Execute("COPY " + load.table + " FROM 's3://bench/" +
                           load.table + "/' FORMAT CSV")
                   .status();
    }
    if (!status.ok()) {
      *error = "set-up of " + load.table + ": " + status.ToString();
      return nullptr;
    }
  }
  return wh;
}

IntRows ToIntRows(const sdw::exec::Batch& rows) {
  IntRows out(rows.num_rows());
  for (size_t r = 0; r < out.size(); ++r) {
    out[r].reserve(rows.num_columns());
    for (const sdw::ColumnVector& column : rows.columns) {
      out[r].push_back(column.IsNull(r) ? INT64_MIN : column.IntAt(r));
    }
  }
  return out;
}

uint64_t Fingerprint(const IntRows& rows) {
  uint64_t h = SplitMix(rows.size());
  for (const auto& row : rows) {
    for (int64_t v : row) h = SplitMix(h ^ static_cast<uint64_t>(v));
    h = SplitMix(h + 0x51);
  }
  return h;
}

std::string RowsToString(const IntRows& rows, size_t max_rows) {
  std::string out = "[";
  for (size_t r = 0; r < rows.size() && r < max_rows; ++r) {
    out += r == 0 ? "(" : " (";
    for (size_t c = 0; c < rows[r].size(); ++c) {
      if (c > 0) out += ",";
      out += std::to_string(rows[r][c]);
    }
    out += ")";
  }
  if (rows.size() > max_rows) {
    out += " ... " + std::to_string(rows.size()) + " rows";
  }
  return out + "]";
}

void CheckLog::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  failures_.push_back(what);
}

bool CheckLog::ok() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_.empty();
}

std::vector<std::string> CheckLog::failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

namespace {
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
}  // namespace

int SpanBuffer::Begin(const char* name, uint64_t statement, int parent) {
  return Add(name, statement, parent, NowNs(), 0);
}

void SpanBuffer::End(int index) { spans_[index].end_ns = NowNs(); }

int SpanBuffer::Add(const char* name, uint64_t statement, int parent,
                    int64_t start_ns, int64_t end_ns) {
  spans_.push_back(Span{statement, parent, name, start_ns, end_ns});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, LayerTime> LayerTimes(
    const std::vector<const SpanBuffer*>& buffers) {
  std::map<std::string, LayerTime> out;
  for (const SpanBuffer* buffer : buffers) {
    const std::vector<Span>& spans = buffer->spans();
    // Children of one span never overlap (a client thread makes one call
    // at a time), so the covered part is the sum of child durations.
    std::vector<int64_t> covered(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) covered[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      LayerTime& t = out[spans[i].name];
      const double total = (spans[i].end_ns - spans[i].start_ns) / 1e3;
      ++t.count;
      t.total_us += total;
      t.self_us += total - covered[i] / 1e3;
    }
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanBuffer*>& buffers) {
  std::ofstream out(path);
  out << "statement\tspan\tparent\tname\tstart_ns\tend_ns\n";
  for (size_t b = 0; b < buffers.size(); ++b) {
    const std::vector<Span>& spans = buffers[b]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      // Span ids are made unique across buffers as "<buffer>.<index>".
      out << s.statement << '\t' << b << '.' << i << '\t';
      if (s.parent >= 0) {
        out << b << '.' << s.parent;
      } else {
        out << '-';
      }
      out << '\t' << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
    }
  }
  out.close();
  return static_cast<bool>(out);
}

std::atomic<uint64_t> Client::next_statement_{1};

StmtSample Client::Run(const std::string& sql, StmtKind kind,
                       sdw::warehouse::StatementResult* out) {
  StmtSample sample;
  sample.kind = kind;
  if (spans_ == nullptr) {
    const Clock::time_point start = Clock::now();
    auto result = wh_->Execute(sql);
    sample.seconds = SecondsBetween(start, Clock::now());
    sample.ok = result.ok();
    if (result.ok()) {
      sample.from_result_cache = result->from_result_cache;
      sample.exec = result->exec_stats;
      *out = *std::move(result);
    }
    return sample;
  }

  static const char* const kRootNames[] = {"select", "system_select", "copy"};
  const uint64_t id = next_statement_.fetch_add(1, std::memory_order_relaxed);
  const int root = spans_->Begin(kRootNames[static_cast<int>(kind)], id, -1);
  const int parse_span = spans_->Begin("sql.parse", id, root);
  auto parsed = sdw::sql::ParseStatement(sql);
  spans_->End(parse_span);
  int plan_span = -1;
  if (kind == StmtKind::kSelect && parsed.ok()) {
    if (auto* select = std::get_if<sdw::sql::SelectStmt>(&*parsed)) {
      plan_span = spans_->Begin("plan.plan", id, root);
      sdw::plan::Planner planner(wh_->data_plane()->catalog());
      auto planned = planner.Plan(select->query);
      spans_->End(plan_span);
    }
  }
  const int exec_span = spans_->Begin("warehouse.execute", id, root);
  auto result = wh_->Execute(sql);
  spans_->End(exec_span);
  sample.ok = result.ok();
  if (result.ok()) {
    sample.from_result_cache = result->from_result_cache;
    sample.exec = result->exec_stats;
    *out = *std::move(result);
  }
  const std::vector<Span>& spans = spans_->spans();
  const Span exec = spans[exec_span];
  // Slice and leader time come from the executor's own measurement; lay
  // them out at the end of the Execute span so self time is well defined.
  const int64_t leader_ns =
      static_cast<int64_t>(sample.exec.leader_seconds * 1e9);
  const int64_t slice_ns =
      static_cast<int64_t>(sample.exec.MaxSliceSeconds() * 1e9);
  if (sample.ok && !sample.from_result_cache && kind == StmtKind::kSelect) {
    const int64_t leader_start = std::max(exec.start_ns, exec.end_ns - leader_ns);
    const int64_t slice_start = std::max(exec.start_ns, leader_start - slice_ns);
    spans_->Add("cluster.slices", id, exec_span, slice_start, leader_start);
    spans_->Add("cluster.leader", id, exec_span, leader_start, exec.end_ns);
  }
  spans_->End(root);
  const auto span_us = [&](int index) {
    if (index < 0) return 0.0;
    const Span& s = spans_->spans()[index];
    return (s.end_ns - s.start_ns) / 1e3;
  };
  sample.parse_us = span_us(parse_span);
  sample.plan_us = span_us(plan_span);
  sample.execute_us = span_us(exec_span);
  sample.seconds = sample.execute_us / 1e6;
  // Execute re-parses internally, and plans unless the result cache
  // answered; what is left after parse, plan, slices and leader is the
  // front door's own work (caches, admission, pinning, logging).
  sample.overhead_us = sample.execute_us - sample.parse_us -
                       (sample.from_result_cache ? 0.0 : sample.plan_us) -
                       (slice_ns + leader_ns) / 1e3;
  return sample;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[index];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

namespace {
double StatusFieldKb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) return std::stod(line.substr(prefix.size()));
  }
  return 0;
}
}  // namespace

double PeakRssMb() { return StatusFieldKb("VmHWM") / 1024.0; }
double CurrentRssBytes() { return StatusFieldKb("VmRSS") * 1024.0; }

Counters SnapshotCounters() {
  Counters out;
  for (const sdw::obs::MetricRow& row :
       sdw::obs::Registry::Global().Snapshot()) {
    out[row.name] = row.value;
  }
  return out;
}

double Delta(const Counters& before, const Counters& after,
             const std::string& name) {
  auto get = [&](const Counters& c) {
    auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };
  return get(after) - get(before);
}

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

int HardwareThreads() {
  // What nproc prints: the CPUs this process may run on.
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

IdleSpinners::IdleSpinners() {
  for (int i = 0; i < HardwareThreads(); ++i) {
    threads_.emplace_back([this] {
      sched_param param{};
      if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) return;
      while (!stop_.load(std::memory_order_relaxed)) CpuRelax();
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true);
  for (std::thread& t : threads_) t.join();
}

}  // namespace perfbench
