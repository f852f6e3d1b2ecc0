#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <thread>

namespace perfbench {

namespace {

using sdw::warehouse::StatementResult;
using sdw::warehouse::Warehouse;

// A failed or refused statement misses any latency limit.
constexpr double kFailedMs = 1e6;
// The operator polls stl_query / stl_wlm four times a second in every
// workload (enough polls for a steady median in a 10-second run).
constexpr double kOperatorPeriodS = 0.25;

// dashboard: open loop at one fixed rate over a Zipf-popular template
// pool smaller than the result cache's 128 entries.
constexpr double kDashboardRate = 500.0;  // requests per second
constexpr int kDashboardTemplatesPerKind = 12;  // 4 kinds -> 48 templates
constexpr double kDashboardZipfTheta = 0.9;

// ingest_mixed: one COPY of kIngestBatchRows rows every kCopyPeriodS,
// beside closed-loop readers that think kReaderThinkS between SELECTs.
// Each reader cycles three `events` SELECTs (one per group, over its own
// half of the 64 groups) and one `sales` SELECT, so it comes back to an
// `events` template only after about 43 SELECTs (~1.4 s), later than the
// next COPY: every `events` read finds its cached result invalidated.
// A COPY keeps one core busy for about a quarter of its period, so the
// median read runs beside no COPY and the slow tail beside one.
constexpr uint64_t kIngestBatchRows = 5'000;
constexpr double kCopyPeriodS = 1.0;
constexpr int kIngestSalesTemplates = 8;
constexpr double kReaderThinkS = 0.030;

double Ms(Clock::time_point from, Clock::time_point to) {
  return SecondsBetween(from, to) * 1e3;
}

Clock::time_point After(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

int ClientThreads(int wanted, int reserved) {
  return std::clamp(HardwareThreads() - reserved, 1, wanted);
}

// What the stl_query poll is checked against: user SELECTs that
// completed before the poll was sent, and those started before it ended.
struct SelectCounts {
  std::atomic<uint64_t> started{0};
  std::atomic<uint64_t> completed{0};
  uint64_t base = 0;
};

// Runs one user SELECT timed from `timed_from`; on success fills *rows.
// The sample is appended to rec->selects.
bool RunSelect(Client* client, const std::string& sql,
               Clock::time_point timed_from, SelectCounts* counts,
               Recorder* rec, IntRows* rows) {
  ++rec->attempted;
  counts->started.fetch_add(1);
  StatementResult result;
  StmtSample sample = client->Run(sql, StmtKind::kSelect, &result);
  const Clock::time_point end = Clock::now();
  if (sample.ok) {
    counts->completed.fetch_add(1);
    rec->select_ms.push_back(Ms(timed_from, end));
    *rows = ToIntRows(result.rows);
  } else {
    ++rec->failed;
    rec->select_ms.push_back(kFailedMs);
  }
  rec->selects.push_back(std::move(sample));
  return rec->selects.back().ok;
}

// The operator's system-table poll. The stl_query row count must lie
// between the user SELECTs completed before the poll and those started
// before it returned; stl_wlm is a ring of at most 1024 reports.
// Each poll is timed from when it was sent: polls are far apart, so one
// cannot delay the next.
void OperatorPoll(Client* client, uint64_t seq, SelectCounts* counts,
                  Recorder* rec, CheckLog* checks) {
  const bool query_log = seq % 2 == 0;
  const std::string sql = query_log
                              ? "SELECT COUNT(*), MAX(query_id) FROM stl_query"
                              : "SELECT COUNT(*), MAX(seq) FROM stl_wlm";
  const uint64_t lo = counts->base + counts->completed.load();
  ++rec->attempted;
  StatementResult result;
  const Clock::time_point sent = Clock::now();
  const StmtSample sample = client->Run(sql, StmtKind::kSystem, &result);
  const Clock::time_point end = Clock::now();
  const uint64_t hi = counts->base + counts->started.load();
  if (!sample.ok) {
    ++rec->failed;
    rec->system_ms.push_back(kFailedMs);
    return;
  }
  rec->system_ms.push_back(Ms(sent, end));
  const IntRows rows = ToIntRows(result.rows);
  const int64_t count = rows.size() == 1 ? rows[0][0] : -1;
  const bool ok = query_log ? count >= static_cast<int64_t>(lo) &&
                                  count <= static_cast<int64_t>(hi)
                            : count >= 0 && count <= 1024;
  if (!ok) {
    checks->Fail(sql + " returned " + RowsToString(rows) + ", expected a " +
                 "count in [" + std::to_string(query_log ? lo : 0) + ", " +
                 std::to_string(query_log ? hi : 1024) + "]");
  }
}

// Polls the system tables on a fixed schedule until `end`.
void OperatorLoop(Warehouse* wh, SpanBuffer* spans, Clock::time_point start,
                  Clock::time_point end, SelectCounts* counts, Recorder* rec,
                  CheckLog* checks) {
  Client client(wh, spans);
  for (uint64_t k = 0;; ++k) {
    const Clock::time_point due = After(start, (k + 0.5) * kOperatorPeriodS);
    if (due >= end) break;
    std::this_thread::sleep_until(due);
    rec->lateness_ms.push_back(Ms(due, Clock::now()));
    OperatorPoll(&client, k, counts, rec, checks);
  }
}

// Records failures with a cap, so one systematic bug does not flood the
// report.
class FailureCap {
 public:
  FailureCap(CheckLog* checks, const char* what) : checks_(checks), what_(what) {}
  ~FailureCap() {
    if (count_ > kShown) {
      checks_->Fail(std::string(what_) + ": " + std::to_string(count_) +
                    " mismatches in total");
    }
  }
  FailureCap(const FailureCap&) = delete;
  FailureCap& operator=(const FailureCap&) = delete;
  void Fail(const std::string& detail) {
    if (++count_ <= kShown) checks_->Fail(std::string(what_) + ": " + detail);
  }

 private:
  static constexpr int kShown = 5;
  CheckLog* checks_;
  const char* what_;
  int count_ = 0;
};

// A thread pool of one phase: each thread gets its own Recorder and, when
// traced, its own SpanBuffer; Join merges the recorders into the phase.
class Threads {
 public:
  explicit Threads(Phase* phase) : phase_(phase) {}
  ~Threads() { Join(); }
  Threads(const Threads&) = delete;
  Threads& operator=(const Threads&) = delete;

  void Start(std::function<void(SpanBuffer*, Recorder*)> body) {
    SpanBuffer* spans = nullptr;
    if (phase_->traced) {
      phase_->spans.push_back(std::make_unique<SpanBuffer>());
      spans = phase_->spans.back().get();
    }
    recorders_.push_back(std::make_unique<Recorder>());
    Recorder* rec = recorders_.back().get();
    threads_.emplace_back([body = std::move(body), spans, rec] { body(spans, rec); });
  }

  void Join() {
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    for (auto& rec : recorders_) phase_->rec.Merge(std::move(*rec));
    recorders_.clear();
  }

 private:
  Phase* phase_;
  std::vector<std::unique_ptr<Recorder>> recorders_;
  std::vector<std::thread> threads_;
};

// Tracks the latest completion across threads (the measured window).
class LastCompletion {
 public:
  void Note() {
    std::lock_guard<std::mutex> lock(mu_);
    last_ = std::max(last_, Clock::now());
  }
  double SecondsSince(Clock::time_point start) const {
    std::lock_guard<std::mutex> lock(mu_);
    return std::max(SecondsBetween(start, last_), 1e-9);
  }

 private:
  mutable std::mutex mu_;
  Clock::time_point last_{};
};

// ---------------------------------------------------------------------------
// Dashboard templates over `sales`, with their answers computed from the
// generated rows.

struct Template {
  std::string sql;
  IntRows expected;
  uint64_t fingerprint = 0;
};

struct Acc {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = INT64_MAX;
  int64_t max = INT64_MIN;
  void Add(int64_t v) {
    ++count;
    sum += v;
    min = std::min(min, v);
    max = std::max(max, v);
  }
};

std::vector<Template> SalesTemplates(uint64_t seed, int per_kind) {
  std::vector<SaleRow> rows(kSalesRows);
  for (uint64_t i = 0; i < kSalesRows; ++i) rows[i] = MakeSale(seed, i);
  std::mt19937_64 rng(Mix(seed, 0, 100));
  auto distinct = [&rng](int64_t domain, int n) {
    std::vector<int64_t> values(domain);
    for (int64_t i = 0; i < domain; ++i) values[i] = i;
    std::shuffle(values.begin(), values.end(), rng);
    values.resize(std::min<int64_t>(n, domain));
    return values;
  };
  const std::vector<int64_t> days = distinct(kDays - 30, per_kind);
  const std::vector<int64_t> regions = distinct(kRegions, per_kind);
  const std::vector<int64_t> starts = distinct(kDays - 30, per_kind);
  const std::vector<int64_t> stores = distinct(kStores, per_kind);

  std::vector<Template> out;
  for (int j = 0; j < per_kind; ++j) {
    for (int kind = 0; kind < 4; ++kind) {
      Template t;
      std::map<int64_t, Acc> groups;
      Acc total;
      switch (kind) {
        case 0: {
          const int64_t d = days[j % days.size()];
          t.sql = "SELECT region, COUNT(*), SUM(amount) FROM sales WHERE day >= " +
                  std::to_string(d) + " GROUP BY region ORDER BY region";
          for (const SaleRow& r : rows) {
            if (r.day >= d) groups[r.region].Add(r.amount);
          }
          for (const auto& [g, a] : groups) t.expected.push_back({g, a.count, a.sum});
          break;
        }
        case 1: {
          const int64_t region = regions[j % regions.size()];
          t.sql = "SELECT store, COUNT(*), SUM(amount) FROM sales WHERE region = " +
                  std::to_string(region) + " GROUP BY store ORDER BY store";
          for (const SaleRow& r : rows) {
            if (r.region == region) groups[r.store].Add(r.amount);
          }
          for (const auto& [g, a] : groups) t.expected.push_back({g, a.count, a.sum});
          break;
        }
        case 2: {
          const int64_t a = starts[j % starts.size()];
          const int64_t b = a + 7 + (j % 3) * 7;
          t.sql = "SELECT COUNT(*), SUM(amount), MIN(amount), MAX(amount) FROM "
                  "sales WHERE day BETWEEN " +
                  std::to_string(a) + " AND " + std::to_string(b);
          for (const SaleRow& r : rows) {
            if (r.day >= a && r.day <= b) total.Add(r.amount);
          }
          t.expected.push_back({total.count, total.sum, total.min, total.max});
          break;
        }
        default: {
          const int64_t store = stores[j % stores.size()];
          t.sql = "SELECT day, COUNT(*), MAX(amount) FROM sales WHERE store = " +
                  std::to_string(store) + " GROUP BY day ORDER BY day";
          for (const SaleRow& r : rows) {
            if (r.store == store) groups[r.day].Add(r.amount);
          }
          for (const auto& [g, a] : groups) t.expected.push_back({g, a.count, a.max});
          break;
        }
      }
      t.fingerprint = Fingerprint(t.expected);
      out.push_back(std::move(t));
    }
  }
  return out;
}

// Zipf(theta) over `n` ranks; rank i is template i. Templates interleave
// the four kinds (template i has kind i % 4), so every seed offers the
// same mix of kinds at every popularity and only the literals change.
class ZipfPicker {
 public:
  ZipfPicker(int n, double theta, std::mt19937_64* rng) : rng_(rng) {
    double total = 0;
    for (int i = 0; i < n; ++i) {
      total += 1.0 / std::pow(i + 1.0, theta);
      cumulative_.push_back(total);
    }
    for (double& c : cumulative_) c /= total;
  }
  int Next() {
    const double u = std::uniform_real_distribution<double>(0, 1)(*rng_);
    const size_t rank =
        std::lower_bound(cumulative_.begin(), cumulative_.end(), u) -
        cumulative_.begin();
    return static_cast<int>(std::min(rank, cumulative_.size() - 1));
  }

 private:
  std::mt19937_64* rng_;
  std::vector<double> cumulative_;
};

// Hands request indexes from the open-loop generator to the workers.
// Requests are the indexes 0..n-1: the generator releases each at its
// due time and workers claim them in order. Workers spin on the shared
// counters rather than block: a blocked worker's wake-up costs as much as
// the cache-served SELECT it would run, and varies with how busy the
// host is.
class Dispatch {
 public:
  void Release(size_t count) { released_.store(count, std::memory_order_release); }
  void Close() { closed_.store(true, std::memory_order_release); }
  bool Claim(size_t* v) {
    size_t next = claimed_.load(std::memory_order_relaxed);
    while (true) {
      if (next < released_.load(std::memory_order_acquire)) {
        if (claimed_.compare_exchange_weak(next, next + 1,
                                           std::memory_order_acq_rel)) {
          *v = next;
          return true;
        }
        continue;  // `next` was reloaded by the failed exchange
      }
      if (closed_.load(std::memory_order_acquire) &&
          next >= released_.load(std::memory_order_acquire)) {
        return false;
      }
      CpuRelax();
      next = claimed_.load(std::memory_order_relaxed);
    }
  }

 private:
  std::atomic<size_t> released_{0};
  std::atomic<size_t> claimed_{0};
  std::atomic<bool> closed_{false};
};

ShapeCheck ThreadsCheck(const Phase& phase) {
  return {"client threads " + std::to_string(phase.client_threads) +
              " <= nproc " + std::to_string(HardwareThreads()),
          phase.client_threads <= HardwareThreads()};
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

// ---------------------------------------------------------------------------

class Dashboard : public Workload {
 public:
  int setup_reps() const override { return 5; }

  void Prepare(uint64_t seed) override {
    seed_ = seed;
    csv_ = SalesCsv(seed, kCsvParts);
    templates_ = SalesTemplates(seed, kDashboardTemplatesPerKind);
  }

  std::vector<TableLoad> BaseTables() const override {
    return {{kSalesDdl, "sales", &csv_}};
  }

  // Answers every template once, so the timed window sees the steady
  // state the dashboard serves from; these cold answers are the ones
  // every cache-served answer is checked against.
  void WarmUp(Warehouse* wh, CheckLog* checks) override {
    FailureCap cold_wrong(checks, "dashboard cold answer differs from the "
                                  "generated data");
    first_cold_.assign(templates_.size(), 0);
    for (size_t t = 0; t < templates_.size(); ++t) {
      auto result = wh->Execute(templates_[t].sql);
      if (!result.ok()) {
        checks->Fail("dashboard warm-up: " + result.status().ToString());
        continue;
      }
      first_cold_[t] = Fingerprint(ToIntRows(result->rows));
      if (first_cold_[t] != templates_[t].fingerprint) {
        cold_wrong.Fail(templates_[t].sql);
      }
    }
  }

  void Run(Warehouse* wh, double seconds, Phase* phase,
           CheckLog* checks) override {
    const int workers = ClientThreads(3, 1);
    phase->client_threads = workers + 1;
    // The schedule: request j is due at j / rate; one slot per operator
    // period is the operator's system-table poll (-1).
    const size_t n = static_cast<size_t>(seconds * kDashboardRate);
    const size_t operator_every =
        static_cast<size_t>(kDashboardRate * kOperatorPeriodS);
    std::mt19937_64 rng(Mix(seed_, 1, 200));
    ZipfPicker zipf(static_cast<int>(templates_.size()), kDashboardZipfTheta,
                    &rng);
    std::vector<int> schedule(n);
    for (size_t j = 0; j < n; ++j) {
      schedule[j] = j % operator_every == operator_every / 2 ? -1 : zipf.Next();
    }
    std::vector<uint64_t> answer(n, 0);
    std::vector<uint8_t> answered(n, 0), cached(n, 0);
    std::vector<uint64_t> blocks(n, 0);

    SelectCounts counts;
    counts.base = wh->query_log()->Snapshot().size();
    Dispatch dispatch;
    LastCompletion last;
    const Clock::time_point start = After(Clock::now(), 0.005);
    auto due = [&](size_t j) { return After(start, j / kDashboardRate); };
    {
      Threads threads(phase);
      threads.Start([&](SpanBuffer*, Recorder* rec) {
        for (size_t j = 0; j < n; ++j) {
          // Sleep to just short of the due time, then spin, so requests
          // leave on time unless the thread is descheduled.
          std::this_thread::sleep_until(due(j) - std::chrono::microseconds(300));
          while (Clock::now() < due(j)) CpuRelax();
          rec->lateness_ms.push_back(Ms(due(j), Clock::now()));
          dispatch.Release(j + 1);
        }
        dispatch.Close();
      });
      for (int w = 0; w < workers; ++w) {
        threads.Start([&](SpanBuffer* spans, Recorder* rec) {
          Client client(wh, spans);
          size_t j = 0;
          while (dispatch.Claim(&j)) {
            if (schedule[j] < 0) {
              OperatorPoll(&client, j / operator_every, &counts, rec, checks);
            } else {
              IntRows rows;
              if (RunSelect(&client, templates_[schedule[j]].sql, due(j),
                            &counts, rec, &rows)) {
                answer[j] = Fingerprint(rows);
                answered[j] = 1;
                cached[j] = rec->selects.back().from_result_cache;
                blocks[j] = rec->selects.back().exec.blocks_decoded;
              }
            }
            last.Note();
          }
        });
      }
    }
    phase->window_s = last.SecondsSince(start);

    // Every answer equals its template's first cold answer (any SELECT
    // the cache could not serve is held to the same answer).
    FailureCap wrong(checks, "dashboard answer differs from the template's "
                             "first cold answer");
    for (size_t j = 0; j < n; ++j) {
      if (schedule[j] < 0 || !answered[j]) continue;
      if (answer[j] != first_cold_[schedule[j]]) {
        wrong.Fail(templates_[schedule[j]].sql +
                   (cached[j] ? " (cache-served)" : " (executed)"));
      }
    }

    // After warm-up every template has been answered, so SELECTs
    // should decode nothing.
    warm_selects_ = 0;
    warm_blocks_ = 0;
    for (size_t j = 0; j < n; ++j) {
      if (schedule[j] < 0 || !answered[j]) continue;
      ++warm_selects_;
      warm_blocks_ += blocks[j];
    }
  }

  std::vector<ShapeCheck> Shape(const Phase& phase) const override {
    const double hits = Delta(phase.before, phase.after, "sdw_cache_result_hits");
    const double misses =
        Delta(phase.before, phase.after, "sdw_cache_result_misses");
    const double evictions =
        Delta(phase.before, phase.after, "sdw_cache_result_evictions");
    const double warm = Ratio(static_cast<double>(warm_blocks_),
                              static_cast<double>(warm_selects_));
    return {
        ThreadsCheck(phase),
        {"blocks decoded per SELECT after warm-up " + Fmt(warm) +
             " (base " + std::to_string(warm_selects_) + " SELECTs) < 0.01",
         warm_selects_ > 0 && warm < 0.01},
        {"result cache hit ratio " + Fmt(Ratio(hits, hits + misses)) +
             " (base " + Fmt(hits + misses) + " lookups) >= 0.95, evictions " +
             Fmt(evictions) + " == 0",
         Ratio(hits, hits + misses) >= 0.95 && evictions == 0},
    };
  }

  ProbeSpec Probe() const override {
    ProbeSpec spec;
    spec.table = "sales";
    spec.columns = {0, 1, 2, 3};  // day, region, store, amount
    spec.filter_column = 3;
    spec.filter_below = kAmountDomain / 2;
    spec.group_column = 1;
    spec.sum_column = 3;
    spec.csv_batch = csv_[0];
    spec.copy_sql = "COPY sales FROM 's3://bench/sales/' FORMAT CSV";
    return spec;
  }

 private:
  uint64_t seed_ = 0;
  std::vector<std::string> csv_;
  std::vector<Template> templates_;
  std::vector<uint64_t> first_cold_;
  uint64_t warm_selects_ = 0;
  uint64_t warm_blocks_ = 0;
};

// ---------------------------------------------------------------------------

// One-off analyst queries over the fact table, issued in the cycle
// A B C D by two closed-loop clients:
//   A  filter (keeping 90-100% of rows) + GROUP BY aggregate over the
//      whole table (grp, qty, cust, price: 4 columns, 128 blocks per
//      shard, twice the decode cache);
//   B  the same aggregate over a sort-key range of 60% of the table, the
//      rest pruned by zone maps;
//   C  join with customers, co-located on the distribution key, over a
//      sort-key range of a third of the table;
//   D  join with products, broadcast (2,000 rows is under the planner's
//      100,000-row broadcast threshold), over a quarter of the table.
// The ranges keep the four kinds within about 2x of each other in cost,
// so the latency percentiles do not sit on a gap between kinds. Each
// query carries a literal no other query of the run uses, so neither
// the result cache nor the segment cache can answer it.
class ScanAgg : public Workload {
 public:
  int setup_reps() const override { return 3; }

  void Prepare(uint64_t seed) override {
    seed_ = seed;
    events_csv_ = EventsCsv(seed, 0, kScanEventsRows, kCsvParts);
    customers_csv_ = CustomersCsv(seed, 2);
    products_csv_ = ProductsCsv(seed, 1);
    segment_.resize(kCustomers);
    category_.resize(kProducts);
    for (int64_t i = 0; i < kCustomers; ++i) segment_[i] = CustomerSegment(seed, i);
    for (int64_t i = 0; i < kProducts; ++i) category_[i] = ProductCategory(seed, i);
    BuildAnswers();
    BuildQueries();
  }

  std::vector<TableLoad> BaseTables() const override {
    return {{kCustomersDdl, "customers", &customers_csv_},
            {kProductsDdl, "products", &products_csv_},
            {kEventsDdl, "events", &events_csv_}};
  }

  void Run(Warehouse* wh, double seconds, Phase* phase,
           CheckLog* checks) override {
    const int clients = ClientThreads(2, 1);
    phase->client_threads = clients + 1;
    std::vector<IntRows> answers(queries_.size());
    std::vector<uint8_t> answered(queries_.size(), 0);
    std::vector<double> latency_ms(queries_.size(), 0);
    std::atomic<size_t> next{0};
    SelectCounts counts;
    counts.base = wh->query_log()->Snapshot().size();
    LastCompletion last;
    const Clock::time_point start = Clock::now();
    const Clock::time_point end = After(start, seconds);
    {
      Threads threads(phase);
      for (int c = 0; c < clients; ++c) {
        threads.Start([&](SpanBuffer* spans, Recorder* rec) {
          Client client(wh, spans);
          while (Clock::now() < end) {
            const size_t i = next.fetch_add(1);
            if (i >= queries_.size()) break;
            if (RunSelect(&client, queries_[i].sql, Clock::now(), &counts, rec,
                          &answers[i])) {
              answered[i] = 1;
              latency_ms[i] = rec->select_ms.back();
            }
            last.Note();
          }
        });
      }
      threads.Start([&](SpanBuffer* spans, Recorder* rec) {
        OperatorLoop(wh, spans, start, end, &counts, rec, checks);
      });
    }
    phase->window_s = last.SecondsSince(start);

    FailureCap wrong(checks, "scan_agg answer differs from the generated data");
    std::map<char, std::vector<double>> by_kind;
    for (size_t i = 0; i < queries_.size(); ++i) {
      if (!answered[i]) continue;
      by_kind[queries_[i].kind].push_back(latency_ms[i]);
      const IntRows want = Expected(queries_[i]);
      if (answers[i] != want) {
        wrong.Fail(queries_[i].sql + " returned " + RowsToString(answers[i]) +
                   ", expected " + RowsToString(want));
      }
    }
    kinds_.clear();
    for (const auto& [kind, ms] : by_kind) {
      kinds_ += std::string(kinds_.empty() ? "" : ", ") + kind + " n=" +
                std::to_string(ms.size()) + " p50 " + Fmt(Median(ms)) + " ms";
    }
  }

  std::vector<ShapeCheck> Shape(const Phase& phase) const override {
    const double hits = Delta(phase.before, phase.after, "sdw_cache_result_hits");
    const double misses =
        Delta(phase.before, phase.after, "sdw_cache_result_misses");
    double blocks = 0;
    double executed = 0;
    for (const StmtSample& s : phase.rec.selects) {
      if (!s.ok) continue;
      blocks += static_cast<double>(s.exec.blocks_decoded);
      ++executed;
    }
    const double per_shard =
        Ratio(blocks, executed) / (kNodes * kSlicesPerNode);
    return {
        ThreadsCheck(phase),
        {"result cache hit ratio " + Fmt(Ratio(hits, hits + misses)) +
             " (base " + Fmt(hits + misses) + " lookups) < 0.01",
         hits + misses > 0 && Ratio(hits, hits + misses) < 0.01},
        {"blocks decoded per query per shard " + Fmt(per_shard) + " (base " +
             Fmt(executed) + " queries) > 64-block decode cache; by kind: " +
             kinds_,
         per_shard > 64},
    };
  }

  ProbeSpec Probe() const override { return EventsProbe(seed_, kScanEventsRows); }

  static ProbeSpec EventsProbe(uint64_t seed, uint64_t rows) {
    ProbeSpec spec;
    spec.table = "events";
    spec.columns = {3, 4, 1, 5};  // grp, qty, cust, price
    spec.filter_column = 3;
    spec.filter_below = kPriceDomain / 2;
    spec.group_column = 0;
    spec.sum_column = 1;
    spec.csv_batch = EventsCsv(seed, rows, rows + kIngestBatchRows, 1)[0];
    spec.copy_sql = "COPY events FROM 's3://bench/ingest/batch-0/' FORMAT CSV";
    return spec;
  }

 private:
  static constexpr int64_t kChunkRows = 65'536;
  static constexpr int64_t kRows = static_cast<int64_t>(kScanEventsRows);

  struct Query {
    char kind = 'A';
    int64_t lo = 0;
    int64_t hi = 0;
    std::string sql;
  };

  // One group's running aggregate: COUNT(*), one SUM, one MIN, one MAX.
  struct Cell {
    int64_t count = 0;
    int64_t sum = 0;
    int64_t min = INT64_MAX;
    int64_t max = INT64_MIN;
    void Merge(const Cell& o) {
      count += o.count;
      sum += o.sum;
      min = std::min(min, o.min);
      max = std::max(max, o.max);
    }
  };

  // What row `e` adds to the answer of a range kind: its group and the
  // single-row Cell. B: grp -> SUM(qty), MIN(cust), MAX(price);
  // C: segment -> SUM(qty), MIN(grp), MAX(price); D: category ->
  // SUM(price), MAX(grp).
  std::pair<int64_t, Cell> Contribution(char kind, const EventRow& e) const {
    switch (kind) {
      case 'B':
        return {e.grp, Cell{1, e.qty, e.cust, e.price}};
      case 'C':
        return {segment_[e.cust], Cell{1, e.qty, e.grp, e.price}};
      default:
        return {category_[e.prod], Cell{1, e.price, INT64_MAX, e.grp}};
    }
  }

  static int64_t Groups(char kind) {
    return kind == 'B' ? kGroups : kind == 'C' ? kSegments : kCategories;
  }

  static int RangeIndex(char kind) { return kind - 'B'; }

  // Kind A from a (grp, price) histogram; kinds B-D from per-chunk
  // aggregates over the sort key (ts = row number), plus the rows of the
  // two partial chunks at the range's ends.
  void BuildAnswers() {
    by_grp_price_.assign(kGroups * kPriceDomain, Cell{});
    const int64_t chunks = (kRows + kChunkRows - 1) / kChunkRows;
    for (char kind : {'B', 'C', 'D'}) {
      chunk_cells_[RangeIndex(kind)].assign(chunks * Groups(kind), Cell{});
    }
    for (int64_t i = 0; i < kRows; ++i) {
      const EventRow e = MakeEvent(seed_, static_cast<uint64_t>(i));
      by_grp_price_[e.grp * kPriceDomain + e.price].Merge(
          Cell{1, e.qty, e.cust, e.price});
      const int64_t chunk = i / kChunkRows;
      for (char kind : {'B', 'C', 'D'}) {
        const auto [group, cell] = Contribution(kind, e);
        chunk_cells_[RangeIndex(kind)][chunk * Groups(kind) + group].Merge(cell);
      }
    }
  }

  void BuildQueries() {
    std::mt19937_64 rng(Mix(seed_, 2, 300));
    auto permutation = [&rng](int64_t lo, int64_t hi) {
      std::vector<int64_t> v;
      for (int64_t x = lo; x < hi; ++x) v.push_back(x);
      std::shuffle(v.begin(), v.end(), rng);
      return v;
    };
    // A keeps 90-100% of the rows, so its cost barely depends on the seed.
    const std::vector<int64_t> prices =
        permutation(kPriceDomain * 9 / 10, kPriceDomain);
    const std::map<char, int64_t> widths = {
        {'B', kRows * 3 / 5}, {'C', kRows / 3}, {'D', kRows / 4}};
    std::map<char, std::vector<int64_t>> starts;
    for (const auto& [kind, width] : widths) {
      std::set<int64_t> distinct;
      while (distinct.size() < prices.size()) {
        const int64_t start = static_cast<int64_t>(rng() % (kRows - width));
        if (distinct.insert(start).second) starts[kind].push_back(start);
      }
    }
    for (size_t j = 0; j < prices.size(); ++j) {
      for (char kind : {'A', 'B', 'C', 'D'}) {
        Query q;
        q.kind = kind;
        if (kind == 'A') {
          q.lo = prices[j];
          q.sql = "SELECT grp, COUNT(*), SUM(qty), MIN(cust), MAX(price) "
                  "FROM events WHERE price < " + std::to_string(q.lo) +
                  " GROUP BY grp ORDER BY grp";
          queries_.push_back(std::move(q));
          continue;
        }
        q.lo = starts[kind][j];
        q.hi = q.lo + widths.at(kind) - 1;
        const std::string range = " WHERE ts BETWEEN " + std::to_string(q.lo) +
                                  " AND " + std::to_string(q.hi);
        if (kind == 'B') {
          q.sql = "SELECT grp, COUNT(*), SUM(qty), MIN(cust), MAX(price) "
                  "FROM events" + range + " GROUP BY grp ORDER BY grp";
        } else if (kind == 'C') {
          q.sql = "SELECT segment, COUNT(*), SUM(qty), MIN(grp), MAX(price) "
                  "FROM events JOIN customers ON events.cust = customers.id" +
                  range + " GROUP BY segment ORDER BY segment";
        } else {
          q.sql = "SELECT category, COUNT(*), SUM(price), MAX(grp) "
                  "FROM events JOIN products ON events.prod = products.id" +
                  range + " GROUP BY category ORDER BY category";
        }
        queries_.push_back(std::move(q));
      }
    }
  }

  IntRows Expected(const Query& q) const {
    IntRows out;
    if (q.kind == 'A') {
      for (int64_t g = 0; g < kGroups; ++g) {
        Cell acc;
        for (int64_t p = 0; p < q.lo; ++p) {
          acc.Merge(by_grp_price_[g * kPriceDomain + p]);
        }
        if (acc.count > 0) out.push_back({g, acc.count, acc.sum, acc.min, acc.max});
      }
      return out;
    }
    const int64_t groups = Groups(q.kind);
    const std::vector<Cell>& chunks = chunk_cells_[RangeIndex(q.kind)];
    std::vector<Cell> acc(groups);
    const int64_t first_full = (q.lo + kChunkRows - 1) / kChunkRows;
    const int64_t end_full = (q.hi + 1) / kChunkRows;
    auto add_rows = [&](int64_t from, int64_t to) {  // [from, to)
      for (int64_t i = from; i < to; ++i) {
        const auto [group, cell] =
            Contribution(q.kind, MakeEvent(seed_, static_cast<uint64_t>(i)));
        acc[group].Merge(cell);
      }
    };
    if (first_full >= end_full) {
      add_rows(q.lo, q.hi + 1);
    } else {
      add_rows(q.lo, first_full * kChunkRows);
      for (int64_t c = first_full; c < end_full; ++c) {
        for (int64_t g = 0; g < groups; ++g) acc[g].Merge(chunks[c * groups + g]);
      }
      add_rows(end_full * kChunkRows, q.hi + 1);
    }
    for (int64_t g = 0; g < groups; ++g) {
      const Cell& c = acc[g];
      if (c.count == 0) continue;
      if (q.kind == 'B') out.push_back({g, c.count, c.sum, c.min, c.max});
      if (q.kind == 'C') out.push_back({g, c.count, c.sum, c.min, c.max});
      if (q.kind == 'D') out.push_back({g, c.count, c.sum, c.max});
    }
    return out;
  }

  uint64_t seed_ = 0;
  std::vector<std::string> events_csv_;
  std::vector<std::string> customers_csv_;
  std::vector<std::string> products_csv_;
  std::vector<int64_t> segment_;
  std::vector<int64_t> category_;
  std::vector<Cell> by_grp_price_;
  std::vector<Cell> chunk_cells_[3];
  std::vector<Query> queries_;
  std::string kinds_;
};

// ---------------------------------------------------------------------------

// ETL beside readers: one thread COPYs a kIngestBatchRows batch into
// `events` every kCopyPeriodS (open loop, timed from the due time) while
// closed-loop readers repeat SELECTs over `events` and `sales`.
class IngestMixed : public Workload {
 public:
  int setup_reps() const override { return 5; }

  void Prepare(uint64_t seed) override {
    seed_ = seed;
    events_csv_ = EventsCsv(seed, 0, kIngestEventsRows, kCsvParts);
    sales_csv_ = SalesCsv(seed, kCsvParts);
    std::vector<Template> sales = SalesTemplates(seed, kDashboardTemplatesPerKind);
    sales.resize(kIngestSalesTemplates);
    sales_templates_ = std::move(sales);

    std::mt19937_64 rng(Mix(seed, 3, 400));
    event_groups_.resize(kGroups);
    for (int64_t g = 0; g < kGroups; ++g) event_groups_[g] = g;
    std::shuffle(event_groups_.begin(), event_groups_.end(), rng);
    base_.assign(kGroups, Totals{});
    for (uint64_t i = 0; i < kIngestEventsRows; ++i) Add(MakeEvent(seed, i), &base_);
  }

  std::vector<TableLoad> BaseTables() const override {
    return {{kEventsDdl, "events", &events_csv_}, {kSalesDdl, "sales", &sales_csv_}};
  }

  void Run(Warehouse* wh, double seconds, Phase* phase,
           CheckLog* checks) override {
    const int readers = ClientThreads(2, 2);
    phase->client_threads = readers + 2;
    // Stage every batch the schedule can reach before the clock starts.
    const size_t batches = static_cast<size_t>(std::ceil(seconds / kCopyPeriodS));
    EnsureBatches(batches);
    for (size_t k = 0; k < batches; ++k) {
      const sdw::Status staged =
          Stage(wh, "ingest/batch-" + std::to_string(k), {batch_csv_[k]});
      if (!staged.ok()) checks->Fail("staging COPY batch: " + staged.ToString());
    }

    struct Read {
      int tmpl = 0;  // < kGroups: an events template; else a sales one
      uint64_t lo = 0;
      uint64_t hi = 0;
      IntRows rows;
    };
    std::vector<std::vector<Read>> reads(readers);
    std::atomic<uint64_t> copies_started{0};
    std::atomic<uint64_t> copies_acked{0};
    SelectCounts counts;
    counts.base = wh->query_log()->Snapshot().size();
    LastCompletion last;
    const Clock::time_point start = Clock::now();
    const Clock::time_point end = After(start, seconds);
    {
      Threads threads(phase);
      threads.Start([&](SpanBuffer* spans, Recorder* rec) {
        Client client(wh, spans);
        for (size_t k = 0; k < batches; ++k) {
          const Clock::time_point due = After(start, k * kCopyPeriodS);
          std::this_thread::sleep_until(due);
          rec->lateness_ms.push_back(Ms(due, Clock::now()));
          copies_started.store(k + 1);
          ++rec->attempted;
          StatementResult result;
          const StmtSample s = client.Run(
              "COPY events FROM 's3://bench/ingest/batch-" + std::to_string(k) +
                  "/' FORMAT CSV",
              StmtKind::kCopy, &result);
          const Clock::time_point done = Clock::now();
          last.Note();
          if (!s.ok) {
            // Later batches would no longer line up with the expected
            // prefix sums, so the stream stops at the first failure.
            ++rec->failed;
            rec->copy_ms.push_back(kFailedMs);
            break;
          }
          rec->copy_ms.push_back(Ms(due, done));
          ++rec->copies;
          rec->copy_rows += result.copy_stats.rows_loaded;
          copies_acked.store(k + 1);
        }
      });
      for (int r = 0; r < readers; ++r) {
        threads.Start([&, r](SpanBuffer* spans, Recorder* rec) {
          Client client(wh, spans);
          for (uint64_t n = 0; Clock::now() < end; ++n) {
            Read read;
            const uint64_t slot = n / 4 * 3 + n % 4;  // events SELECTs so far
            read.tmpl = n % 4 == 3
                            ? kGroups + static_cast<int>((r + 2 * (n / 4)) %
                                                         kIngestSalesTemplates)
                            : static_cast<int>((r + 2 * slot) % kGroups);
            read.lo = copies_acked.load();
            const std::string sql = read.tmpl < kGroups
                                        ? EventSql(read.tmpl)
                                        : sales_templates_[read.tmpl - kGroups].sql;
            const bool ok = RunSelect(&client, sql, Clock::now(), &counts, rec,
                                      &read.rows);
            read.hi = copies_started.load();
            last.Note();
            if (ok) reads[r].push_back(std::move(read));
            std::this_thread::sleep_for(std::chrono::duration<double>(kReaderThinkS));
          }
        });
      }
      threads.Start([&](SpanBuffer* spans, Recorder* rec) {
        OperatorLoop(wh, spans, start, end, &counts, rec, checks);
      });
    }
    phase->window_s = last.SecondsSince(start);

    // Prefix totals per group after k acknowledged batches.
    const uint64_t acked = copies_acked.load();
    std::vector<std::vector<Totals>> prefix(acked + 1, base_);
    for (uint64_t k = 0; k < acked; ++k) {
      prefix[k + 1] = prefix[k];
      for (uint64_t i = 0; i < kIngestBatchRows; ++i) {
        Add(MakeEvent(seed_, BatchBegin(k) + i), &prefix[k + 1]);
      }
    }
    FailureCap wrong(checks, "ingest_mixed reader answer matches no committed "
                             "COPY prefix");
    for (const std::vector<Read>& list : reads) {
      for (const Read& read : list) {
        if (read.tmpl >= kGroups) {
          const Template& t = sales_templates_[read.tmpl - kGroups];
          if (Fingerprint(read.rows) != t.fingerprint) wrong.Fail(t.sql);
          continue;
        }
        const int64_t g = event_groups_[read.tmpl];
        bool matched = false;
        for (uint64_t k = read.lo; k <= std::min(read.hi, acked) && !matched; ++k) {
          const Totals& want = prefix[k][g];
          matched = read.rows == IntRows{{want.count, want.qty, want.price}};
        }
        if (!matched) {
          wrong.Fail(EventSql(read.tmpl) + " returned " + RowsToString(read.rows));
        }
      }
    }
    // After the run: the table holds the base rows plus every
    // acknowledged COPY, no more and no less.
    auto total = wh->Execute("SELECT COUNT(*), SUM(qty), SUM(price) FROM events");
    Totals want;
    for (const Totals& t : prefix[acked]) {
      want.count += t.count;
      want.qty += t.qty;
      want.price += t.price;
    }
    const IntRows want_rows{{want.count, want.qty, want.price}};
    if (!total.ok()) {
      checks->Fail("final COUNT/SUM on events failed: " + total.status().ToString());
    } else if (ToIntRows(total->rows) != want_rows) {
      checks->Fail("events after the run holds " + RowsToString(ToIntRows(total->rows)) +
                   ", expected base + " + std::to_string(acked) + " COPYs = " +
                   RowsToString(want_rows));
    }
    copies_ = phase->rec.copies;
  }

  std::vector<ShapeCheck> Shape(const Phase& phase) const override {
    const double versions =
        Delta(phase.before, phase.after, "sdw_mvcc_versions_installed");
    return {
        ThreadsCheck(phase),
        {"MVCC versions installed " + Fmt(versions) + " >= COPYs " +
             std::to_string(copies_) + " > 0",
         copies_ > 0 && versions >= static_cast<double>(copies_)},
    };
  }

  ProbeSpec Probe() const override {
    return ScanAgg::EventsProbe(seed_, kIngestEventsRows);
  }

 private:
  struct Totals {
    int64_t count = 0;
    int64_t qty = 0;
    int64_t price = 0;
  };

  static void Add(const EventRow& e, std::vector<Totals>* totals) {
    Totals& t = (*totals)[e.grp];
    ++t.count;
    t.qty += e.qty;
    t.price += e.price;
  }

  static uint64_t BatchBegin(uint64_t k) {
    return kIngestEventsRows + k * kIngestBatchRows;
  }

  std::string EventSql(int tmpl) const {
    return "SELECT COUNT(*), SUM(qty), SUM(price) FROM events WHERE grp = " +
           std::to_string(event_groups_[tmpl]);
  }

  void EnsureBatches(size_t n) {
    while (batch_csv_.size() < n) {
      const uint64_t k = batch_csv_.size();
      batch_csv_.push_back(
          EventsCsv(seed_, BatchBegin(k), BatchBegin(k) + kIngestBatchRows, 1)[0]);
    }
  }

  uint64_t seed_ = 0;
  std::vector<std::string> events_csv_;
  std::vector<std::string> sales_csv_;
  std::vector<std::string> batch_csv_;
  std::vector<Template> sales_templates_;
  std::vector<int64_t> event_groups_;
  std::vector<Totals> base_;
  uint64_t copies_ = 0;
};

}  // namespace

void Recorder::Merge(Recorder&& other) {
  auto append = [](auto* to, auto& from) {
    to->insert(to->end(), std::make_move_iterator(from.begin()),
               std::make_move_iterator(from.end()));
  };
  append(&select_ms, other.select_ms);
  append(&system_ms, other.system_ms);
  append(&copy_ms, other.copy_ms);
  append(&lateness_ms, other.lateness_ms);
  append(&selects, other.selects);
  attempted += other.attempted;
  failed += other.failed;
  copies += other.copies;
  copy_rows += other.copy_rows;
}

std::vector<const SpanBuffer*> Phase::span_views() const {
  std::vector<const SpanBuffer*> out;
  for (const auto& s : spans) out.push_back(s.get());
  return out;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"dashboard", "scan_agg",
                                                 "ingest_mixed"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "dashboard") return std::make_unique<Dashboard>();
  if (name == "scan_agg") return std::make_unique<ScanAgg>();
  if (name == "ingest_mixed") return std::make_unique<IngestMixed>();
  return nullptr;
}

}  // namespace perfbench
