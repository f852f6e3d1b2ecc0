#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <set>
#include <thread>

#include "common/random.h"
#include "warehouse/warehouse.h"

namespace sdw::warehouse {
namespace {

WarehouseOptions SmallOptions() {
  WarehouseOptions options;
  options.cluster.num_nodes = 2;
  options.cluster.slices_per_node = 2;
  options.cluster.storage.max_rows_per_block = 256;
  return options;
}

class WarehouseTest : public ::testing::Test {
 protected:
  void SetUp() override { wh_ = std::make_unique<Warehouse>(SmallOptions()); }

  StatementResult MustRun(const std::string& sql) {
    auto r = wh_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
    return r.ok() ? std::move(*r) : StatementResult{};
  }

  std::unique_ptr<Warehouse> wh_;
};

TEST_F(WarehouseTest, EndToEndSqlSession) {
  MustRun(
      "CREATE TABLE sales (day BIGINT, store BIGINT, amount DOUBLE "
      "PRECISION) DISTKEY(store) SORTKEY(day)");
  MustRun(
      "CREATE TABLE stores (id BIGINT, city VARCHAR) DISTSTYLE ALL");
  MustRun("INSERT INTO stores VALUES (1, 'seattle'), (2, 'portland')");
  // Load sales through INSERT.
  std::string insert = "INSERT INTO sales VALUES ";
  Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    if (i) insert += ", ";
    insert += "(" + std::to_string(i % 30) + ", " +
              std::to_string(1 + (i % 2)) + ", " +
              std::to_string(1.0 + rng.NextDouble()) + ")";
  }
  MustRun(insert);
  MustRun("ANALYZE sales");

  auto result = MustRun(
      "SELECT city, COUNT(*) AS n, AVG(amount) AS avg_amount "
      "FROM sales JOIN stores ON sales.store = stores.id "
      "WHERE day >= 10 GROUP BY city ORDER BY city");
  ASSERT_EQ(result.rows.num_rows(), 2u);
  EXPECT_EQ(result.column_names,
            (std::vector<std::string>{"city", "n", "avg_amount"}));
  EXPECT_EQ(result.rows.columns[0].StringAt(0), "portland");
  EXPECT_EQ(result.rows.columns[0].StringAt(1), "seattle");
  // 300 rows, day >= 10 keeps 2/3, split evenly by store.
  EXPECT_EQ(result.rows.columns[1].IntAt(0) + result.rows.columns[1].IntAt(1),
            200);
  EXPECT_GT(result.rows.columns[2].DoubleAt(0), 1.0);
}

TEST_F(WarehouseTest, ExplainShowsStrategy) {
  MustRun("CREATE TABLE f (k BIGINT, v BIGINT) DISTKEY(k)");
  MustRun("CREATE TABLE d (id BIGINT, name VARCHAR) DISTKEY(id)");
  auto result = MustRun(
      "EXPLAIN SELECT name, COUNT(*) FROM f JOIN d ON f.k = d.id GROUP BY "
      "name");
  EXPECT_NE(result.message.find("CO-LOCATED"), std::string::npos);
  EXPECT_NE(result.message.find("Final HashAggregate"), std::string::npos);
}

TEST_F(WarehouseTest, CopyFromObjectStore) {
  MustRun("CREATE TABLE logs (ts BIGINT, path VARCHAR) SORTKEY(ts)");
  std::string csv;
  for (int i = 0; i < 1000; ++i) {
    csv += std::to_string(i) + ",/page" + std::to_string(i % 7) + "\n";
  }
  ASSERT_TRUE(wh_->s3()
                  ->region("us-east-1")
                  ->PutObject("bkt/logs/part-0", Bytes(csv.begin(), csv.end()))
                  .ok());
  auto result = MustRun("COPY logs FROM 's3://bkt/logs/' FORMAT CSV");
  EXPECT_EQ(result.copy_stats.rows_loaded, 1000u);
  auto count = MustRun("SELECT COUNT(*) AS n FROM logs");
  EXPECT_EQ(count.rows.columns[0].IntAt(0), 1000);
}

TEST_F(WarehouseTest, BackupRestoreRoundTrip) {
  MustRun("CREATE TABLE t (a BIGINT, b VARCHAR)");
  MustRun("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')");
  auto backup = wh_->Backup(/*user_initiated=*/true);
  ASSERT_TRUE(backup.ok()) << backup.status();
  // Mutate after the snapshot.
  MustRun("INSERT INTO t VALUES (4, 'w')");
  EXPECT_EQ(MustRun("SELECT COUNT(*) AS n FROM t").rows.columns[0].IntAt(0),
            4);
  // Restore rolls back to snapshot state.
  backup::BackupManager::RestoreStats stats;
  ASSERT_TRUE(wh_->RestoreInPlace(backup->snapshot_id, &stats).ok());
  EXPECT_EQ(MustRun("SELECT COUNT(*) AS n FROM t").rows.columns[0].IntAt(0),
            3);
}

TEST_F(WarehouseTest, ResizeKeepsServing) {
  MustRun("CREATE TABLE t (a BIGINT)");
  MustRun("INSERT INTO t VALUES (1), (2), (3), (4), (5)");
  auto stats = wh_->Resize(4);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(wh_->data_plane()->num_nodes(), 4);
  EXPECT_EQ(MustRun("SELECT SUM(a) AS s FROM t").rows.columns[0].IntAt(0),
            15);
  // Writes continue on the new cluster.
  MustRun("INSERT INTO t VALUES (6)");
  EXPECT_EQ(MustRun("SELECT COUNT(*) AS n FROM t").rows.columns[0].IntAt(0),
            6);
}

TEST_F(WarehouseTest, BetweenInAndLikePrefix) {
  MustRun("CREATE TABLE logs (day BIGINT, path VARCHAR, code BIGINT) "
          "SORTKEY(day)");
  std::string sql = "INSERT INTO logs VALUES ";
  for (int i = 0; i < 300; ++i) {
    if (i) sql += ", ";
    sql += "(" + std::to_string(i % 30) + ", '/" +
           (i % 3 == 0 ? std::string("api/v") + std::to_string(i % 5)
                       : std::string("static/img")) +
           "', " + std::to_string(200 + 100 * (i % 4)) + ")";
  }
  MustRun(sql);

  auto between = MustRun(
      "SELECT COUNT(*) AS n FROM logs WHERE day BETWEEN 10 AND 19");
  EXPECT_EQ(between.rows.columns[0].IntAt(0), 100);

  auto in_list = MustRun(
      "SELECT COUNT(*) AS n FROM logs WHERE code IN (200, 400)");
  EXPECT_EQ(in_list.rows.columns[0].IntAt(0), 150);

  auto like = MustRun(
      "SELECT COUNT(*) AS n FROM logs WHERE path LIKE '/api/%'");
  EXPECT_EQ(like.rows.columns[0].IntAt(0), 100);

  // Combined conjuncts.
  auto combo = MustRun(
      "SELECT COUNT(*) AS n FROM logs WHERE day BETWEEN 0 AND 29 AND "
      "path LIKE '/api/%' AND code IN (200, 300, 400, 500)");
  EXPECT_EQ(combo.rows.columns[0].IntAt(0), 100);

  // Unsupported LIKE patterns fail with guidance, not wrong answers.
  auto bad = wh_->Execute("SELECT COUNT(*) FROM logs WHERE path LIKE '%x'");
  EXPECT_EQ(bad.status().code(), StatusCode::kNotSupported);
  auto mid = wh_->Execute("SELECT COUNT(*) FROM logs WHERE path LIKE 'a%b'");
  EXPECT_FALSE(mid.ok());
}

TEST_F(WarehouseTest, BetweenPrunesBlocks) {
  MustRun("CREATE TABLE series (ts BIGINT, v BIGINT) SORTKEY(ts)");
  std::string sql = "INSERT INTO series VALUES (0, 0)";
  for (int i = 1; i < 4000; ++i) {
    sql += ", (" + std::to_string(i) + ", " + std::to_string(i % 7) + ")";
  }
  MustRun(sql);
  auto narrow =
      MustRun("SELECT COUNT(*) AS n FROM series WHERE ts BETWEEN 100 AND 140");
  EXPECT_EQ(narrow.rows.columns[0].IntAt(0), 41);
  auto full = MustRun("SELECT COUNT(*) AS n FROM series");
  EXPECT_LT(narrow.exec_stats.blocks_decoded * 3,
            full.exec_stats.blocks_decoded)
      << "BETWEEN must feed the zone maps";
}

TEST_F(WarehouseTest, VacuumAcceptedAndErrorsPropagate) {
  MustRun("CREATE TABLE t (a BIGINT)");
  auto vacuum = wh_->Execute("VACUUM t");
  ASSERT_TRUE(vacuum.ok());
  EXPECT_FALSE(wh_->Execute("SELECT a FROM missing").ok());
  EXPECT_FALSE(wh_->Execute("CREATE TABLE t (a BIGINT)").ok());  // dup
  EXPECT_FALSE(wh_->Execute("INSERT INTO t VALUES (1, 2)").ok());  // arity
  EXPECT_FALSE(wh_->Execute("garbage statement").ok());
}

TEST_F(WarehouseTest, TransactionRollbackUndoesWrites) {
  MustRun("CREATE TABLE t (a BIGINT) SORTKEY(a)");
  MustRun("INSERT INTO t VALUES (1), (2), (3)");
  MustRun("BEGIN");
  MustRun("INSERT INTO t VALUES (4), (5)");
  MustRun("CREATE TABLE scratch (x BIGINT)");
  MustRun("INSERT INTO scratch VALUES (9)");
  EXPECT_EQ(MustRun("SELECT COUNT(*) AS n FROM t").rows.columns[0].IntAt(0),
            5);
  MustRun("ROLLBACK");
  // Pre-transaction state restored; the scratch table is gone.
  EXPECT_EQ(MustRun("SELECT COUNT(*) AS n FROM t").rows.columns[0].IntAt(0),
            3);
  EXPECT_FALSE(wh_->Execute("SELECT x FROM scratch").ok());
  EXPECT_EQ(MustRun("SELECT SUM(a) AS s FROM t").rows.columns[0].IntAt(0),
            6);
  // Writes after rollback land normally.
  MustRun("INSERT INTO t VALUES (10)");
  EXPECT_EQ(MustRun("SELECT COUNT(*) AS n FROM t").rows.columns[0].IntAt(0),
            4);
}

TEST_F(WarehouseTest, TransactionCommitKeepsWrites) {
  MustRun("CREATE TABLE t (a BIGINT)");
  MustRun("BEGIN");
  MustRun("INSERT INTO t VALUES (1), (2)");
  MustRun("COMMIT");
  EXPECT_EQ(MustRun("SELECT COUNT(*) AS n FROM t").rows.columns[0].IntAt(0),
            2);
}

TEST_F(WarehouseTest, TransactionGuards) {
  MustRun("CREATE TABLE t (a BIGINT)");
  // COMMIT/ROLLBACK without BEGIN.
  EXPECT_EQ(wh_->Execute("COMMIT").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(wh_->Execute("ROLLBACK").status().code(),
            StatusCode::kFailedPrecondition);
  MustRun("BEGIN");
  // Nested BEGIN rejected.
  EXPECT_EQ(wh_->Execute("BEGIN").status().code(),
            StatusCode::kFailedPrecondition);
  // Block-reclaiming ops rejected inside a transaction.
  EXPECT_EQ(wh_->Execute("DROP TABLE t").status().code(),
            StatusCode::kNotSupported);
  EXPECT_EQ(wh_->Execute("VACUUM t").status().code(),
            StatusCode::kNotSupported);
  EXPECT_EQ(wh_->Resize(4).status().code(), StatusCode::kFailedPrecondition);
  MustRun("COMMIT");
  // And allowed again afterwards.
  MustRun("DROP TABLE t");
}

TEST_F(WarehouseTest, RollbackUndoesCopyAndEncodings) {
  MustRun("CREATE TABLE logs (ts BIGINT, msg VARCHAR) SORTKEY(ts)");
  MustRun("BEGIN");
  std::string csv;
  for (int i = 0; i < 500; ++i) {
    csv += std::to_string(i) + ",message-" + std::to_string(i % 5) + "\n";
  }
  ASSERT_TRUE(wh_->s3()
                  ->region("us-east-1")
                  ->PutObject("bkt/roll/part-0", Bytes(csv.begin(), csv.end()))
                  .ok());
  MustRun("COPY logs FROM 's3://bkt/roll/'");
  EXPECT_EQ(MustRun("SELECT COUNT(*) AS n FROM logs").rows.columns[0].IntAt(0),
            500);
  // COPY's analyzer assigned encodings; rollback restores AUTO.
  EXPECT_NE(wh_->data_plane()->catalog()->GetTable("logs")->column(0).encoding,
            ColumnEncoding::kAuto);
  MustRun("ROLLBACK");
  EXPECT_EQ(MustRun("SELECT COUNT(*) AS n FROM logs").rows.columns[0].IntAt(0),
            0);
  EXPECT_EQ(wh_->data_plane()->catalog()->GetTable("logs")->column(0).encoding,
            ColumnEncoding::kAuto);
  // The same COPY works again after rollback.
  MustRun("COPY logs FROM 's3://bkt/roll/'");
  EXPECT_EQ(MustRun("SELECT COUNT(*) AS n FROM logs").rows.columns[0].IntAt(0),
            500);
}

TEST_F(WarehouseTest, ResultTableRendering) {
  MustRun("CREATE TABLE t (a BIGINT, b VARCHAR)");
  MustRun("INSERT INTO t VALUES (1, 'hello'), (2, NULL)");
  auto result = MustRun("SELECT a, b FROM t ORDER BY a");
  std::string table = result.ToTable();
  EXPECT_NE(table.find("hello"), std::string::npos);
  EXPECT_NE(table.find("NULL"), std::string::npos);
  EXPECT_NE(table.find("(2 rows)"), std::string::npos);
}

// A SELECT's blocks_decoded counts its own scans' work only: each block
// a scan reads is decoded once (the scan's cursor carries it across
// batches), so it equals the sum of the query's stl_scan.blocks_read,
// whatever other sessions run at the same time.
class ScanAccountingTest : public ::testing::Test {
 protected:
  static constexpr int kFactRows = 24000;

  void SetUp() override {
    WarehouseOptions options = SmallOptions();
    // 300-row blocks straddle the scans' 4,096-row batches, so a scan
    // reads some blocks in two batches.
    options.cluster.storage.max_rows_per_block = 300;
    options.cache.enable_result_cache = false;
    options.planner.broadcast_row_threshold = 500;
    options.wlm.concurrency_slots = 4;
    wh_ = std::make_unique<Warehouse>(options);
    Load("fact", "k BIGINT, day BIGINT, v BIGINT, tag VARCHAR",
         "DISTKEY(k) SORTKEY(day)", kFactRows, [](int i) {
           return std::to_string(i % 97) + "," + std::to_string(i / 40) + "," +
                  std::to_string(i % 1000) + ",t" + std::to_string(i % 13);
         });
    Load("dim", "id BIGINT, name VARCHAR", "DISTKEY(id)", 97, [](int i) {
      return std::to_string(i) + ",n" + std::to_string(i % 5);
    });
    Load("small", "id BIGINT, label VARCHAR", "", 200, [](int i) {
      return std::to_string(i * 5) + ",l" + std::to_string(i % 3);
    });
    Load("wide", "id BIGINT, w BIGINT", "", 2000, [](int i) {
      return std::to_string(i) + "," + std::to_string(i * 7);
    });
  }

  void Load(const std::string& table, const std::string& columns,
            const std::string& attributes, int rows,
            const std::function<std::string(int)>& row) {
    ASSERT_TRUE(wh_->Execute("CREATE TABLE " + table + " (" + columns + ") " +
                             attributes)
                    .ok());
    std::string csv;
    for (int i = 0; i < rows; ++i) csv += row(i) + "\n";
    ASSERT_TRUE(wh_->s3()
                    ->region("us-east-1")
                    ->PutObject("bkt/" + table + "/part-0",
                                Bytes(csv.begin(), csv.end()))
                    .ok());
    ASSERT_TRUE(
        wh_->Execute("COPY " + table + " FROM 's3://bkt/" + table + "/'").ok());
    ASSERT_TRUE(wh_->Execute("ANALYZE " + table).ok());
  }

  // Filter, sort-key range, and the three join strategies.
  static std::vector<std::pair<std::string, std::string>> Queries() {
    return {
        {"", "SELECT COUNT(*) AS n, SUM(v) AS s FROM fact WHERE v < 300"},
        {"", "SELECT COUNT(*) AS n, MAX(tag) AS t FROM fact "
             "WHERE day >= 100 AND day <= 250"},
        {"CO-LOCATED", "SELECT name, COUNT(*) AS n FROM fact JOIN dim "
                       "ON fact.k = dim.id GROUP BY name ORDER BY name"},
        {"BROADCAST", "SELECT label, SUM(v) AS s FROM fact JOIN small "
                      "ON fact.v = small.id GROUP BY label ORDER BY label"},
        {"SHUFFLE", "SELECT COUNT(*) AS n, SUM(w) AS s FROM fact JOIN wide "
                    "ON fact.v = wide.id WHERE day < 400"},
    };
  }

  // blocks_decoded against the query's own scan profiles (what stl_scan
  // records); returns false on a failed statement.
  static bool RunAndCheck(Warehouse::Session session, const std::string& sql,
                          std::atomic<int>* mismatches) {
    auto r = session.Execute(sql);
    if (!r.ok()) return false;
    uint64_t blocks_read = 0;
    for (const cluster::ScanProfile& scan : r->exec_stats.scans) {
      blocks_read += scan.blocks_read;
    }
    if (blocks_read == 0 || r->exec_stats.blocks_decoded != blocks_read) {
      mismatches->fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }

  // Cross-checks the system tables: for every logged run of one of
  // Queries(), stl_query.blocks_decoded equals the sum of that query's
  // stl_scan.blocks_read. Returns the number of runs checked.
  size_t CheckSystemTables() {
    auto scans = wh_->Execute("SELECT query_id, blocks_read FROM stl_scan");
    auto queries =
        wh_->Execute("SELECT query_id, sql_text, blocks_decoded FROM stl_query");
    EXPECT_TRUE(scans.ok() && queries.ok());
    if (!scans.ok() || !queries.ok()) return 0;
    std::map<int64_t, int64_t> read;
    for (size_t i = 0; i < scans->rows.num_rows(); ++i) {
      read[scans->rows.columns[0].IntAt(i)] += scans->rows.columns[1].IntAt(i);
    }
    std::set<std::string> texts;
    for (const auto& [strategy, sql] : Queries()) texts.insert(sql);
    size_t checked = 0;
    for (size_t i = 0; i < queries->rows.num_rows(); ++i) {
      const std::string sql = queries->rows.columns[1].StringAt(i);
      if (texts.count(sql) == 0) continue;
      const int64_t id = queries->rows.columns[0].IntAt(i);
      EXPECT_EQ(queries->rows.columns[2].IntAt(i), read[id])
          << "query " << id << ": " << sql;
      ++checked;
    }
    return checked;
  }

  std::unique_ptr<Warehouse> wh_;
};

TEST_F(ScanAccountingTest, BlocksDecodedEqualsStlScanBlocksRead) {
  auto count = wh_->Execute("SELECT COUNT(*) AS n FROM fact");
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(count->rows.columns[0].IntAt(0), kFactRows);
  // Each join query runs the strategy it is named for.
  for (const auto& [strategy, sql] : Queries()) {
    if (strategy.empty()) continue;
    auto explain = wh_->Execute("EXPLAIN " + sql);
    ASSERT_TRUE(explain.ok()) << explain.status();
    EXPECT_NE(explain->message.find(strategy), std::string::npos)
        << sql << "\n" << explain->message;
  }
  std::atomic<int> mismatches{0};
  for (const auto& [strategy, sql] : Queries()) {
    ASSERT_TRUE(RunAndCheck(wh_->CreateSession(), sql, &mismatches)) << sql;
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(CheckSystemTables(), Queries().size());
}

TEST_F(ScanAccountingTest, BlocksDecodedHoldsUnderConcurrentSessions) {
  constexpr int kSessions = 4;
  constexpr int kRounds = 3;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  {
    std::vector<std::thread> clients;
    for (int s = 0; s < kSessions; ++s) {
      Warehouse::Session session = wh_->CreateSession();
      clients.emplace_back([&, s, session] {
        const auto queries = Queries();
        for (int round = 0; round < kRounds; ++round) {
          // Sessions start at different queries, so different shapes
          // overlap.
          for (size_t q = 0; q < queries.size(); ++q) {
            const std::string& sql = queries[(q + s) % queries.size()].second;
            if (!RunAndCheck(session, sql, &mismatches)) failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(CheckSystemTables(), kSessions * kRounds * Queries().size());
}

}  // namespace
}  // namespace sdw::warehouse
