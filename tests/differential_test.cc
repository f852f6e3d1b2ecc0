// Differential testing: the same randomly-generated query must produce
// identical results regardless of physical choices — cluster topology,
// distribution style, join strategy, or execution engine. This is the
// paper's core promise made testable: physical design knobs (the few
// that remain) change performance, never answers.

#include <gtest/gtest.h>

#include <memory>

#include "cluster/cluster.h"
#include "cluster/executor.h"
#include "common/logging.h"
#include "common/random.h"
#include "plan/planner.h"
#include "warehouse/warehouse.h"
#include "workload/replay.h"
#include "workload/synth.h"

namespace sdw {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::ExecOptions;
using cluster::ExecutionMode;
using cluster::QueryExecutor;

ClusterConfig Config(int nodes, int slices) {
  ClusterConfig config;
  config.num_nodes = nodes;
  config.slices_per_node = slices;
  config.storage.max_rows_per_block = 128;
  return config;
}

/// Loads identical fact/dim data into a cluster with the given styles.
void Load(Cluster* cluster, DistStyle fact_style, DistStyle dim_style,
          SortStyle sort_style, uint64_t data_seed) {
  TableSchema fact("fact", {{"k", TypeId::kInt64},
                            {"a", TypeId::kInt64},
                            {"b", TypeId::kInt64},
                            {"x", TypeId::kDouble}});
  if (fact_style == DistStyle::kKey) {
    SDW_CHECK_OK(fact.SetDistKey("k"));
  } else {
    fact.SetDistStyle(fact_style);
  }
  if (sort_style != SortStyle::kNone) {
    SDW_CHECK_OK(fact.SetSortKey(sort_style, {"a", "b"}));
  }
  SDW_CHECK_OK(cluster->CreateTable(fact));

  TableSchema dim("dim", {{"id", TypeId::kInt64}, {"tag", TypeId::kString}});
  if (dim_style == DistStyle::kKey) {
    SDW_CHECK_OK(dim.SetDistKey("id"));
  } else {
    dim.SetDistStyle(dim_style);
  }
  SDW_CHECK_OK(cluster->CreateTable(dim));

  Rng rng(data_seed);
  {
    ColumnVector k(TypeId::kInt64), a(TypeId::kInt64), b(TypeId::kInt64),
        x(TypeId::kDouble);
    for (int i = 0; i < 4000; ++i) {
      k.AppendInt(rng.UniformRange(0, 149));
      if (rng.Bernoulli(0.05)) {
        a.AppendNull();
      } else {
        a.AppendInt(rng.UniformRange(0, 49));
      }
      b.AppendInt(rng.UniformRange(-20, 20));
      x.AppendDouble(rng.UniformRange(0, 1000) / 8.0);
    }
    std::vector<ColumnVector> cols;
    cols.push_back(std::move(k));
    cols.push_back(std::move(a));
    cols.push_back(std::move(b));
    cols.push_back(std::move(x));
    SDW_CHECK_OK(cluster->InsertRows("fact", cols));
  }
  {
    ColumnVector id(TypeId::kInt64), tag(TypeId::kString);
    for (int i = 0; i < 150; ++i) {
      id.AppendInt(i);
      tag.AppendString("tag-" + std::to_string(i % 12));
    }
    std::vector<ColumnVector> cols;
    cols.push_back(std::move(id));
    cols.push_back(std::move(tag));
    SDW_CHECK_OK(cluster->InsertRows("dim", cols));
  }
  SDW_CHECK_OK(cluster->Analyze("fact"));
  SDW_CHECK_OK(cluster->Analyze("dim"));
}

/// Generates a random single-block query over the fact (and maybe dim)
/// tables. ORDER BY covers every select item so results are totally
/// ordered and comparable.
plan::LogicalQuery RandomQuery(Rng* rng, bool allow_join) {
  plan::LogicalQuery q;
  q.from_table = "fact";
  const bool join = allow_join && rng->Bernoulli(0.5);
  if (join) {
    q.join_table = "dim";
    q.join_left = {"fact", "k"};
    q.join_right = {"dim", "id"};
  }
  // WHERE: 0-2 conjuncts on fact int columns: comparisons, BETWEEN
  // (two narrowing passes of the filter) and IN (an OR of equalities,
  // the mask fallback).
  const char* fact_cols[] = {"k", "a", "b"};
  const int nconj = static_cast<int>(rng->Uniform(3));
  for (int c = 0; c < nconj; ++c) {
    plan::Selection sel;
    sel.column = {"fact", fact_cols[rng->Uniform(3)]};
    switch (rng->Uniform(4)) {
      case 0: {
        sel.kind = plan::Selection::Kind::kBetween;
        const int64_t lo = rng->UniformRange(-10, 50);
        sel.literal = Datum::Int64(lo);
        sel.literal2 = Datum::Int64(lo + rng->UniformRange(0, 25));
        break;
      }
      case 1: {
        sel.kind = plan::Selection::Kind::kIn;
        const int values = 1 + static_cast<int>(rng->Uniform(4));
        for (int v = 0; v < values; ++v) {
          sel.in_list.push_back(Datum::Int64(rng->UniformRange(-10, 60)));
        }
        break;
      }
      default:
        sel.op = static_cast<plan::LogicalCmp>(rng->Uniform(6));
        sel.literal = Datum::Int64(rng->UniformRange(-10, 60));
        break;
    }
    q.where.push_back(sel);
  }
  // GROUP BY one column + a batch of aggregates, or plain projection.
  if (rng->Bernoulli(0.7)) {
    plan::ColumnName group =
        join && rng->Bernoulli(0.5)
            ? plan::ColumnName{"dim", "tag"}
            : plan::ColumnName{"fact", "b"};
    q.group_by = {group};
    q.select = {{plan::LogicalAggFn::kNone, group, "g"},
                {plan::LogicalAggFn::kCountStar, {}, "n"},
                {plan::LogicalAggFn::kSum, {"fact", "x"}, "sx"},
                {plan::LogicalAggFn::kMin, {"fact", "b"}, "lo"},
                {plan::LogicalAggFn::kMax, {"fact", "x"}, "hi"},
                {plan::LogicalAggFn::kAvg, {"fact", "x"}, "mean"},
                {plan::LogicalAggFn::kCount, {"fact", "a"}, "na"},
                // `a` is nullable: NULL lanes in the typed loops.
                {plan::LogicalAggFn::kMin, {"fact", "a"}, "alo"},
                {plan::LogicalAggFn::kMax, {"fact", "a"}, "ahi"},
                {plan::LogicalAggFn::kSum, {"fact", "a"}, "sa"}};
    q.order_by = {{0, false}};
  } else {
    q.select = {{plan::LogicalAggFn::kNone, {"fact", "k"}, ""},
                {plan::LogicalAggFn::kNone, {"fact", "b"}, ""},
                {plan::LogicalAggFn::kNone, {"fact", "x"}, ""}};
    for (int i = 0; i < 3; ++i) {
      q.order_by.push_back({i, rng->Bernoulli(0.5)});
    }
  }
  return q;
}

void ExpectBatchesEqual(const exec::Batch& a, const exec::Batch& b,
                        const std::string& context) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << context;
  ASSERT_EQ(a.num_columns(), b.num_columns()) << context;
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      if (a.columns[c].type() == TypeId::kDouble &&
          !a.columns[c].IsNull(r) && !b.columns[c].IsNull(r)) {
        ASSERT_NEAR(a.columns[c].DoubleAt(r), b.columns[c].DoubleAt(r), 1e-6)
            << context << " row " << r << " col " << c;
      } else {
        ASSERT_EQ(a.columns[c].DatumAt(r).Compare(b.columns[c].DatumAt(r)), 0)
            << context << " row " << r << " col " << c << ": "
            << a.columns[c].DatumAt(r).ToString() << " vs "
            << b.columns[c].DatumAt(r).ToString();
      }
    }
  }
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, TopologiesAndEnginesAgree) {
  const uint64_t seed = GetParam();
  // Reference: single node, single slice, EVEN, unsorted.
  Cluster reference(Config(1, 1));
  Load(&reference, DistStyle::kEven, DistStyle::kEven, SortStyle::kNone,
       seed);
  // Variants exercising every physical dimension.
  Cluster colocated(Config(3, 2));
  Load(&colocated, DistStyle::kKey, DistStyle::kKey, SortStyle::kCompound,
       seed);
  Cluster broadcast(Config(2, 3));
  Load(&broadcast, DistStyle::kEven, DistStyle::kEven,
       SortStyle::kInterleaved, seed);
  Cluster replicated(Config(2, 2));
  Load(&replicated, DistStyle::kEven, DistStyle::kAll, SortStyle::kCompound,
       seed);

  Rng rng(seed * 977 + 3);
  for (int trial = 0; trial < 8; ++trial) {
    plan::LogicalQuery q = RandomQuery(&rng, /*allow_join=*/true);
    const std::string context =
        "seed " + std::to_string(seed) + " trial " + std::to_string(trial);

    plan::Planner ref_planner(reference.catalog());
    auto ref_plan = ref_planner.Plan(q);
    ASSERT_TRUE(ref_plan.ok()) << context << ": " << ref_plan.status();
    QueryExecutor ref_exec(&reference);
    auto expected = ref_exec.Execute(*ref_plan);
    ASSERT_TRUE(expected.ok()) << context << ": " << expected.status();

    for (Cluster* variant : {&colocated, &broadcast, &replicated}) {
      plan::Planner planner(variant->catalog());
      auto physical = planner.Plan(q);
      ASSERT_TRUE(physical.ok()) << context;
      QueryExecutor executor(variant);
      auto got = executor.Execute(*physical);
      ASSERT_TRUE(got.ok()) << context << ": " << got.status();
      ExpectBatchesEqual(expected->rows, got->rows, context);
    }

    // Forced shuffle must also agree (different code path entirely).
    if (q.join_table.has_value()) {
      plan::PlannerOptions force;
      force.broadcast_row_threshold = 1;
      plan::Planner planner(broadcast.catalog(), force);
      auto physical = planner.Plan(q);
      ASSERT_TRUE(physical.ok()) << context;
      ASSERT_EQ(physical->join->strategy, plan::JoinStrategy::kShuffle);
      QueryExecutor executor(&broadcast);
      auto got = executor.Execute(*physical);
      ASSERT_TRUE(got.ok()) << context << ": " << got.status();
      ExpectBatchesEqual(expected->rows, got->rows, context + " (shuffle)");
    }

    // The interpreted engine must agree on join-free queries.
    if (!q.join_table.has_value()) {
      plan::Planner planner(colocated.catalog());
      auto physical = planner.Plan(q);
      ASSERT_TRUE(physical.ok()) << context;
      QueryExecutor interpreted(&colocated,
                                ExecOptions{ExecutionMode::kInterpreted, 0.0});
      auto got = interpreted.Execute(*physical);
      ASSERT_TRUE(got.ok()) << context << ": " << got.status();
      ExpectBatchesEqual(expected->rows, got->rows, context + " (interp)");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// The cache axis: cold-cache, warm result-cache, and segment-cache-only
// serving must all be byte-identical — across topologies and both
// engines. Caches are a performance knob, never an answer knob.
TEST_P(DifferentialTest, CacheArmsAgree) {
  const uint64_t seed = GetParam();
  auto make = [&](int nodes, int slices, DistStyle fact_style,
                  DistStyle dim_style, SortStyle sort_style, bool segment,
                  bool result, ExecutionMode mode) {
    warehouse::WarehouseOptions options;
    options.cluster = Config(nodes, slices);
    options.exec.mode = mode;
    options.cache.enable_segment_cache = segment;
    options.cache.enable_result_cache = result;
    auto wh = std::make_unique<warehouse::Warehouse>(options);
    Load(wh->data_plane(), fact_style, dim_style, sort_style, seed);
    return wh;
  };

  // Cold reference: no caches at all, trivial topology.
  auto cold = make(1, 1, DistStyle::kEven, DistStyle::kEven, SortStyle::kNone,
                   false, false, ExecutionMode::kCompiled);
  // Warm arm: both caches on; repeats must come from the result cache.
  auto warm = make(3, 2, DistStyle::kKey, DistStyle::kKey,
                   SortStyle::kCompound, true, true,
                   ExecutionMode::kCompiled);
  // Segment-only arm: repeats reuse the cached plan but re-execute.
  auto segonly = make(2, 3, DistStyle::kEven, DistStyle::kEven,
                      SortStyle::kInterleaved, true, false,
                      ExecutionMode::kCompiled);
  // Interpreted engine with both caches (join-free queries only).
  auto interp = make(2, 2, DistStyle::kEven, DistStyle::kAll,
                     SortStyle::kCompound, true, true,
                     ExecutionMode::kInterpreted);

  Rng rng(seed * 7919 + 11);
  for (int trial = 0; trial < 8; ++trial) {
    plan::LogicalQuery q = RandomQuery(&rng, /*allow_join=*/true);
    const std::string context =
        "seed " + std::to_string(seed) + " trial " + std::to_string(trial);

    auto expected = cold->ExecuteQuery(q);
    ASSERT_TRUE(expected.ok()) << context << ": " << expected.status();
    EXPECT_FALSE(expected->from_result_cache) << context;

    auto warm_cold = warm->ExecuteQuery(q);
    ASSERT_TRUE(warm_cold.ok()) << context << ": " << warm_cold.status();
    ExpectBatchesEqual(expected->rows, warm_cold->rows, context + " (warm/1)");
    auto warm_hit = warm->ExecuteQuery(q);
    ASSERT_TRUE(warm_hit.ok()) << context << ": " << warm_hit.status();
    EXPECT_TRUE(warm_hit->from_result_cache) << context;
    ExpectBatchesEqual(expected->rows, warm_hit->rows, context + " (warm/2)");

    auto seg_cold = segonly->ExecuteQuery(q);
    ASSERT_TRUE(seg_cold.ok()) << context << ": " << seg_cold.status();
    auto seg_repeat = segonly->ExecuteQuery(q);
    ASSERT_TRUE(seg_repeat.ok()) << context << ": " << seg_repeat.status();
    EXPECT_FALSE(seg_repeat->from_result_cache) << context;
    ExpectBatchesEqual(expected->rows, seg_repeat->rows, context + " (seg)");

    if (!q.join_table.has_value()) {
      auto interp_cold = interp->ExecuteQuery(q);
      ASSERT_TRUE(interp_cold.ok()) << context << ": "
                                    << interp_cold.status();
      ExpectBatchesEqual(expected->rows, interp_cold->rows,
                         context + " (interp/1)");
      auto interp_hit = interp->ExecuteQuery(q);
      ASSERT_TRUE(interp_hit.ok()) << context << ": " << interp_hit.status();
      EXPECT_TRUE(interp_hit->from_result_cache) << context;
      ExpectBatchesEqual(expected->rows, interp_hit->rows,
                         context + " (interp/2)");
    }
  }
  // The warm arm really did serve from its caches.
  EXPECT_GT(warm->result_cache()->size(), 0u);
  EXPECT_GT(warm->segment_cache()->size(), 0u);
}

// The serving-harness axis: a synthesized trace at a fixed seed must
// replay byte-identically whether it runs serially in trace order,
// through a concurrent session pool, or against warm caches. The trace
// is read-only after provisioning (no ETL sessions), so statement
// interleaving is a performance knob, never an answer knob.
TEST(WorkloadTraceDifferential, SynthesizedTraceReplaysIdentically) {
  workload::SynthConfig config;
  config.seed = 13;
  config.duration_seconds = 0.25;
  config.dashboard_sessions = 3;
  config.dashboard_think_seconds = 0.02;
  config.etl_sessions = 0;  // read-only replay: order-independent answers
  config.adhoc_sessions = 2;
  config.adhoc_think_seconds = 0.05;
  config.sales_rows = 200;
  config.events_rows = 1500;
  const workload::Trace trace = workload::Synthesize(config);
  ASSERT_FALSE(trace.statements.empty());

  auto run = [&trace](int workers, bool warm) {
    warehouse::Warehouse wh;
    workload::ReplayOptions opts;
    opts.workers = workers;
    opts.capture_results = true;
    workload::Replayer replayer(&wh, opts);
    SDW_CHECK_OK(replayer.Provision(trace));
    if (warm) {
      auto priming = replayer.Replay(trace);  // fill result/segment caches
      SDW_CHECK_OK(priming.status());
    }
    auto result = replayer.Replay(trace);
    SDW_CHECK_OK(result.status());
    EXPECT_EQ(result->errors, 0);
    return result->outputs;
  };

  const std::vector<std::string> serial = run(0, false);
  const std::vector<std::string> pooled = run(4, false);
  const std::vector<std::string> cache_warm = run(0, true);
  ASSERT_EQ(serial.size(), trace.statements.size());
  EXPECT_EQ(serial, pooled) << "pooled replay must be byte-identical";
  EXPECT_EQ(serial, cache_warm) << "cache-warm replay must be byte-identical";
}

}  // namespace
}  // namespace sdw
