// Tests for the performance fast paths: selection-vector filtering,
// the typed aggregation and join kernels, the scan's read cursor, bulk
// AppendRange and the lane-wrapping constructors. Each fast path must
// be behaviourally identical to the generic path or interpreted oracle
// it shortcuts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>

#include "common/logging.h"
#include "common/random.h"
#include "exec/expr.h"
#include "exec/operators.h"
#include "exec/row_executor.h"
#include "storage/block_store.h"
#include "storage/table_shard.h"

namespace sdw {
namespace {

// ---------------------------------------------------------------------------
// ColumnVector bulk paths
// ---------------------------------------------------------------------------

TEST(AppendSelectedTest, SelectsInOrderWithNulls) {
  ColumnVector src(TypeId::kInt64);
  src.AppendInt(10);
  src.AppendNull();
  src.AppendInt(30);
  src.AppendInt(40);
  ColumnVector dst(TypeId::kInt64);
  ASSERT_TRUE(dst.AppendSelected(src, {3, 1, 1, 0}).ok());
  ASSERT_EQ(dst.size(), 4u);
  EXPECT_EQ(dst.IntAt(0), 40);
  EXPECT_TRUE(dst.IsNull(1));
  EXPECT_TRUE(dst.IsNull(2));
  EXPECT_EQ(dst.IntAt(3), 10);
  EXPECT_EQ(dst.null_count(), 2u);
}

TEST(AppendSelectedTest, AllTypesAndEmptySelection) {
  for (TypeId type : {TypeId::kInt64, TypeId::kDouble, TypeId::kString}) {
    ColumnVector src(type);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(src.AppendDatum(type == TypeId::kString
                                      ? Datum::String(std::to_string(i))
                                  : type == TypeId::kDouble
                                      ? Datum::Double(i * 1.5)
                                      : Datum::Int64(i))
                      .ok());
    }
    ColumnVector dst(type);
    ASSERT_TRUE(dst.AppendSelected(src, {}).ok());
    EXPECT_EQ(dst.size(), 0u);
    ASSERT_TRUE(dst.AppendSelected(src, {9, 0}).ok());
    EXPECT_EQ(dst.DatumAt(0).Compare(src.DatumAt(9)), 0);
    EXPECT_EQ(dst.DatumAt(1).Compare(src.DatumAt(0)), 0);
  }
  ColumnVector ints(TypeId::kInt64);
  ColumnVector strs(TypeId::kString);
  EXPECT_FALSE(strs.AppendSelected(ints, {}).ok());
}

TEST(TakeLanesTest, WrapWithoutCopy) {
  std::vector<int64_t> lane = {1, 2, 3};
  ColumnVector v = ColumnVector::TakeInts(TypeId::kDate, std::move(lane));
  EXPECT_EQ(v.type(), TypeId::kDate);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v.IntAt(2), 3);
  EXPECT_FALSE(v.has_nulls());
  ColumnVector d = ColumnVector::TakeDoubles({1.5, 2.5});
  EXPECT_DOUBLE_EQ(d.DoubleAt(1), 2.5);
  ColumnVector s = ColumnVector::TakeStrings({"a", "b"});
  EXPECT_EQ(s.StringAt(0), "a");
}

// ---------------------------------------------------------------------------
// Filter fast path vs a reference row filter
// ---------------------------------------------------------------------------

TEST(FilterFastPathTest, MatchesRowByRowSemantics) {
  Rng rng(3);
  exec::Batch batch;
  ColumnVector a(TypeId::kInt64);
  ColumnVector b(TypeId::kString);
  for (int i = 0; i < 5000; ++i) {
    if (rng.Bernoulli(0.05)) {
      a.AppendNull();
    } else {
      a.AppendInt(rng.UniformRange(0, 99));
    }
    b.AppendString(std::to_string(i));
  }
  batch.columns.push_back(std::move(a));
  batch.columns.push_back(std::move(b));

  auto pred = exec::Cmp(exec::CmpOp::kLt, exec::Col(0, TypeId::kInt64),
                        exec::Lit(Datum::Int64(30)));
  // Reference: evaluate per row.
  std::vector<std::string> expected;
  for (size_t i = 0; i < batch.num_rows(); ++i) {
    auto keep = pred->EvalRow(batch.RowAt(i));
    ASSERT_TRUE(keep.ok());
    if (!keep->is_null() && keep->int_value() != 0) {
      expected.push_back(batch.columns[1].StringAt(i));
    }
  }
  // Fast path through the operator.
  auto types = batch.Types();
  std::vector<exec::Batch> batches;
  batches.push_back(std::move(batch));
  auto filtered =
      exec::Filter(exec::MemoryScan(types, std::move(batches)), pred);
  auto out = exec::Collect(filtered.get());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(out->columns[1].StringAt(i), expected[i]);
  }
}

TEST(FilterFastPathTest, EveryPredicateShapeMatchesRowSemantics) {
  // Typed kernels (column <op> integer literal, AND narrowing twice)
  // and the mask fallback (OR, NOT, doubles, strings) against per-row
  // EvalRow, over NULL-bearing lanes.
  Rng rng(17);
  exec::Batch batch = exec::MakeBatch(
      {TypeId::kInt64, TypeId::kInt32, TypeId::kDouble, TypeId::kString,
       TypeId::kInt64});
  for (int i = 0; i < 3000; ++i) {
    if (rng.Bernoulli(0.1)) {
      batch.columns[0].AppendNull();
    } else {
      batch.columns[0].AppendInt(rng.UniformRange(-20, 20));
    }
    batch.columns[1].AppendInt(rng.UniformRange(0, 9));
    if (rng.Bernoulli(0.1)) {
      batch.columns[2].AppendNull();
    } else {
      batch.columns[2].AppendDouble(rng.UniformRange(-8, 8) * 0.5);
    }
    batch.columns[3].AppendString(rng.Bernoulli(0.5) ? "ab" : "ba");
    batch.columns[4].AppendInt(i);  // row id
  }
  using exec::CmpOp;
  auto a = exec::Col(0, TypeId::kInt64);
  auto b = exec::Col(1, TypeId::kInt32);
  auto x = exec::Col(2, TypeId::kDouble);
  auto lit = [](int64_t v) { return exec::Lit(Datum::Int64(v)); };
  std::vector<exec::ExprPtr> predicates;
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe,
                   CmpOp::kGt, CmpOp::kGe}) {
    predicates.push_back(exec::Cmp(op, a, lit(3)));
    predicates.push_back(exec::Cmp(op, b, lit(4)));
    predicates.push_back(exec::Cmp(op, x, lit(1)));
  }
  auto between = exec::And(exec::Cmp(CmpOp::kGe, a, lit(-5)),
                           exec::Cmp(CmpOp::kLe, a, lit(7)));
  auto in_list = exec::Or(exec::Or(exec::Cmp(CmpOp::kEq, a, lit(1)),
                                   exec::Cmp(CmpOp::kEq, a, lit(-4))),
                          exec::Cmp(CmpOp::kEq, a, lit(19)));
  predicates.push_back(between);
  predicates.push_back(in_list);
  predicates.push_back(exec::Not(between));
  predicates.push_back(exec::And(in_list, exec::Cmp(CmpOp::kLt, b, lit(5))));
  predicates.push_back(exec::And(exec::IsNull(a), exec::StartsWith(
                                     exec::Col(3, TypeId::kString), "a")));
  predicates.push_back(exec::Or(exec::Cmp(CmpOp::kGt, x, lit(2)), between));
  predicates.push_back(exec::Cmp(CmpOp::kLt, a, exec::Lit(Datum::Null())));
  predicates.push_back(exec::Cmp(CmpOp::kLt, a, b));
  for (const exec::ExprPtr& pred : predicates) {
    std::vector<int64_t> expected;
    for (size_t i = 0; i < batch.num_rows(); ++i) {
      auto keep = pred->EvalRow(batch.RowAt(i));
      ASSERT_TRUE(keep.ok()) << pred->ToString();
      if (!keep->is_null() && keep->int_value() != 0) {
        expected.push_back(static_cast<int64_t>(i));
      }
    }
    exec::Batch copy = exec::MakeBatch(batch.Types());
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      ASSERT_TRUE(copy.columns[c]
                      .AppendRange(batch.columns[c], 0, batch.num_rows())
                      .ok());
    }
    auto types = copy.Types();
    std::vector<exec::Batch> batches;
    batches.push_back(std::move(copy));
    auto out = exec::Collect(
        exec::Filter(exec::MemoryScan(types, std::move(batches)), pred).get());
    ASSERT_TRUE(out.ok()) << pred->ToString() << ": " << out.status();
    std::vector<int64_t> got(out->columns[4].ints().begin(),
                             out->columns[4].ints().end());
    EXPECT_EQ(got, expected) << pred->ToString();
    // The mask agrees with EvalRow too (kernels also serve EvalBatch).
    auto mask = pred->EvalBatch(batch);
    ASSERT_TRUE(mask.ok()) << pred->ToString();
    for (size_t i = 0; i < batch.num_rows(); ++i) {
      auto want = pred->EvalRow(batch.RowAt(i));
      ASSERT_EQ(mask->DatumAt(i).Compare(*want), 0)
          << pred->ToString() << " row " << i;
    }
  }
}

TEST(FilterFastPathTest, PassThroughWhenNothingFiltered) {
  exec::Batch batch;
  ColumnVector a(TypeId::kInt64);
  for (int i = 0; i < 100; ++i) a.AppendInt(i);
  batch.columns.push_back(std::move(a));
  auto types = batch.Types();
  std::vector<exec::Batch> batches;
  batches.push_back(std::move(batch));
  auto filtered = exec::Filter(
      exec::MemoryScan(types, std::move(batches)),
      exec::Cmp(exec::CmpOp::kGe, exec::Col(0, TypeId::kInt64),
                exec::Lit(Datum::Int64(0))));
  auto out = exec::Collect(filtered.get());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 100u);
}

// ---------------------------------------------------------------------------
// HashAggregate vs the interpreted RowAggregate oracle
// ---------------------------------------------------------------------------

// Streams pre-built batches row by row into the interpreted engine.
class BatchRows : public exec::RowOperator {
 public:
  explicit BatchRows(std::vector<exec::Batch> batches)
      : batches_(std::move(batches)) {}

  Result<std::optional<Row>> Next() override {
    while (batch_ < batches_.size() && row_ >= batches_[batch_].num_rows()) {
      ++batch_;
      row_ = 0;
    }
    if (batch_ >= batches_.size()) return std::optional<Row>();
    return std::optional<Row>(batches_[batch_].RowAt(row_++));
  }

 private:
  std::vector<exec::Batch> batches_;
  size_t batch_ = 0;
  size_t row_ = 0;
};

exec::Batch CollectOrDie(exec::OperatorPtr op) {
  auto out = exec::Collect(op.get());
  SDW_CHECK_OK(out.status());
  return std::move(*out);
}

// Orders a result by its leading `keys` columns so outputs whose group
// order differs (partial -> final regroups in slice order) compare.
exec::Batch SortedByKeys(exec::Batch batch, size_t keys) {
  std::vector<exec::SortKey> order;
  for (size_t k = 0; k < keys; ++k) order.push_back({static_cast<int>(k)});
  auto types = batch.Types();
  std::vector<exec::Batch> one;
  one.push_back(std::move(batch));
  return CollectOrDie(
      exec::Sort(exec::MemoryScan(types, std::move(one)), std::move(order)));
}

// Byte identity: same NULLs, same lane values, doubles compared by bit
// pattern (so -0.0 and 0.0 differ).
void ExpectIdentical(const exec::Batch& want, const exec::Batch& got,
                     const std::string& context) {
  ASSERT_EQ(want.Types(), got.Types()) << context;
  ASSERT_EQ(want.num_rows(), got.num_rows()) << context;
  for (size_t c = 0; c < want.num_columns(); ++c) {
    const ColumnVector& a = want.columns[c];
    const ColumnVector& b = got.columns[c];
    for (size_t r = 0; r < want.num_rows(); ++r) {
      const std::string at =
          context + " row " + std::to_string(r) + " col " + std::to_string(c);
      ASSERT_EQ(a.IsNull(r), b.IsNull(r)) << at;
      if (a.IsNull(r)) continue;
      switch (a.type()) {
        case TypeId::kDouble: {
          uint64_t x;
          uint64_t y;
          const double dx = a.DoubleAt(r);
          const double dy = b.DoubleAt(r);
          std::memcpy(&x, &dx, 8);
          std::memcpy(&y, &dy, 8);
          EXPECT_EQ(x, y) << at << ": " << dx << " vs " << dy;
          break;
        }
        case TypeId::kString:
          EXPECT_EQ(a.StringAt(r), b.StringAt(r)) << at;
          break;
        default:
          EXPECT_EQ(a.IntAt(r), b.IntAt(r)) << at;
          break;
      }
    }
  }
}

// Runs `aggs` grouped by `group_by` over `batches` three ways — the
// interpreted RowAggregate, a single-pass HashAggregate, and
// per-"slice" kPartial aggregates (batches dealt round-robin to two
// slices) merged by a kFinal aggregate — and checks all three agree.
void ExpectMatchesOracle(const std::vector<exec::Batch>& batches,
                         const std::vector<TypeId>& types,
                         const std::vector<int>& group_by,
                         const std::vector<exec::AggSpec>& aggs,
                         const std::string& context) {
  auto copy = [&](size_t from, size_t step) {
    std::vector<exec::Batch> out;
    for (size_t i = from; i < batches.size(); i += step) {
      exec::Batch b = exec::MakeBatch(types);
      for (size_t c = 0; c < types.size(); ++c) {
        SDW_CHECK_OK(b.columns[c].AppendRange(batches[i].columns[c], 0,
                                              batches[i].num_rows()));
      }
      out.push_back(std::move(b));
    }
    return out;
  };

  exec::OperatorPtr single_op = exec::HashAggregate(
      exec::MemoryScan(types, copy(0, 1)), group_by, aggs);
  const std::vector<TypeId> out_types = single_op->OutputTypes();
  exec::Batch single = CollectOrDie(std::move(single_op));

  auto row_pipe =
      exec::RowAggregate(std::make_unique<BatchRows>(copy(0, 1)), group_by,
                         aggs);
  auto row = exec::CollectRows(row_pipe.get(), out_types);
  ASSERT_TRUE(row.ok()) << context << ": " << row.status();

  std::vector<exec::Batch> partials;
  for (size_t slice = 0; slice < 2; ++slice) {
    partials.push_back(CollectOrDie(
        exec::HashAggregate(exec::MemoryScan(types, copy(slice, 2)),
                            group_by, aggs, exec::AggMode::kPartial)));
  }
  std::vector<int> final_groups(group_by.size());
  for (size_t g = 0; g < group_by.size(); ++g) {
    final_groups[g] = static_cast<int>(g);
  }
  auto partial_types = partials[0].Types();
  exec::Batch merged = CollectOrDie(
      exec::HashAggregate(exec::MemoryScan(partial_types, std::move(partials)),
                          final_groups, aggs, exec::AggMode::kFinal));

  const size_t keys = group_by.size();
  const exec::Batch oracle = SortedByKeys(std::move(*row), keys);
  ExpectIdentical(oracle, SortedByKeys(std::move(single), keys),
                  context + " (single)");
  ExpectIdentical(oracle, SortedByKeys(std::move(merged), keys),
                  context + " (partial->final)");
}

// Every aggregate over every lane of the oracle batches below.
std::vector<exec::AggSpec> AllAggs() {
  using exec::AggFn;
  return {{AggFn::kCount, -1},          {AggFn::kCount, 1},
          {AggFn::kSum, 1},             {AggFn::kSum, 2},
          {AggFn::kMin, 1},             {AggFn::kMax, 1},
          {AggFn::kMin, 2},             {AggFn::kMax, 2},
          {AggFn::kMin, 3},             {AggFn::kMax, 3},
          {AggFn::kApproxDistinct, 1},  {AggFn::kApproxDistinct, 3}};
}

// DOUBLE group keys: values that agree to 6 significant digits, the
// extremes, and both signed zeros (one group, as the compiled engine
// groups them).
constexpr double kDoubleKeys[12] = {
    0.1234561, 0.1234562, -0.0,   0.0,     -2.0,    1.0 / 3,
    1e-300,    1e300,     -1e300, 2.5e-7,  2.5e-7 * (1 + 1e-12), 123456.75};

// Columns: key (of `key_type`), int lane, double lane, string lane. A
// `null_rate` share of keys and of each lane is NULL. Lane doubles are
// multiples of 0.25 so sums are exact in any association (partial ->
// final regroups them). DOUBLE keys come from kDoubleKeys; each batch
// starts with -0.0, so the zero group's first-seen key is -0.0 on every
// slice and the merged key's sign does not depend on the dealing.
exec::Batch OracleBatch(TypeId key_type, size_t n, Rng* rng,
                        double key_null_rate, double lane_null_rate) {
  exec::Batch b = exec::MakeBatch(
      {key_type, TypeId::kInt64, TypeId::kDouble, TypeId::kString});
  for (size_t i = 0; i < n; ++i) {
    const int64_t k = rng->UniformRange(0, 11);
    if (key_type == TypeId::kDouble && i == 0) {
      b.columns[0].AppendDouble(-0.0);
    } else if (rng->Bernoulli(key_null_rate)) {
      b.columns[0].AppendNull();
    } else if (key_type == TypeId::kString) {
      b.columns[0].AppendString("key-" + std::to_string(k));
    } else if (key_type == TypeId::kDouble) {
      b.columns[0].AppendDouble(kDoubleKeys[k]);
    } else if (key_type == TypeId::kBool) {
      b.columns[0].AppendInt(k % 2);
    } else {
      b.columns[0].AppendInt(k * 1000 - 4000);
    }
    if (rng->Bernoulli(lane_null_rate)) {
      b.columns[1].AppendNull();
    } else {
      b.columns[1].AppendInt(rng->UniformRange(-500, 500));
    }
    if (rng->Bernoulli(lane_null_rate)) {
      b.columns[2].AppendNull();
    } else {
      b.columns[2].AppendDouble(
          static_cast<double>(rng->UniformRange(-400, 400)) * 0.25);
    }
    if (rng->Bernoulli(lane_null_rate)) {
      b.columns[3].AppendNull();
    } else {
      b.columns[3].AppendString("s" + std::to_string(rng->UniformRange(0, 60)));
    }
  }
  return b;
}

TEST(AggOracleTest, EveryKeyTypeWithNullKeysAndLanes) {
  for (TypeId key_type : {TypeId::kInt64, TypeId::kInt32, TypeId::kDate,
                          TypeId::kBool, TypeId::kDouble, TypeId::kString}) {
    Rng rng(11 + static_cast<uint64_t>(key_type));
    std::vector<exec::Batch> batches;
    for (int i = 0; i < 5; ++i) {
      batches.push_back(OracleBatch(key_type, 700, &rng, 0.05, 0.1));
    }
    auto types = batches[0].Types();
    const std::string context = std::string("key ") + TypeName(key_type);
    ExpectMatchesOracle(batches, types, {0}, AllAggs(), context);
    ExpectMatchesOracle(batches, types, {}, AllAggs(), context + " global");
  }
}

TEST(AggOracleTest, DoubleKeysGroupByExactValue) {
  // Keys equal to 6 significant digits stay apart; -0.0 and 0.0 share
  // a group whose key is the first one seen.
  for (bool negative_first : {true, false}) {
    const double zero = negative_first ? -0.0 : 0.0;
    exec::Batch b = exec::MakeBatch({TypeId::kDouble});
    for (double d : {0.1234561, zero, 0.1234562, -zero, 0.1234561, zero}) {
      b.columns[0].AppendDouble(d);
    }
    const std::vector<exec::AggSpec> aggs = {{exec::AggFn::kCount, -1}};
    std::vector<exec::Batch> one;
    one.push_back(std::move(b));
    auto row_pipe = exec::RowAggregate(
        std::make_unique<BatchRows>(std::move(one)), {0}, aggs);
    auto out = exec::CollectRows(row_pipe.get(),
                                 {TypeId::kDouble, TypeId::kInt64});
    ASSERT_TRUE(out.ok()) << out.status();
    ASSERT_EQ(out->num_rows(), 3u);
    EXPECT_EQ(out->columns[0].DoubleAt(0), 0.1234561);
    EXPECT_EQ(out->columns[1].IntAt(0), 2);
    EXPECT_EQ(out->columns[0].DoubleAt(1), 0.0);
    EXPECT_EQ(std::signbit(out->columns[0].DoubleAt(1)), negative_first);
    EXPECT_EQ(out->columns[1].IntAt(1), 3);
    EXPECT_EQ(out->columns[0].DoubleAt(2), 0.1234562);
    EXPECT_EQ(out->columns[1].IntAt(2), 1);
  }
}

TEST(AggOracleTest, MultiColumnKeys) {
  Rng rng(21);
  std::vector<exec::Batch> batches;
  for (int i = 0; i < 4; ++i) {
    batches.push_back(OracleBatch(TypeId::kInt64, 500, &rng, 0.05, 0.1));
  }
  auto types = batches[0].Types();
  ExpectMatchesOracle(batches, types, {0, 3},
                      {{exec::AggFn::kCount, -1},
                       {exec::AggFn::kSum, 1},
                       {exec::AggFn::kMax, 2}},
                      "int+string key");
}

TEST(AggOracleTest, EmptyInput) {
  const std::vector<TypeId> types = {TypeId::kInt64, TypeId::kInt64,
                                     TypeId::kDouble, TypeId::kString};
  // No batches at all, and batches with no rows.
  for (size_t empties : {0, 3}) {
    std::vector<exec::Batch> batches;
    for (size_t i = 0; i < empties; ++i) batches.push_back(exec::MakeBatch(types));
    const std::string context = std::to_string(empties) + " empty batches";
    ExpectMatchesOracle(batches, types, {0}, AllAggs(), context);
    ExpectMatchesOracle(batches, types, {}, AllAggs(), context + " global");
  }
  // A global aggregate over nothing still emits one row.
  auto out = CollectOrDie(exec::HashAggregate(
      exec::MemoryScan(types, {}), {},
      {{exec::AggFn::kCount, -1}, {exec::AggFn::kSum, 1},
       {exec::AggFn::kMin, 3}}));
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.columns[0].IntAt(0), 0);
  EXPECT_TRUE(out.columns[1].IsNull(0));
  EXPECT_TRUE(out.columns[2].IsNull(0));
}

TEST(AggOracleTest, AllNullLanesSumToNull) {
  const std::vector<TypeId> types = {TypeId::kInt64, TypeId::kInt64,
                                     TypeId::kDouble, TypeId::kString};
  Rng rng(5);
  std::vector<exec::Batch> batches;
  batches.push_back(OracleBatch(TypeId::kInt64, 300, &rng, 0.0, 1.0));
  ExpectMatchesOracle(batches, types, {0}, AllAggs(), "all-NULL lanes");
  auto out = CollectOrDie(exec::HashAggregate(
      exec::MemoryScan(types, std::move(batches)), {},
      {{exec::AggFn::kSum, 1}, {exec::AggFn::kSum, 2}, {exec::AggFn::kMax, 1}}));
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_TRUE(out.columns[0].IsNull(0));
  EXPECT_TRUE(out.columns[1].IsNull(0));
  EXPECT_TRUE(out.columns[2].IsNull(0));
}

TEST(AggOracleTest, SumOverStringsIsRejected) {
  // The planner passes SUM(varchar) through; the compiled engine
  // refuses it instead of reading a lane the column does not have.
  exec::Batch b = exec::MakeBatch({TypeId::kString});
  b.columns[0].AppendString("x");
  std::vector<exec::Batch> one;
  one.push_back(std::move(b));
  auto out = exec::Collect(
      exec::HashAggregate(exec::MemoryScan({TypeId::kString}, std::move(one)),
                          {}, {{exec::AggFn::kSum, 0}})
          .get());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(AggOracleTest, Int64Extremes) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  const std::vector<TypeId> types = {TypeId::kInt64, TypeId::kInt64,
                                     TypeId::kDouble, TypeId::kString};
  std::vector<exec::Batch> batches;
  for (int part = 0; part < 3; ++part) {
    exec::Batch b = exec::MakeBatch(types);
    for (int i = 0; i < 40; ++i) {
      const int64_t key = i % 4 == 0 ? kMin : i % 4 == 1 ? kMax : i % 4;
      b.columns[0].AppendInt(key);
      // Sums wrap: several values near INT64_MAX per group.
      b.columns[1].AppendInt(i % 3 == 0 ? kMin + i : kMax - i);
      b.columns[2].AppendDouble(static_cast<double>(i));
      b.columns[3].AppendString(std::to_string(kMax - i));
    }
    batches.push_back(std::move(b));
  }
  ExpectMatchesOracle(batches, types, {0}, AllAggs(), "int64 extremes");
  ExpectMatchesOracle(batches, types, {}, AllAggs(), "int64 extremes global");
}

TEST(AggOracleTest, MixedKeyShapesAcrossBatches) {
  // Null-free keys, keys with NULLs, all-NULL keys and empty batches
  // stream into one group table.
  Rng rng(31);
  std::vector<exec::Batch> batches;
  batches.push_back(OracleBatch(TypeId::kInt64, 400, &rng, 0.0, 0.0));
  batches.push_back(OracleBatch(TypeId::kInt64, 400, &rng, 0.2, 0.3));
  batches.push_back(OracleBatch(TypeId::kInt64, 0, &rng, 0.0, 0.0));
  batches.push_back(OracleBatch(TypeId::kInt64, 50, &rng, 1.0, 0.0));
  batches.push_back(OracleBatch(TypeId::kInt64, 400, &rng, 0.0, 0.1));
  auto types = batches[0].Types();
  ExpectMatchesOracle(batches, types, {0}, AllAggs(), "mixed shapes");
}

exec::Batch IntKeyBatch(const std::vector<std::optional<int64_t>>& keys) {
  exec::Batch b = exec::MakeBatch({TypeId::kInt64});
  for (const std::optional<int64_t>& k : keys) {
    if (k.has_value()) {
      b.columns[0].AppendInt(*k);
    } else {
      b.columns[0].AppendNull();
    }
  }
  return b;
}

TEST(AggOracleTest, EmitsGroupsInFirstSeenOrder) {
  // Int key (with a NULL group) and string key: output order is the
  // order each group first appeared across batches.
  exec::Batch first = IntKeyBatch({5, 3, 5});
  exec::Batch second = IntKeyBatch({std::nullopt, 9, 3, 1});
  auto types = first.Types();
  std::vector<exec::Batch> batches;
  batches.push_back(std::move(first));
  batches.push_back(std::move(second));
  auto out = CollectOrDie(exec::HashAggregate(
      exec::MemoryScan(types, std::move(batches)), {0},
      {{exec::AggFn::kCount, -1}}));
  ASSERT_EQ(out.num_rows(), 5u);
  EXPECT_EQ(out.columns[0].IntAt(0), 5);
  EXPECT_EQ(out.columns[0].IntAt(1), 3);
  EXPECT_TRUE(out.columns[0].IsNull(2));
  EXPECT_EQ(out.columns[0].IntAt(3), 9);
  EXPECT_EQ(out.columns[0].IntAt(4), 1);
  EXPECT_EQ(out.columns[1].IntAt(0), 2);

  exec::Batch strings = exec::MakeBatch({TypeId::kString});
  for (const char* s : {"b", "a", "b", "c"}) strings.columns[0].AppendString(s);
  std::vector<exec::Batch> one;
  one.push_back(std::move(strings));
  auto sout = CollectOrDie(exec::HashAggregate(
      exec::MemoryScan({TypeId::kString}, std::move(one)), {0},
      {{exec::AggFn::kCount, -1}}));
  ASSERT_EQ(sout.num_rows(), 3u);
  EXPECT_EQ(sout.columns[0].StringAt(0), "b");
  EXPECT_EQ(sout.columns[0].StringAt(1), "a");
  EXPECT_EQ(sout.columns[0].StringAt(2), "c");
}

TEST(AggOracleTest, MinMaxTiesKeepFirstValueSeen) {
  // -0.0 and 0.0 compare equal: the first one seen stays.
  for (bool negative_first : {false, true}) {
    exec::Batch b = exec::MakeBatch({TypeId::kInt64, TypeId::kDouble});
    for (double d : {negative_first ? -0.0 : 0.0, negative_first ? 0.0 : -0.0}) {
      b.columns[0].AppendInt(1);
      b.columns[1].AppendDouble(d);
    }
    auto types = b.Types();
    std::vector<exec::Batch> batches;
    batches.push_back(std::move(b));
    const std::vector<exec::AggSpec> aggs = {{exec::AggFn::kMin, 1},
                                             {exec::AggFn::kMax, 1}};
    ExpectMatchesOracle(batches, types, {0}, aggs, "signed zeros");
    auto out = CollectOrDie(exec::HashAggregate(
        exec::MemoryScan(types, std::move(batches)), {0}, aggs));
    ASSERT_EQ(out.num_rows(), 1u);
    EXPECT_EQ(std::signbit(out.columns[1].DoubleAt(0)), negative_first);
    EXPECT_EQ(std::signbit(out.columns[2].DoubleAt(0)), negative_first);
  }
}

// ---------------------------------------------------------------------------
// HashJoin output order
// ---------------------------------------------------------------------------

// Joins probe keys against build keys (NULL where nullopt) on the
// integer key, the string key or a two-column key — each takes its own
// lookup path — and returns (probe row, build row) per output row.
std::vector<std::pair<int64_t, int64_t>> JoinPairs(
    TypeId key_type, bool two_keys,
    const std::vector<std::optional<int64_t>>& probe_keys,
    const std::vector<std::optional<int64_t>>& build_keys) {
  auto side = [&](const std::vector<std::optional<int64_t>>& keys) {
    exec::Batch b = exec::MakeBatch({key_type, TypeId::kInt64});
    for (size_t i = 0; i < keys.size(); ++i) {
      if (!keys[i].has_value()) {
        b.columns[0].AppendNull();
      } else if (key_type == TypeId::kString) {
        b.columns[0].AppendString("k" + std::to_string(*keys[i]));
      } else {
        b.columns[0].AppendInt(*keys[i]);
      }
      b.columns[1].AppendInt(static_cast<int64_t>(i));
    }
    auto types = b.Types();
    std::vector<exec::Batch> one;
    one.push_back(std::move(b));
    return exec::MemoryScan(types, std::move(one));
  };
  // The two-column case joins on (key, key): same matches.
  const std::vector<int> keys =
      two_keys ? std::vector<int>{0, 0} : std::vector<int>{0};
  auto out = CollectOrDie(
      exec::HashJoin(side(probe_keys), side(build_keys), keys, keys));
  std::vector<std::pair<int64_t, int64_t>> pairs;
  for (size_t r = 0; r < out.num_rows(); ++r) {
    pairs.emplace_back(out.columns[1].IntAt(r), out.columns[3].IntAt(r));
  }
  return pairs;
}

TEST(HashJoinOrderTest, DuplicateBuildKeysMatchInPinnedOrder) {
  // Probe rows come out in probe order. A probe row's matches come out
  // in the order the original multimap-based join produced: the key's
  // first build row, then later rows newest first — except that rows
  // inserted after the table already held 21 rows go before the first
  // row, newest first.
  struct Case {
    TypeId key_type;
    bool two_keys;
  };
  // Large build side: key 7 on even rows, unique keys on odd rows, two
  // NULL keys (not inserted, so not counted).
  std::vector<std::optional<int64_t>> large;
  for (int64_t i = 0; i < 40; ++i) {
    large.push_back(i == 3 || i == 13 ? std::nullopt
                    : i % 2 == 0      ? std::optional<int64_t>(7)
                                      : std::optional<int64_t>(1000 + i));
  }
  for (const Case& c : {Case{TypeId::kInt64, false},
                        Case{TypeId::kString, false},
                        Case{TypeId::kInt64, true}}) {
    const std::string context = std::string(TypeName(c.key_type)) +
                                (c.two_keys ? " two keys" : "");
    const std::vector<std::pair<int64_t, int64_t>> small_expected = {
        {0, 0}, {0, 4}, {0, 2}, {1, 1}, {1, 5}, {3, 0}, {3, 4}, {3, 2}};
    EXPECT_EQ(JoinPairs(c.key_type, c.two_keys, {7, 5, 8, 7, std::nullopt},
                        {7, 5, 7, 9, 7, 5, std::nullopt}),
              small_expected)
        << context;
    std::vector<int64_t> large_order;
    for (const auto& [probe, build] :
         JoinPairs(c.key_type, c.two_keys, {7}, large)) {
      large_order.push_back(build);
    }
    const std::vector<int64_t> large_expected = {
        38, 36, 34, 32, 30, 28, 26, 24, 0, 22, 20, 18, 16, 14, 12, 10, 8, 6,
        4, 2};
    EXPECT_EQ(large_order, large_expected) << context;
  }
}

// ---------------------------------------------------------------------------
// Read cursor
// ---------------------------------------------------------------------------

// A shard of `rows` rows, columns (int a = i, string s = "v<i>"), in
// blocks of `rows_per_block`.
void FillShard(storage::TableShard* shard, int rows) {
  ColumnVector a(TypeId::kInt64);
  ColumnVector s(TypeId::kString);
  for (int i = 0; i < rows; ++i) {
    a.AppendInt(i);
    s.AppendString("v" + std::to_string(i));
  }
  std::vector<ColumnVector> run;
  run.push_back(std::move(a));
  run.push_back(std::move(s));
  SDW_CHECK_OK(shard->Append(run));
}

TEST(ReadCursorTest, CursorDecodesEachBlockOnce) {
  storage::BlockStore store;
  TableSchema schema("t", {{"a", TypeId::kInt64}, {"s", TypeId::kString}});
  storage::StorageOptions options;
  options.max_rows_per_block = 100;
  storage::TableShard shard(schema, options, &store);
  FillShard(&shard, 1000);
  const storage::ShardSnapshot version = shard.Snapshot();

  // 30-row batches straddle block boundaries: each of the 2 x 10
  // blocks is decoded once however many batches it spans.
  shard.ResetCounters();
  storage::ReadCursor cursor;
  for (uint64_t begin = 0; begin < 1000; begin += 30) {
    const uint64_t end = std::min<uint64_t>(1000, begin + 30);
    auto cols = shard.ReadRange(*version, {0, 1}, {begin, end}, &cursor);
    ASSERT_TRUE(cols.ok()) << cols.status();
    for (uint64_t r = begin; r < end; ++r) {
      ASSERT_EQ((*cols)[0].IntAt(r - begin), static_cast<int64_t>(r));
      ASSERT_EQ((*cols)[1].StringAt(r - begin), "v" + std::to_string(r));
    }
  }
  EXPECT_EQ(shard.blocks_decoded(), 20u);
  // The last block is still in the cursor: re-reading it decodes nothing.
  ASSERT_TRUE(shard.ReadRange(*version, {0, 1}, {950, 1000}, &cursor).ok());
  EXPECT_EQ(shard.blocks_decoded(), 20u);
}

TEST(ReadCursorTest, CallWithoutCursorDecodesPerCall) {
  storage::BlockStore store;
  TableSchema schema("t", {{"a", TypeId::kInt64}, {"s", TypeId::kString}});
  storage::StorageOptions options;
  options.max_rows_per_block = 100;
  storage::TableShard shard(schema, options, &store);
  FillShard(&shard, 1000);

  shard.ResetCounters();
  ASSERT_TRUE(shard.ReadRange({0}, {0, 100}).ok());
  EXPECT_EQ(shard.blocks_decoded(), 1u);
  ASSERT_TRUE(shard.ReadRange({0}, {0, 100}).ok());
  EXPECT_EQ(shard.blocks_decoded(), 2u);
  ASSERT_TRUE(shard.ReadRange({0}, {50, 150}).ok());
  EXPECT_EQ(shard.blocks_decoded(), 4u);  // both blocks decoded anew
  shard.ResetCounters();
  EXPECT_EQ(shard.blocks_decoded(), 0u);
}

TEST(ReadCursorTest, OutOfOrderReadsAndColumnChangesStayCorrect) {
  storage::BlockStore store;
  TableSchema schema("t", {{"a", TypeId::kInt64}, {"s", TypeId::kString}});
  storage::StorageOptions options;
  options.max_rows_per_block = 10;
  storage::TableShard shard(schema, options, &store);
  FillShard(&shard, 1000);
  const storage::ShardSnapshot version = shard.Snapshot();
  // A cursor reuses a block only on an exact id match: jumping back,
  // or swapping the column list under it, re-decodes but never serves
  // another block's values.
  storage::ReadCursor cursor;
  const std::vector<std::pair<std::vector<int>, storage::RowRange>> reads = {
      {{0}, {500, 520}}, {{0}, {0, 15}},    {{1}, {5, 12}},
      {{1, 0}, {990, 1000}}, {{0, 1}, {985, 995}}, {{0}, {0, 1000}}};
  for (const auto& [columns, range] : reads) {
    auto cols = shard.ReadRange(*version, columns, range, &cursor);
    ASSERT_TRUE(cols.ok()) << cols.status();
    for (size_t i = 0; i < columns.size(); ++i) {
      for (uint64_t r = range.begin; r < range.end; ++r) {
        const Datum want = columns[i] == 0
                               ? Datum::Int64(static_cast<int64_t>(r))
                               : Datum::String("v" + std::to_string(r));
        ASSERT_EQ((*cols)[i].DatumAt(r - range.begin).Compare(want), 0)
            << "column " << columns[i] << " row " << r;
      }
    }
  }
}

TEST(ReadCursorTest, CorruptionStillDetectedOnFirstRead) {
  storage::BlockStore store;
  TableSchema schema("t", {{"a", TypeId::kInt64}, {"s", TypeId::kString}});
  storage::StorageOptions options;
  options.max_rows_per_block = 100;
  storage::TableShard shard(schema, options, &store);
  FillShard(&shard, 200);
  const storage::ShardSnapshot version = shard.Snapshot();
  store.CorruptForTest(shard.chain(0)[1].id);

  storage::ReadCursor cursor;
  ASSERT_TRUE(shard.ReadRange(*version, {0}, {0, 100}, &cursor).ok());
  EXPECT_EQ(shard.ReadRange(*version, {0}, {100, 150}, &cursor)
                .status()
                .code(),
            StatusCode::kCorruption);
  // The store dropped the bad copy (a replica would mask it), and the
  // failed read left nothing in the cursor: the retry fails too, and
  // the healthy block still reads.
  EXPECT_EQ(shard.ReadRange(*version, {0}, {150, 200}, &cursor)
                .status()
                .code(),
            StatusCode::kUnavailable);
  auto first = shard.ReadRange(*version, {0}, {10, 20}, &cursor);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ((*first)[0].IntAt(0), 10);
}

// ---------------------------------------------------------------------------
// LoadChains validation (the streaming-restore entry point)
// ---------------------------------------------------------------------------

TEST(LoadChainsTest, RejectsInvalidChains) {
  storage::BlockStore store;
  TableSchema schema("t", {{"a", TypeId::kInt64}, {"b", TypeId::kInt64}});
  storage::TableShard shard(schema, {}, &store);

  // Wrong column count.
  EXPECT_FALSE(shard.LoadChains({{}}).ok());

  // Gap in the row ranges.
  storage::BlockMeta m1;
  m1.id = 1;
  m1.first_row = 0;
  m1.row_count = 10;
  storage::BlockMeta m2 = m1;
  m2.id = 2;
  m2.first_row = 20;  // gap: should be 10
  EXPECT_FALSE(shard.LoadChains({{m1, m2}, {m1}}).ok());

  // Chains disagreeing on total rows.
  storage::BlockMeta m3 = m1;
  m3.row_count = 5;
  EXPECT_FALSE(shard.LoadChains({{m1}, {m3}}).ok());

  // Valid chains accepted; second load rejected (non-empty shard).
  ASSERT_TRUE(shard.LoadChains({{m1}, {m1}}).ok());
  EXPECT_EQ(shard.row_count(), 10u);
  EXPECT_EQ(shard.LoadChains({{m1}, {m1}}).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace sdw
