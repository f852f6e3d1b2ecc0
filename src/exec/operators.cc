#include "exec/operators.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <numeric>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "exec/hll.h"
#include "obs/profiler.h"

namespace sdw::exec {

Result<Batch> Collect(Operator* op) {
  Batch out = MakeBatch(op->OutputTypes());
  while (true) {
    SDW_ASSIGN_OR_RETURN(std::optional<Batch> batch, op->Next());
    if (!batch.has_value()) break;
    for (size_t c = 0; c < out.columns.size(); ++c) {
      SDW_RETURN_IF_ERROR(out.columns[c].AppendRange(
          batch->columns[c], 0, batch->columns[c].size()));
    }
  }
  return out;
}

namespace {

// Serializes a set of key values into a hashable string (type-erased,
// length-delimited so distinct tuples never collide), overwriting *out.
void SerializeKey(const Batch& batch, const std::vector<int>& keys,
                  size_t row, std::string* out) {
  out->clear();
  for (int k : keys) {
    const ColumnVector& col = batch.columns[k];
    if (col.IsNull(row)) {
      out->push_back('\x00');
      continue;
    }
    out->push_back('\x01');
    switch (col.type()) {
      case TypeId::kString: {
        const std::string& s = col.StringAt(row);
        uint32_t len = static_cast<uint32_t>(s.size());
        out->append(reinterpret_cast<const char*>(&len), 4);
        out->append(s);
        break;
      }
      case TypeId::kDouble: {
        double d = col.DoubleAt(row);
        if (d == 0.0) d = 0.0;  // normalize -0.0
        out->append(reinterpret_cast<const char*>(&d), 8);
        break;
      }
      default: {
        int64_t v = col.IntAt(row);
        out->append(reinterpret_cast<const char*>(&v), 8);
        break;
      }
    }
  }
}

bool AnyKeyNull(const Batch& batch, const std::vector<int>& keys,
                size_t row) {
  for (int k : keys) {
    if (batch.columns[k].IsNull(row)) return true;
  }
  return false;
}

constexpr uint32_t kNoId = UINT32_MAX;

// Open-addressing hash map from int64 keys to uint32 ids: linear
// probing over a power-of-two table kept at most half full, with the
// key and its id side by side in one slot.
class Int64IdMap {
 public:
  Int64IdMap() { Resize(16); }

  // The id stored for `key`, or kNoId.
  uint32_t Find(int64_t key) const {
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.id == kNoId || slot.key == key) return slot.id;
    }
  }

  // The id stored for `key`; stores `id` first when the key is new.
  uint32_t FindOrAdd(int64_t key, uint32_t id) {
    size_t i = Home(key);
    for (;; i = (i + 1) & mask_) {
      if (slots_[i].id == kNoId) break;
      if (slots_[i].key == key) return slots_[i].id;
    }
    slots_[i] = {key, id};
    if (2 * ++size_ > slots_.size()) Resize(2 * slots_.size());
    return id;
  }

 private:
  struct Slot {
    int64_t key = 0;
    uint32_t id = kNoId;
  };

  // Fibonacci hashing: the high bits of key * 2^64/phi.
  size_t Home(int64_t key) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(key) * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  void Resize(size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    for (const Slot& slot : old) {
      if (slot.id == kNoId) continue;
      size_t i = Home(slot.key);
      while (slots_[i].id != kNoId) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  int shift_ = 64;
  size_t size_ = 0;
};

// Maps key tuples to dense ids in first-seen order: an Int64IdMap for
// a single integer-like key column, serialized keys otherwise. A NULL
// single integer key is its own id. The join never adds a key with a
// NULL, so its NULL probe keys find nothing.
class KeyIds {
 public:
  explicit KeyIds(bool int_key) : int_key_(int_key) {}

  size_t size() const { return size_; }

  // (*ids)[i] = the id of row i's key. With kAdd a new key gets the
  // next id; without, it gets kNoId.
  template <bool kAdd>
  void MapRows(const Batch& batch, const std::vector<int>& keys,
               std::vector<uint32_t>* ids) {
    const size_t n = batch.num_rows();
    ids->resize(n);
    uint32_t* out = ids->data();
    if (!int_key_) {
      for (size_t i = 0; i < n; ++i) {
        out[i] = MapSerialized<kAdd>(batch, keys, i);
      }
      return;
    }
    const ColumnVector& col = batch.columns[keys[0]];
    const int64_t* v = col.ints().data();
    if (!col.has_nulls()) {
      for (size_t i = 0; i < n; ++i) out[i] = MapInt<kAdd>(v[i]);
      return;
    }
    for (size_t i = 0; i < n; ++i) {
      out[i] = col.IsNull(i) ? MapNull<kAdd>() : MapInt<kAdd>(v[i]);
    }
  }

  // The id of row `row`'s key, assigning the next id when it is new.
  uint32_t FindOrAdd(const Batch& batch, const std::vector<int>& keys,
                     size_t row) {
    if (!int_key_) return MapSerialized<true>(batch, keys, row);
    const ColumnVector& col = batch.columns[keys[0]];
    return col.IsNull(row) ? MapNull<true>() : MapInt<true>(col.IntAt(row));
  }

 private:
  uint32_t Next() { return static_cast<uint32_t>(size_); }

  template <bool kAdd>
  uint32_t MapInt(int64_t key) {
    if constexpr (!kAdd) {
      return ints_.Find(key);
    } else {
      const uint32_t id = ints_.FindOrAdd(key, Next());
      if (id == size_) ++size_;
      return id;
    }
  }

  template <bool kAdd>
  uint32_t MapNull() {
    if (kAdd && null_id_ == kNoId) null_id_ = static_cast<uint32_t>(size_++);
    return null_id_;
  }

  template <bool kAdd>
  uint32_t MapSerialized(const Batch& batch, const std::vector<int>& keys,
                         size_t row) {
    SerializeKey(batch, keys, row, &buffer_);
    if constexpr (!kAdd) {
      auto it = strings_.find(buffer_);
      return it == strings_.end() ? kNoId : it->second;
    } else {
      const uint32_t id = strings_.try_emplace(buffer_, Next()).first->second;
      if (id == size_) ++size_;
      return id;
    }
  }

  bool int_key_;
  size_t size_ = 0;
  Int64IdMap ints_;
  uint32_t null_id_ = kNoId;
  std::unordered_map<std::string, uint32_t> strings_;
  std::string buffer_;
};

// ---------------------------------------------------------------------------
// MemoryScan
// ---------------------------------------------------------------------------

class MemoryScanOp : public Operator {
 public:
  MemoryScanOp(std::vector<TypeId> types, std::vector<Batch> batches)
      : types_(std::move(types)), batches_(std::move(batches)) {}

  std::vector<TypeId> OutputTypes() const override { return types_; }

  Result<std::optional<Batch>> Next() override {
    if (next_ >= batches_.size()) return std::optional<Batch>();
    return std::optional<Batch>(std::move(batches_[next_++]));
  }

 private:
  std::vector<TypeId> types_;
  std::vector<Batch> batches_;
  size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// ShardScan
// ---------------------------------------------------------------------------

class ShardScanOp : public Operator {
 public:
  ShardScanOp(storage::ShardRef ref, std::vector<int> columns,
              std::vector<storage::RangePredicate> predicates,
              ScanOptions options)
      : ref_(std::move(ref)),
        columns_(std::move(columns)),
        options_(options),
        ranges_(ref_.shard->CandidateRanges(*ref_.version, predicates)) {
    if (options_.telemetry != nullptr) RecordStaticTelemetry();
  }

  std::vector<TypeId> OutputTypes() const override {
    std::vector<TypeId> types;
    types.reserve(columns_.size());
    for (int c : columns_) {
      types.push_back(ref_.shard->schema().column(c).type);
    }
    return types;
  }

  Result<std::optional<Batch>> Next() override {
    while (range_index_ < ranges_.size()) {
      const storage::RowRange& range = ranges_[range_index_];
      if (offset_ >= range.size()) {
        ++range_index_;
        offset_ = 0;
        continue;
      }
      const uint64_t begin = range.begin + offset_;
      const uint64_t end =
          std::min<uint64_t>(range.end, begin + options_.batch_rows);
      offset_ += end - begin;
      SDW_ASSIGN_OR_RETURN(
          std::vector<ColumnVector> cols,
          ref_.shard->ReadRange(*ref_.version, columns_, {begin, end},
                                &cursor_));
      if (options_.telemetry != nullptr) {
        options_.telemetry->rows_scanned += end - begin;
      }
      if (options_.progress != nullptr) {
        options_.progress->AddRowsScanned(end - begin);
      }
      Batch batch;
      batch.columns = std::move(cols);
      return std::optional<Batch>(std::move(batch));
    }
    return std::optional<Batch>();
  }

 private:
  // Counts, per projected column chain, the blocks overlapping a
  // candidate range (they will be decoded) vs the rest (zone-map
  // skipped). Pure metadata walk over the immutable version — the same
  // numbers on every run; the cursor decodes each counted block once.
  void RecordStaticTelemetry() {
    ScanTelemetry* t = options_.telemetry;
    for (int c : columns_) {
      const auto& chain = ref_.version->chains[c];
      size_t range_index = 0;
      for (const storage::BlockMeta& block : chain) {
        const uint64_t block_end = block.first_row + block.row_count;
        while (range_index < ranges_.size() &&
               ranges_[range_index].end <= block.first_row) {
          ++range_index;
        }
        const bool overlaps = range_index < ranges_.size() &&
                              ranges_[range_index].begin < block_end;
        if (overlaps) {
          t->blocks_read++;
          t->bytes_decoded += block.encoded_bytes;
        } else {
          t->blocks_skipped++;
        }
      }
    }
  }

  storage::ShardRef ref_;
  std::vector<int> columns_;
  ScanOptions options_;
  std::vector<storage::RowRange> ranges_;
  size_t range_index_ = 0;
  uint64_t offset_ = 0;
  storage::ReadCursor cursor_;
};

// ---------------------------------------------------------------------------
// CountRows
// ---------------------------------------------------------------------------

class CountRowsOp : public Operator {
 public:
  CountRowsOp(OperatorPtr input, uint64_t* counter)
      : input_(std::move(input)), counter_(counter) {}

  std::vector<TypeId> OutputTypes() const override {
    return input_->OutputTypes();
  }

  Result<std::optional<Batch>> Next() override {
    SDW_ASSIGN_OR_RETURN(std::optional<Batch> batch, input_->Next());
    if (batch.has_value()) *counter_ += batch->num_rows();
    return batch;
  }

 private:
  OperatorPtr input_;
  uint64_t* counter_;
};

// ---------------------------------------------------------------------------
// Filter
// ---------------------------------------------------------------------------

class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr input, ExprPtr predicate)
      : input_(std::move(input)), predicate_(std::move(predicate)) {}

  std::vector<TypeId> OutputTypes() const override {
    return input_->OutputTypes();
  }

  Result<std::optional<Batch>> Next() override {
    while (true) {
      SDW_ASSIGN_OR_RETURN(std::optional<Batch> batch, input_->Next());
      if (!batch.has_value()) return std::optional<Batch>();
      // The predicate narrows a selection vector of row indexes, then
      // the survivors are gathered lane-wise.
      const size_t n = batch->num_rows();
      selected_.resize(n);
      std::iota(selected_.begin(), selected_.end(), 0u);
      SDW_RETURN_IF_ERROR(predicate_->Select(*batch, &selected_));
      if (selected_.size() == n) {
        return batch;  // nothing filtered: pass the batch through
      }
      // All rows filtered: pull the next batch rather than emitting
      // empties.
      if (selected_.empty()) continue;
      Batch out = MakeBatch(batch->Types());
      for (size_t c = 0; c < batch->columns.size(); ++c) {
        SDW_RETURN_IF_ERROR(
            out.columns[c].AppendSelected(batch->columns[c], selected_));
      }
      return std::optional<Batch>(std::move(out));
    }
  }

 private:
  OperatorPtr input_;
  ExprPtr predicate_;
  std::vector<uint32_t> selected_;
};

// ---------------------------------------------------------------------------
// Project
// ---------------------------------------------------------------------------

class ProjectOp : public Operator {
 public:
  ProjectOp(OperatorPtr input, std::vector<ExprPtr> exprs)
      : input_(std::move(input)), exprs_(std::move(exprs)) {}

  std::vector<TypeId> OutputTypes() const override {
    std::vector<TypeId> types;
    types.reserve(exprs_.size());
    for (const auto& e : exprs_) types.push_back(e->type());
    return types;
  }

  Result<std::optional<Batch>> Next() override {
    SDW_ASSIGN_OR_RETURN(std::optional<Batch> batch, input_->Next());
    if (!batch.has_value()) return std::optional<Batch>();
    Batch out;
    out.columns.reserve(exprs_.size());
    for (const auto& e : exprs_) {
      SDW_ASSIGN_OR_RETURN(ColumnVector col, e->EvalBatch(*batch));
      out.columns.push_back(std::move(col));
    }
    return std::optional<Batch>(std::move(out));
  }

 private:
  OperatorPtr input_;
  std::vector<ExprPtr> exprs_;
};

// ---------------------------------------------------------------------------
// HashJoin
// ---------------------------------------------------------------------------

// Single integer-like key columns on both sides join on their int64
// lanes, exactly as their serialized keys would match.
bool IntegerKeys(const std::vector<TypeId>& types,
                 const std::vector<int>& keys) {
  return keys.size() == 1 && keys[0] >= 0 &&
         static_cast<size_t>(keys[0]) < types.size() &&
         IsIntegerLike(types[keys[0]]);
}

class HashJoinOp : public Operator {
 public:
  HashJoinOp(OperatorPtr probe, OperatorPtr build, std::vector<int> probe_keys,
             std::vector<int> build_keys)
      : probe_(std::move(probe)),
        build_(std::move(build)),
        probe_keys_(std::move(probe_keys)),
        build_keys_(std::move(build_keys)),
        key_ids_(IntegerKeys(probe_->OutputTypes(), probe_keys_) &&
                 IntegerKeys(build_->OutputTypes(), build_keys_)) {}

  std::vector<TypeId> OutputTypes() const override {
    std::vector<TypeId> types = probe_->OutputTypes();
    for (TypeId t : build_->OutputTypes()) types.push_back(t);
    return types;
  }

  Result<std::optional<Batch>> Next() override {
    if (!built_) {
      SDW_RETURN_IF_ERROR(Build());
      built_ = true;
    }
    while (true) {
      SDW_ASSIGN_OR_RETURN(std::optional<Batch> batch, probe_->Next());
      if (!batch.has_value()) return std::optional<Batch>();
      // Probe: one (probe row, build row) pair per match, then a
      // lane-wise gather of each output column. A key with a NULL was
      // never added, so it finds no id: NULLs never join.
      key_ids_.MapRows<false>(*batch, probe_keys_, &ids_);
      probe_rows_.clear();
      build_rows_.clear();
      for (size_t i = 0; i < ids_.size(); ++i) {
        if (ids_[i] == kNoId) continue;
        for (uint32_t b = heads_[ids_[i]]; b != kNoId; b = next_[b]) {
          probe_rows_.push_back(static_cast<uint32_t>(i));
          build_rows_.push_back(b);
        }
      }
      if (probe_rows_.empty()) continue;
      Batch out;
      out.columns.reserve(batch->num_columns() + build_data_.num_columns());
      for (const ColumnVector& col : batch->columns) {
        out.columns.emplace_back(col.type());
        SDW_RETURN_IF_ERROR(out.columns.back().AppendSelected(col, probe_rows_));
      }
      for (const ColumnVector& col : build_data_.columns) {
        out.columns.emplace_back(col.type());
        SDW_RETURN_IF_ERROR(out.columns.back().AppendSelected(col, build_rows_));
      }
      return std::optional<Batch>(std::move(out));
    }
  }

 private:
  // A build row inserted while the table holds at most this many rows
  // goes right after its key's first row; a later one goes in front.
  static constexpr size_t kFrontInsertAfter = 20;

  // Chains each key's build rows in the order the probe emits them.
  // The order is the one the std::unordered_multimap this join was
  // first built on gave under libstdc++ 12 (whose small-table path
  // inserts a duplicate after the first equal element, and whose
  // hashed path before it). Join order reaches answers through float
  // sums, MIN/MAX ties and ORDER BY ties, so it is kept.
  Status Build() {
    SDW_ASSIGN_OR_RETURN(build_data_, Collect(build_.get()));
    const size_t n = build_data_.num_rows();
    next_.assign(n, kNoId);
    size_t inserted = 0;
    for (size_t i = 0; i < n; ++i) {
      if (AnyKeyNull(build_data_, build_keys_, i)) continue;
      const uint32_t row = static_cast<uint32_t>(i);
      const uint32_t id = key_ids_.FindOrAdd(build_data_, build_keys_, i);
      if (id == heads_.size()) {
        heads_.push_back(row);
      } else if (inserted <= kFrontInsertAfter) {
        next_[row] = next_[heads_[id]];
        next_[heads_[id]] = row;
      } else {
        next_[row] = heads_[id];
        heads_[id] = row;
      }
      ++inserted;
    }
    return Status::OK();
  }

  OperatorPtr probe_;
  OperatorPtr build_;
  std::vector<int> probe_keys_;
  std::vector<int> build_keys_;
  bool built_ = false;
  Batch build_data_;
  KeyIds key_ids_;
  // Per key id, its first build row in probe order; per build row, the
  // next row with the same key (kNoId ends the chain).
  std::vector<uint32_t> heads_;
  std::vector<uint32_t> next_;
  // Per probe batch: each row's key id, then the matched row pairs.
  std::vector<uint32_t> ids_;
  std::vector<uint32_t> probe_rows_;
  std::vector<uint32_t> build_rows_;
};

// ---------------------------------------------------------------------------
// HashAggregate
// ---------------------------------------------------------------------------

// One aggregate's state, one entry per group id. Which vectors are in
// use depends on the function and its input lane: COUNT counts in
// `ints`; SUM, MIN and MAX keep their value in `ints`, `doubles` or
// (MIN/MAX only) `strings`, with `has_value` set once a non-NULL input
// arrived; APPROXIMATE COUNT(DISTINCT) keeps lazily allocated sketches.
struct AggColumn {
  AggFn fn = AggFn::kCount;
  int input = -1;  // batch column read; -1 for COUNT(*)
  TypeId type = TypeId::kInt64;  // that column's type
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<std::string> strings;
  std::vector<uint8_t> has_value;
  std::vector<std::unique_ptr<HyperLogLog>> sketches;

  void Resize(size_t groups) {
    if (fn == AggFn::kApproxDistinct) {
      sketches.resize(groups);
      return;
    }
    if (fn == AggFn::kCount || IsIntegerLike(type)) {
      ints.resize(groups, 0);
    } else if (type == TypeId::kDouble) {
      doubles.resize(groups, 0.0);
    } else {
      strings.resize(groups);
    }
    if (fn != AggFn::kCount) has_value.resize(groups, 0);
  }
};

// The per-row loops. Each runs once per batch and aggregate over
// (gid[i], lane[i]); kNulls picks the variant that skips NULL lanes.
template <bool kNulls>
void CountRowsInto(const uint32_t* gid, const uint8_t* nulls, size_t n,
                   int64_t* count) {
  for (size_t i = 0; i < n; ++i) {
    if (kNulls && nulls[i] != 0) continue;
    ++count[gid[i]];
  }
}

template <bool kNulls, typename T>
void SumInto(const uint32_t* gid, const T* v, const uint8_t* nulls, size_t n,
             T* sum, uint8_t* has_value) {
  for (size_t i = 0; i < n; ++i) {
    if (kNulls && nulls[i] != 0) continue;
    const uint32_t g = gid[i];
    if constexpr (std::is_same_v<T, int64_t>) {
      // Integer SUM wraps (two's complement) rather than overflowing.
      sum[g] = static_cast<int64_t>(static_cast<uint64_t>(sum[g]) +
                                    static_cast<uint64_t>(v[i]));
    } else {
      sum[g] += v[i];
    }
    has_value[g] = 1;
  }
}

// Strict comparisons, so a tie (including -0.0 vs 0.0) keeps the first
// value seen.
template <bool kNulls, bool kMin, typename T>
void MinMaxInto(const uint32_t* gid, const T* v, const uint8_t* nulls,
                size_t n, T* best, uint8_t* has_value) {
  for (size_t i = 0; i < n; ++i) {
    if (kNulls && nulls[i] != 0) continue;
    const uint32_t g = gid[i];
    if (!has_value[g] || (kMin ? v[i] < best[g] : best[g] < v[i])) {
      best[g] = v[i];
      has_value[g] = 1;
    }
  }
}

template <bool kNulls, typename T>
void MinOrMaxInto(bool min, const uint32_t* gid, const T* v,
                  const uint8_t* nulls, size_t n, T* best,
                  uint8_t* has_value) {
  if (min) {
    MinMaxInto<kNulls, true>(gid, v, nulls, n, best, has_value);
  } else {
    MinMaxInto<kNulls, false>(gid, v, nulls, n, best, has_value);
  }
}

class HashAggregateOp : public Operator {
 public:
  HashAggregateOp(OperatorPtr input, std::vector<int> group_by,
                  std::vector<AggSpec> aggs, AggMode mode)
      : input_(std::move(input)),
        group_by_(std::move(group_by)),
        aggs_(std::move(aggs)),
        mode_(mode),
        input_types_(input_->OutputTypes()),
        group_ids_(IntegerKeys(input_types_, group_by_)) {
    for (int g : group_by_) keys_.columns.emplace_back(input_types_[g]);
    columns_.resize(aggs_.size());
    for (size_t a = 0; a < aggs_.size(); ++a) {
      AggColumn& col = columns_[a];
      col.fn = aggs_[a].fn;
      // In kFinal mode the agg inputs are the partial-output columns,
      // laid out right after the group columns.
      col.input = mode_ == AggMode::kFinal
                      ? static_cast<int>(group_by_.size() + a)
                      : aggs_[a].column;
      col.type = col.input < 0 ? TypeId::kInt64 : input_types_[col.input];
    }
    // A global aggregate (no GROUP BY) has exactly one group, so even
    // zero input rows emit one row of empty aggregates.
    if (group_by_.empty()) AddGroups(1);
  }

  std::vector<TypeId> OutputTypes() const override {
    std::vector<TypeId> types;
    for (int g : group_by_) types.push_back(input_types_[g]);
    for (size_t a = 0; a < aggs_.size(); ++a) {
      types.push_back(AggOutputType(a));
    }
    return types;
  }

  Result<std::optional<Batch>> Next() override {
    if (done_) return std::optional<Batch>();
    done_ = true;
    while (true) {
      SDW_ASSIGN_OR_RETURN(std::optional<Batch> batch, input_->Next());
      if (!batch.has_value()) break;
      SDW_RETURN_IF_ERROR(AssignGroups(*batch));
      for (AggColumn& col : columns_) {
        SDW_RETURN_IF_ERROR(Accumulate(*batch, &col));
      }
    }
    return std::optional<Batch>(Emit());
  }

 private:
  TypeId AggOutputType(size_t a) const {
    switch (aggs_[a].fn) {
      case AggFn::kCount:
        return TypeId::kInt64;
      case AggFn::kSum:
        return columns_[a].type == TypeId::kDouble ? TypeId::kDouble
                                                   : TypeId::kInt64;
      case AggFn::kMin:
      case AggFn::kMax:
        return columns_[a].type;
      case AggFn::kApproxDistinct:
        // Partials ship the serialized sketch; single/final emit the
        // cardinality estimate.
        return mode_ == AggMode::kPartial ? TypeId::kString : TypeId::kInt64;
    }
    return TypeId::kInt64;
  }

  void AddGroups(size_t count) {
    num_groups_ += count;
    for (AggColumn& col : columns_) col.Resize(num_groups_);
  }

  // Maps every row to its dense group id (first-seen order, which is
  // the emit order) and appends the key of each new group.
  Status AssignGroups(const Batch& batch) {
    if (group_by_.empty()) {
      gids_.assign(batch.num_rows(), 0);
      return Status::OK();
    }
    group_ids_.MapRows<true>(batch, group_by_, &gids_);
    if (group_ids_.size() == num_groups_) return Status::OK();
    // New ids were handed out in row order, each at its first row.
    new_rows_.clear();
    for (size_t i = 0; i < gids_.size(); ++i) {
      if (gids_[i] == num_groups_ + new_rows_.size()) {
        new_rows_.push_back(static_cast<uint32_t>(i));
      }
    }
    for (size_t k = 0; k < group_by_.size(); ++k) {
      SDW_RETURN_IF_ERROR(keys_.columns[k].AppendSelected(
          batch.columns[group_by_[k]], new_rows_));
    }
    AddGroups(new_rows_.size());
    return Status::OK();
  }

  Status Accumulate(const Batch& batch, AggColumn* agg) {
    const size_t n = batch.num_rows();
    const uint32_t* gid = gids_.data();
    if (agg->input < 0) {  // COUNT(*)
      CountRowsInto<false>(gid, nullptr, n, agg->ints.data());
      return Status::OK();
    }
    const ColumnVector& col = batch.columns[agg->input];
    if (col.has_nulls()) return AccumulateLane<true>(col, agg);
    return AccumulateLane<false>(col, agg);
  }

  template <bool kNulls>
  Status AccumulateLane(const ColumnVector& col, AggColumn* agg) {
    const size_t n = col.size();
    const uint32_t* gid = gids_.data();
    const uint8_t* nulls = col.nulls().data();
    switch (agg->fn) {
      case AggFn::kCount:
        if (mode_ == AggMode::kFinal) {
          // Merging partial counts: sum them.
          const int64_t* v = col.ints().data();
          for (size_t i = 0; i < n; ++i) {
            if (kNulls && nulls[i] != 0) continue;
            agg->ints[gid[i]] += v[i];
          }
        } else {
          CountRowsInto<kNulls>(gid, nulls, n, agg->ints.data());
        }
        return Status::OK();
      case AggFn::kSum:
        if (col.type() == TypeId::kString) {
          return Status::InvalidArgument("SUM over a string column");
        }
        if (col.type() == TypeId::kDouble) {
          SumInto<kNulls>(gid, col.doubles().data(), nulls, n,
                          agg->doubles.data(), agg->has_value.data());
        } else {
          SumInto<kNulls>(gid, col.ints().data(), nulls, n, agg->ints.data(),
                          agg->has_value.data());
        }
        return Status::OK();
      case AggFn::kMin:
      case AggFn::kMax: {
        const bool min = agg->fn == AggFn::kMin;
        if (col.type() == TypeId::kDouble) {
          MinOrMaxInto<kNulls>(min, gid, col.doubles().data(), nulls, n,
                               agg->doubles.data(), agg->has_value.data());
        } else if (col.type() == TypeId::kString) {
          MinOrMaxInto<kNulls>(min, gid, col.strings().data(), nulls, n,
                               agg->strings.data(), agg->has_value.data());
        } else {
          MinOrMaxInto<kNulls>(min, gid, col.ints().data(), nulls, n,
                               agg->ints.data(), agg->has_value.data());
        }
        return Status::OK();
      }
      case AggFn::kApproxDistinct:
        for (size_t i = 0; i < n; ++i) {
          if (kNulls && nulls[i] != 0) continue;
          std::unique_ptr<HyperLogLog>& sketch = agg->sketches[gid[i]];
          if (!sketch) sketch = std::make_unique<HyperLogLog>();
          if (mode_ == AggMode::kFinal) {
            // Partials arrive as serialized sketches: merge them.
            SDW_ASSIGN_OR_RETURN(HyperLogLog partial,
                                 HyperLogLog::Deserialize(col.StringAt(i)));
            SDW_RETURN_IF_ERROR(sketch->Merge(partial));
          } else {
            sketch->Add(col.HashAt(i));
          }
        }
        return Status::OK();
    }
    return Status::OK();
  }

  Batch Emit() {
    Batch out = std::move(keys_);
    for (size_t a = 0; a < aggs_.size(); ++a) {
      AggColumn& agg = columns_[a];
      ColumnVector col(AggOutputType(a));
      col.Reserve(num_groups_);
      for (size_t g = 0; g < num_groups_; ++g) {
        switch (agg.fn) {
          case AggFn::kCount:
            col.AppendInt(agg.ints[g]);
            break;
          case AggFn::kSum:
          case AggFn::kMin:
          case AggFn::kMax:
            if (!agg.has_value[g]) {
              col.AppendNull();
            } else if (agg.type == TypeId::kDouble) {
              col.AppendDouble(agg.doubles[g]);
            } else if (agg.type == TypeId::kString) {
              col.AppendString(std::move(agg.strings[g]));
            } else {
              col.AppendInt(agg.ints[g]);
            }
            break;
          case AggFn::kApproxDistinct: {
            const std::unique_ptr<HyperLogLog>& sketch = agg.sketches[g];
            if (mode_ == AggMode::kPartial) {
              col.AppendString(sketch ? sketch->Serialize()
                                      : HyperLogLog().Serialize());
            } else {
              col.AppendInt(
                  sketch ? static_cast<int64_t>(sketch->Estimate()) : 0);
            }
            break;
          }
        }
      }
      out.columns.push_back(std::move(col));
    }
    return out;
  }

  OperatorPtr input_;
  std::vector<int> group_by_;
  std::vector<AggSpec> aggs_;
  AggMode mode_;
  std::vector<TypeId> input_types_;
  bool done_ = false;
  KeyIds group_ids_;
  size_t num_groups_ = 0;
  // Group key columns, one row per group id.
  Batch keys_;
  std::vector<AggColumn> columns_;
  // Per batch: each row's group id, and the rows that opened a group.
  std::vector<uint32_t> gids_;
  std::vector<uint32_t> new_rows_;
};

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

class SortOp : public Operator {
 public:
  SortOp(OperatorPtr input, std::vector<SortKey> keys)
      : input_(std::move(input)), keys_(std::move(keys)) {}

  std::vector<TypeId> OutputTypes() const override {
    return input_->OutputTypes();
  }

  Result<std::optional<Batch>> Next() override {
    if (done_) return std::optional<Batch>();
    done_ = true;
    SDW_ASSIGN_OR_RETURN(Batch all, Collect(input_.get()));
    const size_t n = all.num_rows();
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (const SortKey& key : keys_) {
        const ColumnVector& col = all.columns[key.column];
        int cmp = col.DatumAt(a).Compare(col.DatumAt(b));
        if (cmp != 0) return key.descending ? cmp > 0 : cmp < 0;
      }
      return false;
    });
    Batch out = MakeBatch(all.Types());
    for (size_t i : order) {
      SDW_RETURN_IF_ERROR(AppendRow(all, i, &out));
    }
    return std::optional<Batch>(std::move(out));
  }

 private:
  OperatorPtr input_;
  std::vector<SortKey> keys_;
  bool done_ = false;
};

// ---------------------------------------------------------------------------
// Limit
// ---------------------------------------------------------------------------

class LimitOp : public Operator {
 public:
  LimitOp(OperatorPtr input, uint64_t limit)
      : input_(std::move(input)), remaining_(limit) {}

  std::vector<TypeId> OutputTypes() const override {
    return input_->OutputTypes();
  }

  Result<std::optional<Batch>> Next() override {
    if (remaining_ == 0) return std::optional<Batch>();
    SDW_ASSIGN_OR_RETURN(std::optional<Batch> batch, input_->Next());
    if (!batch.has_value()) return std::optional<Batch>();
    if (batch->num_rows() <= remaining_) {
      remaining_ -= batch->num_rows();
      return batch;
    }
    Batch out = MakeBatch(batch->Types());
    for (size_t i = 0; i < remaining_; ++i) {
      SDW_RETURN_IF_ERROR(AppendRow(*batch, i, &out));
    }
    remaining_ = 0;
    return std::optional<Batch>(std::move(out));
  }

 private:
  OperatorPtr input_;
  uint64_t remaining_;
};

}  // namespace

OperatorPtr MemoryScan(std::vector<TypeId> types, std::vector<Batch> batches) {
  return std::make_unique<MemoryScanOp>(std::move(types), std::move(batches));
}

OperatorPtr ShardScan(storage::ShardRef ref, std::vector<int> columns,
                      std::vector<storage::RangePredicate> predicates,
                      ScanOptions options) {
  return std::make_unique<ShardScanOp>(std::move(ref), std::move(columns),
                                       std::move(predicates), options);
}

OperatorPtr ShardScan(storage::TableShard* shard, std::vector<int> columns,
                      std::vector<storage::RangePredicate> predicates,
                      ScanOptions options) {
  // Non-owning convenience for single-threaded callers (tests, tools):
  // pins whatever the head version is right now.
  storage::ShardRef ref;
  ref.shard = std::shared_ptr<storage::TableShard>(
      shard, [](storage::TableShard*) {});
  ref.version = shard->Snapshot();
  return ShardScan(std::move(ref), std::move(columns), std::move(predicates),
                   options);
}

OperatorPtr Filter(OperatorPtr input, ExprPtr predicate) {
  return std::make_unique<FilterOp>(std::move(input), std::move(predicate));
}

OperatorPtr CountRows(OperatorPtr input, uint64_t* counter) {
  return std::make_unique<CountRowsOp>(std::move(input), counter);
}

OperatorPtr Project(OperatorPtr input, std::vector<ExprPtr> exprs) {
  return std::make_unique<ProjectOp>(std::move(input), std::move(exprs));
}

OperatorPtr HashJoin(OperatorPtr probe, OperatorPtr build,
                     std::vector<int> probe_keys,
                     std::vector<int> build_keys) {
  return std::make_unique<HashJoinOp>(std::move(probe), std::move(build),
                                      std::move(probe_keys),
                                      std::move(build_keys));
}

OperatorPtr HashAggregate(OperatorPtr input, std::vector<int> group_by,
                          std::vector<AggSpec> aggs, AggMode mode) {
  return std::make_unique<HashAggregateOp>(std::move(input),
                                           std::move(group_by),
                                           std::move(aggs), mode);
}

OperatorPtr Sort(OperatorPtr input, std::vector<SortKey> keys) {
  return std::make_unique<SortOp>(std::move(input), std::move(keys));
}

OperatorPtr Limit(OperatorPtr input, uint64_t limit) {
  return std::make_unique<LimitOp>(std::move(input), limit);
}

}  // namespace sdw::exec
