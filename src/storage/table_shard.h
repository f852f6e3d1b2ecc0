#ifndef SDW_STORAGE_TABLE_SHARD_H_
#define SDW_STORAGE_TABLE_SHARD_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "catalog/schema.h"
#include "catalog/types.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "storage/block_store.h"
#include "storage/zone_map.h"

namespace sdw::storage {

/// Knobs for the block writer.
struct StorageOptions {
  /// Maximum estimated raw bytes per block (paper: fixed-size 1 MiB
  /// blocks; kept configurable so benches can produce many blocks from
  /// laptop-scale data).
  size_t block_bytes = 1024 * 1024;
  /// Hard cap on rows per block regardless of width.
  size_t max_rows_per_block = 65536;
};

/// A contiguous half-open range of logical row offsets within a shard.
struct RowRange {
  uint64_t begin = 0;
  uint64_t end = 0;

  uint64_t size() const { return end - begin; }
  bool operator==(const RowRange& other) const {
    return begin == other.begin && end == other.end;
  }
};

/// A single-column range predicate used for block skipping: NULL bounds
/// are unbounded; both bounds inclusive.
struct RangePredicate {
  int column = 0;
  Datum lo;
  Datum hi;
};

/// Metadata for one block in a column chain. The linkage between the
/// columns of a row is purely the logical row offset (paper §2.1), so
/// each column chains its blocks independently.
struct BlockMeta {
  BlockId id = 0;
  uint64_t first_row = 0;
  uint64_t row_count = 0;
  ColumnEncoding encoding = ColumnEncoding::kRaw;
  size_t encoded_bytes = 0;
  ZoneMap zone;
};

/// One immutable version of a shard's chains. Once published via
/// TableShard::Install the struct is never mutated again, so any number
/// of readers can scan it without locks while writers build successor
/// versions off to the side.
struct ShardVersion {
  uint64_t version = 0;
  std::vector<std::vector<BlockMeta>> chains;
  uint64_t row_count = 0;
  uint64_t encoded_bytes = 0;
};

/// A pinned shard version. Holding the pointer keeps every block the
/// version references alive: garbage collection only reclaims versions
/// whose snapshot is no longer referenced anywhere.
using ShardSnapshot = std::shared_ptr<const ShardVersion>;

class TableShard;

/// A pinned (shard, version) pair — what a snapshot reader actually
/// scans. The shard pointer keeps the store wiring alive across DROP
/// TABLE; the version pins the chains.
struct ShardRef {
  std::shared_ptr<TableShard> shard;
  ShardSnapshot version;
};

/// One reader's decoded blocks: for each position of ReadRange's column
/// list, the block it decoded last. A scan reads ascending ranges, so a
/// block spanning several of its batches is decoded once. Owned by one
/// reader (never shared between threads or scans); a block is reused
/// only on an exact id match, so a stale entry is merely decoded anew.
struct ReadCursor {
  struct Decoded {
    BlockId id = 0;
    std::optional<ColumnVector> values;
  };
  std::vector<Decoded> last;
};

/// One slice's portion of one table: per-column chains of encoded,
/// immutable blocks plus in-memory zone maps.
///
/// MVCC: the chains live in an immutable ShardVersion published under
/// head_mu_. Readers pin a version with Snapshot() and scan it without
/// further coordination. Writers stage new blocks with PrepareAppend /
/// PrepareRewrite (store writes happen here, but no reader can see the
/// blocks yet) and make them visible with Install, which atomically
/// swaps the head and retires the old version onto a FIFO garbage
/// queue. CollectGarbage deletes the blocks of retired versions once
/// their snapshots are unreferenced.
class TableShard {
 public:
  TableShard(TableSchema schema, StorageOptions options, BlockStore* store);

  const TableSchema& schema() const { return schema_; }

  /// Pins the current head version. [[nodiscard]]: a dropped pin is a
  /// no-op that reads like a consistency guarantee.
  [[nodiscard]] ShardSnapshot Snapshot() const SDW_EXCLUDES(head_mu_);

  /// Rows / bytes / chain metadata of the current head (backup,
  /// replication, system tables and benches walk these; scans should
  /// pin a Snapshot() instead so they see one consistent version).
  uint64_t row_count() const { return Snapshot()->row_count; }
  uint64_t encoded_bytes() const { return Snapshot()->encoded_bytes; }
  std::vector<BlockMeta> chain(size_t column) const {
    return Snapshot()->chains[column];
  }
  size_t num_columns() const { return schema_.num_columns(); }

  /// Changes the encoding used for future appends to a column (the
  /// COPY-time compression analyzer calls this before the first load).
  void SetColumnEncoding(size_t column, ColumnEncoding encoding) {
    schema_.SetColumnEncoding(column, encoding);
  }

  /// Appends one run of rows (column vectors of equal length, one per
  /// schema column) as a single new version: PrepareAppend off the
  /// current head followed immediately by Install.
  Status Append(const std::vector<ColumnVector>& columns);

  /// Builds a successor of `base` with `columns` appended, writing the
  /// new blocks to the store. The result is invisible to readers until
  /// Install; abandon it with DiscardPrepared. `base` may itself be a
  /// prepared-but-uninstalled version (multi-run statements chain their
  /// appends and install once).
  Result<ShardSnapshot> PrepareAppend(const ShardSnapshot& base,
                                      const std::vector<ColumnVector>& columns);

  /// Builds a full replacement version (VACUUM rewrite): fresh chains
  /// holding exactly `columns` starting at row 0, as a successor of
  /// `base`. Invisible until Install.
  Result<ShardSnapshot> PrepareRewrite(const ShardSnapshot& base,
                                       const std::vector<ColumnVector>& columns);

  /// Publishes `next`: atomically swaps the head from `expected` to
  /// `next` and retires `expected` (its blocks absent from `next`
  /// become the retired version's delete set). Fails with
  /// FailedPrecondition if the head moved since `expected` was pinned —
  /// callers serialize writers, so that indicates a bug.
  Status Install(const ShardSnapshot& expected, ShardSnapshot next)
      SDW_EXCLUDES(head_mu_);

  /// Deletes the blocks a prepared-but-uninstalled version added over
  /// its base (statement abort). Returns the ids removed.
  std::vector<BlockId> DiscardPrepared(const ShardVersion& base,
                                       const ShardVersion& next);

  /// Rebuilds this (empty) shard from backed-up chain metadata. Blocks
  /// need not be resident in the store yet — reads will page-fault them
  /// in via the store's fault handler (streaming restore, §2.3).
  Status LoadChains(std::vector<std::vector<BlockMeta>> chains);

  /// Installs `chains` as a new version of a live shard (transaction
  /// rollback restores the pre-transaction manifest this way). Blocks
  /// only reachable from the current head are retired for GC; readers
  /// pinned on older versions are unaffected.
  Status InstallChains(std::vector<std::vector<BlockMeta>> chains)
      SDW_EXCLUDES(head_mu_);

  /// Reclaims retired versions no longer pinned by any snapshot,
  /// deleting their delete-set blocks from the store. The retired queue
  /// is FIFO and an entry is only reclaimed while it is at the front:
  /// delete sets are cumulative along the version chain (a block
  /// retired at version v may still be readable from a pinned version
  /// older than v), so a pinned old version blocks every newer retiree.
  /// Appends reclaimed block ids to `reclaimed` (may be null) and
  /// returns the number of versions freed.
  uint64_t CollectGarbage(std::vector<BlockId>* reclaimed)
      SDW_EXCLUDES(head_mu_);

  /// Retired versions still waiting for GC (pinned or queued).
  size_t retired_versions() const SDW_EXCLUDES(head_mu_);

  /// Snapshot-parameterized reads. Row ranges that may satisfy all
  /// predicates, ascending and non-overlapping; no predicates -> one
  /// full-range candidate.
  std::vector<RowRange> CandidateRanges(
      const ShardVersion& version,
      const std::vector<RangePredicate>& predicates) const;

  /// Materializes the requested columns for a row range of `version`.
  /// Decodes every block overlapping the range (per-column chains are
  /// block-aligned independently), except one already in `cursor`.
  /// Without a cursor every call decodes afresh. Reads take no lock.
  Result<std::vector<ColumnVector>> ReadRange(const ShardVersion& version,
                                              const std::vector<int>& columns,
                                              const RowRange& range,
                                              ReadCursor* cursor = nullptr);

  /// Materializes whole columns of `version`.
  Result<std::vector<ColumnVector>> ReadAll(const ShardVersion& version,
                                            const std::vector<int>& columns);

  /// Head-version conveniences for single-threaded callers (tests,
  /// tools). Each call pins the head anew, so back-to-back calls may
  /// see different versions if a writer installs in between.
  std::vector<RowRange> CandidateRanges(
      const std::vector<RangePredicate>& predicates) const {
    return CandidateRanges(*Snapshot(), predicates);
  }
  Result<std::vector<ColumnVector>> ReadRange(const std::vector<int>& columns,
                                              const RowRange& range) {
    return ReadRange(*Snapshot(), columns, range);
  }
  Result<std::vector<ColumnVector>> ReadAll(const std::vector<int>& columns) {
    return ReadAll(*Snapshot(), columns);
  }

  /// Every block id reachable from the current head.
  std::vector<BlockId> AllBlockIds() const;

  /// Blocks decoded by ReadRange since the last ResetCounters (the
  /// block-skipping bench's measured quantity). Blocks a cursor reuses
  /// do not count.
  uint64_t blocks_decoded() const {
    return blocks_decoded_.load(std::memory_order_relaxed);
  }
  void ResetCounters() { blocks_decoded_.store(0, std::memory_order_relaxed); }

 private:
  /// Appends one column run to `chain`, splitting into blocks and
  /// writing them to the store. Adds the encoded size to `bytes`.
  Status AppendColumnTo(std::vector<BlockMeta>* chain, size_t column,
                        const ColumnVector& values, uint64_t first_row,
                        uint64_t* bytes);

  /// Validates chain invariants (no row gaps, columns agree on row
  /// count) and builds a version struct from them. `version` is the
  /// published version number to stamp.
  Result<std::shared_ptr<ShardVersion>> BuildVersion(
      std::vector<std::vector<BlockMeta>> chains, uint64_t version) const;

  /// Reads + decodes one block and counts it.
  Result<ColumnVector> DecodeBlock(const BlockMeta& meta, TypeId type);

  /// Estimated raw width of one value of the column, for block sizing.
  static size_t EstimateWidth(const ColumnVector& values);

  TableSchema schema_;
  StorageOptions options_;
  BlockStore* store_;

  /// A version retired by Install, waiting for its pins to drain.
  struct Retired {
    ShardSnapshot version;
    /// Blocks reachable from `version` but not from its successor —
    /// deletable once no snapshot at or before `version` is pinned.
    std::vector<BlockId> garbage;
  };

  /// head_mu_ orders only the head swap and the retired queue; scans
  /// never take it beyond the initial Snapshot() pin. Lock order is
  /// head_mu_ -> store mu_ (GC deletes under head_mu_; the store never
  /// calls back into shards).
  mutable common::Mutex head_mu_{common::LockRank::kShardHead};
  ShardSnapshot head_ SDW_GUARDED_BY(head_mu_);
  std::deque<Retired> retired_ SDW_GUARDED_BY(head_mu_);

  std::atomic<uint64_t> blocks_decoded_{0};
};

}  // namespace sdw::storage

#endif  // SDW_STORAGE_TABLE_SHARD_H_
