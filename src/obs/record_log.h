#ifndef SDW_OBS_RECORD_LOG_H_
#define SDW_OBS_RECORD_LOG_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace sdw::obs {

/// The one history store behind the stl_/stv_ system tables: an
/// append-only, thread-safe log of records that assigns each record a
/// monotonic id at append and serves consistent snapshots.
///
/// `Id` names the record's id member (e.g. `&HealthEvent::event_id`);
/// `nullptr` leaves records as the caller built them (stl_query's ids
/// are reserved earlier, at query start). Ids count from `first_id` and
/// keep counting across eviction, so a bounded log's ids stay monotonic
/// while its oldest rows fall off.
///
/// Every log locks at the single `kObsLog` rank. No method calls out
/// while holding it, so two logs are never held together — the rank
/// validator (equal ranks may not nest) proves it on every CI leg.
template <typename T, auto Id = nullptr>
class RecordLog {
 public:
  /// `capacity` keeps only the newest `capacity` records; 0 keeps all.
  explicit RecordLog(size_t capacity = 0, int64_t first_id = 1)
      : capacity_(capacity), next_id_(first_id) {}

  void Append(T record) SDW_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    AppendLocked(std::move(record));
  }

  /// Appends the records in order, with contiguous ids, atomically with
  /// respect to concurrent appends.
  void AppendAll(std::vector<T> records) SDW_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    for (T& record : records) AppendLocked(std::move(record));
  }

  /// The retained records, oldest first.
  std::vector<T> Snapshot() const SDW_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    std::vector<T> out;
    out.reserve(records_.size());
    out.insert(out.end(), records_.begin() + oldest_, records_.end());
    out.insert(out.end(), records_.begin(), records_.begin() + oldest_);
    return out;
  }

 private:
  void AppendLocked(T record) SDW_REQUIRES(mu_) {
    if constexpr (!std::is_same_v<decltype(Id), std::nullptr_t>) {
      using IdType = std::remove_reference_t<decltype(record.*Id)>;
      record.*Id = static_cast<IdType>(next_id_++);
    }
    if (capacity_ == 0 || records_.size() < capacity_) {
      records_.push_back(std::move(record));
      return;
    }
    // Full ring: the new record takes the oldest one's slot.
    records_[oldest_] = std::move(record);
    oldest_ = (oldest_ + 1) % capacity_;
  }

  const size_t capacity_;
  mutable common::Mutex mu_{common::LockRank::kObsLog};
  int64_t next_id_ SDW_GUARDED_BY(mu_);
  /// Contiguous storage; once a bounded log is full it is a ring whose
  /// oldest record sits at `oldest_` (always 0 while not full).
  std::vector<T> records_ SDW_GUARDED_BY(mu_);
  size_t oldest_ SDW_GUARDED_BY(mu_) = 0;
};

}  // namespace sdw::obs

#endif  // SDW_OBS_RECORD_LOG_H_
