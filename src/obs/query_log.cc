#include "obs/query_log.h"

#include <algorithm>

namespace sdw::obs {

QueryLog::Started QueryLog::StartQuery() {
  common::MutexLock lock(mu_);
  return {next_query_id_++, clock_};
}

uint64_t QueryLog::FinishQuery(QueryRecord record) {
  if (record.trace) {
    record.trace->AssignVirtualTimes(record.start_tick);
    record.end_tick = record.trace->end_tick();
  } else {
    record.end_tick = record.start_tick + 1;
  }
  const uint64_t end_tick = record.end_tick;
  {
    common::MutexLock lock(mu_);
    clock_ = std::max(clock_, end_tick);
  }
  // Appended after the clock lock is released: both locks share the
  // kObsLog rank, which may not nest.
  records_.Append(std::move(record));
  return end_tick;
}

uint64_t QueryLog::now() const {
  common::MutexLock lock(mu_);
  return clock_;
}

}  // namespace sdw::obs
