#include "sim/workload_manager.h"

#include <algorithm>
#include <utility>

namespace sdw::sim {

WorkloadManager::WorkloadManager(Engine* engine, Config config)
    : engine_(engine), config_(config) {
  // A zero- or negative-slot config would never admit anything.
  config_.slots = std::max(1, config_.slots);
}

void WorkloadManager::Submit(double service_seconds,
                             std::function<void(const QueryReport&)> done) {
  queue_.push_back({service_seconds, engine_->Now(), std::move(done)});
  Admit();
}

void WorkloadManager::Admit() {
  while (running_ < config_.slots && !queue_.empty()) {
    Pending next = std::move(queue_.front());
    queue_.erase(queue_.begin());
    ++running_;
    // Smaller per-slot memory share slows each query down.
    const double effective =
        next.service_seconds *
        (1.0 + config_.per_slot_memory_penalty * (config_.slots - 1));
    const double start = engine_->Now();
    engine_->Schedule(effective, [this, next = std::move(next), start,
                                  effective] {
      QueryReport report;
      report.submitted_at = next.submitted_at;
      report.queued_seconds = start - next.submitted_at;
      report.exec_seconds = effective;
      report.finished_at = engine_->Now();
      reports_.push_back(report);
      if (next.done) next.done(report);
      --running_;
      Admit();
    });
  }
}

}  // namespace sdw::sim
