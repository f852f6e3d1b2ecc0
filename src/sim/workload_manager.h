#ifndef SDW_SIM_WORKLOAD_MANAGER_H_
#define SDW_SIM_WORKLOAD_MANAGER_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "sim/engine.h"

namespace sdw::sim {

/// Concurrency-slot admission simulated on the discrete-event engine.
/// The WLM ablation bench (A11) uses it to show the throughput/latency
/// tradeoff behind the live controller's default slot count; the live
/// path is cluster::AdmissionController.
class WorkloadManager {
 public:
  struct Config {
    /// Queries executing concurrently; the rest queue FIFO. Clamped to
    /// at least 1.
    int slots = 5;
    /// Memory divides evenly across slots, so more slots slow each
    /// query down: effective service time = base * (1 + penalty *
    /// (slots - 1)). This models the spill/partition cost of smaller
    /// per-slot memory.
    double per_slot_memory_penalty = 0.04;
  };

  WorkloadManager(Engine* engine, Config config);

  struct QueryReport {
    double submitted_at = 0;
    double queued_seconds = 0;
    double exec_seconds = 0;
    double finished_at = 0;
  };

  /// Submits a query whose un-contended execution takes `service_seconds`.
  /// `done` fires (on the sim clock) when it completes.
  void Submit(double service_seconds,
              std::function<void(const QueryReport&)> done = nullptr);

  /// Queries currently executing / waiting.
  int running() const { return running_; }
  size_t queued() const { return queue_.size(); }

  /// Every completed-query report, in completion order.
  const std::vector<QueryReport>& reports() const { return reports_; }

 private:
  void Admit();

  struct Pending {
    double service_seconds = 0;
    double submitted_at = 0;
    std::function<void(const QueryReport&)> done;
  };

  Engine* engine_;
  Config config_;
  int running_ = 0;
  std::vector<Pending> queue_;
  std::vector<QueryReport> reports_;
};

}  // namespace sdw::sim

#endif  // SDW_SIM_WORKLOAD_MANAGER_H_
