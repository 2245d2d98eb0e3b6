// Per-worker cache (local disk) usage over time, with failure marks —
// the data behind the paper's Fig 11 (single-node vs tree reduction).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/units.h"

namespace hepvine::metrics {

using util::Tick;

class CacheTrace {
 public:
  CacheTrace() = default;
  explicit CacheTrace(std::size_t workers) : workers_(workers) {}

  void sample(std::size_t worker, Tick t, std::uint64_t bytes_used) {
    if (worker < workers_) samples_.push_back({t, worker, bytes_used});
  }
  void mark_failure(std::size_t worker, Tick t) {
    failures_.push_back({t, worker});
  }

  [[nodiscard]] std::size_t workers() const noexcept { return workers_; }
  [[nodiscard]] std::size_t failure_count() const noexcept {
    return failures_.size();
  }

  /// Peak usage per worker (bytes); index = worker.
  [[nodiscard]] std::vector<std::uint64_t> peak_per_worker() const;

  /// Global peak across all workers.
  [[nodiscard]] std::uint64_t global_peak() const;

  /// Spread of peaks: max worker peak / median worker peak (>1 means a few
  /// outlier workers accumulate far more than the rest — the failure mode
  /// of single-node reductions).
  [[nodiscard]] double peak_skew() const;

  /// ASCII chart: one line per displayed worker, usage over time bucketed
  /// into `width` columns, 'X' marking failures.
  [[nodiscard]] std::string render(Tick horizon, std::size_t width = 64,
                                   std::size_t max_rows = 20) const;

 private:
  struct Sample {
    Tick t = 0;
    std::size_t worker = 0;
    std::uint64_t bytes = 0;
  };
  struct Failure {
    Tick t = 0;
    std::size_t worker = 0;
  };
  std::size_t workers_ = 0;
  std::vector<Sample> samples_;
  std::vector<Failure> failures_;
};

}  // namespace hepvine::metrics
