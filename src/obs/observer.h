// RunObservation: the per-run bundle of observability sinks shared by all
// scheduler backends — transactions log, stats registry + performance log,
// and Chrome-trace builder — plus the ObsConfig knob block that rides in
// exec::RunOptions.
//
// A disabled observation (the default) costs one branch per emit site; an
// enabled one records in memory (bounded) and optionally streams to the
// configured paths when the run finalizes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "obs/chrome_trace.h"
#include "obs/perf_log.h"
#include "obs/stats_registry.h"
#include "obs/txn_log.h"
#include "util/units.h"

namespace hepvine::obs {

using util::Tick;

struct ObsConfig {
  /// Master switch; off = zero-allocation no-op observation.
  bool enabled = false;
  /// Individual sinks (only consulted when `enabled`).
  bool txn_log = true;
  bool perf_log = true;
  bool chrome_trace = true;
  /// Max transaction lines retained in memory; older lines rotate out
  /// (they remain in `txn_path` when streaming). Default fits ~10^6-task
  /// runs' recent history without unbounded growth.
  std::size_t txn_ring_capacity = 1 << 20;
  /// Perf snapshot cadence (same default as RunOptions::cache_sample_interval).
  Tick perf_sample_interval = 5 * util::kSec;
  /// Optional output paths; empty = in-memory capture only.
  std::string txn_path;
  std::string perf_path;
  std::string trace_path;
};

class RunObservation {
 public:
  explicit RunObservation(const ObsConfig& config);

  [[nodiscard]] const ObsConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool enabled() const noexcept { return config_.enabled; }
  [[nodiscard]] bool txn_enabled() const noexcept {
    return config_.enabled && config_.txn_log;
  }
  [[nodiscard]] bool perf_enabled() const noexcept {
    return config_.enabled && config_.perf_log;
  }
  [[nodiscard]] bool trace_enabled() const noexcept {
    return config_.enabled && config_.chrome_trace;
  }

  [[nodiscard]] TxnLog& txn() noexcept { return *txn_; }
  [[nodiscard]] const TxnLog& txn() const noexcept { return *txn_; }
  [[nodiscard]] StatsRegistry& stats() noexcept { return stats_; }
  [[nodiscard]] const StatsRegistry& stats() const noexcept { return stats_; }
  [[nodiscard]] PerfLog& perf() noexcept { return perf_; }
  [[nodiscard]] const PerfLog& perf() const noexcept { return perf_; }
  [[nodiscard]] ChromeTraceBuilder& trace() noexcept { return trace_; }
  [[nodiscard]] const ChromeTraceBuilder& trace() const noexcept {
    return trace_;
  }

  /// End-of-run bookkeeping: take a final perf sample at `now`, detach
  /// gauges (their callbacks reference subsystems the report outlives),
  /// and write any configured output files.
  void finalize(Tick now);

 private:
  ObsConfig config_;
  std::unique_ptr<TxnLog> txn_;
  StatsRegistry stats_;
  PerfLog perf_;
  ChromeTraceBuilder trace_;
  bool finalized_ = false;
};

/// Shared across backends: create an observation for `config` (never null;
/// disabled configs produce a cheap no-op observation).
[[nodiscard]] std::shared_ptr<RunObservation> make_observation(
    const ObsConfig& config);

}  // namespace hepvine::obs
