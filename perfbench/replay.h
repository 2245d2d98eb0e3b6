// Transfer replay: the benchmark's outside estimate of the flow solver's
// share of a run.
//
// A traced run's txn log records every scheduler transfer as
// `time TRANSFER src dst file bytes START`. Replaying those starts at their
// recorded ticks through a fresh Cluster's transfer helpers drives the
// max-min solver with the run's traffic and nothing else: no scheduler, no
// physics. The replay's host time estimates the solver's cost in the run;
// its flow visits against the run's say how faithful that estimate is.
#pragma once

#include <cstdint>
#include <string>

#include "cluster/cluster.h"

namespace perfbench {

struct ReplayResult {
  bool ok = false;               // the log was readable and well formed
  std::uint64_t transfers = 0;   // TRANSFER ... START lines replayed
  std::uint64_t flow_visits = 0;
  std::uint64_t recomputes = 0;
  double host_s = 0.0;  // engine time only; parsing is excluded
};

/// Replay the transfer starts of the txn log at `txn_path` on a fresh
/// cluster built from `spec`.
[[nodiscard]] ReplayResult replay_transfers(
    const std::string& txn_path, const hepvine::cluster::ClusterSpec& spec);

}  // namespace perfbench
