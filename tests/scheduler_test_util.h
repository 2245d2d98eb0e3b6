// Shared helpers for scheduler integration tests: small deterministic
// workloads and clusters that run in milliseconds.
#pragma once

#include "apps/workloads.h"
#include "cluster/calibration.h"
#include "dag/evaluate.h"
#include "exec/scheduler.h"
#include "hep/histogram.h"
#include "util/hash.h"

namespace hepvine::testutil {

/// A small DV3-style workload: `tasks` process tasks over `gb` of input.
inline apps::WorkloadSpec tiny_dv3(std::uint32_t tasks = 24,
                                   std::uint64_t gb = 6) {
  apps::WorkloadSpec spec = apps::dv3_small();
  spec.name = "tiny-dv3";
  spec.process_tasks = tasks;
  spec.input_bytes = gb * util::kGB;
  spec.events_per_chunk = 200;
  spec.process_output_bytes = 30 * util::kMB;
  return spec;
}

/// Cluster with fast batch matching and no preemption unless asked.
inline cluster::ClusterSpec tiny_cluster(std::uint32_t workers = 4,
                                         double preempt_per_hour = 0.0,
                                         std::uint64_t seed = 1) {
  cluster::ClusterSpec spec = cluster::paper_cluster(
      workers, cluster::paper_worker_node(), storage::vast_spec(), seed);
  spec.batch.first_match_delay = util::seconds(0.5);
  spec.batch.match_window = util::seconds(2);
  spec.batch.preemption_rate_per_hour = preempt_per_hour;
  spec.batch.replacement_delay_mean = util::seconds(5);
  return spec;
}

inline exec::RunOptions fast_options() {
  exec::RunOptions options;
  options.seed = 3;
  options.exec_time_jitter = 0.1;
  return options;
}

/// The successful attempt of `t` in the report's span log, or nullptr.
inline const obs::AttemptSpan* find_success(const exec::RunReport& report,
                                            dag::TaskId t) {
  for (const auto& a : report.profile.attempts()) {
    if (a.task == t && !a.failed) return &a;
  }
  return nullptr;
}

/// Digest of the single sink result of a report.
inline util::Digest128 sink_digest(const exec::RunReport& report) {
  EXPECT_EQ(report.results.size(), 1u);
  EXPECT_TRUE(report.results.begin()->second != nullptr);
  return report.results.begin()->second->digest();
}

/// Digest of the single sink of a serial evaluation.
inline util::Digest128 reference_digest(const dag::TaskGraph& graph) {
  const auto results = dag::evaluate_serially(graph);
  EXPECT_EQ(results.size(), 1u);
  return results.begin()->second->digest();
}

}  // namespace hepvine::testutil
