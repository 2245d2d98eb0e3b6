#include "dd/dask_distributed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "metrics/task_trace.h"
#include "scheduler_test_util.h"

namespace hepvine::dd {
namespace {

using namespace hepvine::testutil;
using util::Tick;

struct DdEndToEnd : public ::testing::Test {
  exec::RunReport run(const apps::WorkloadSpec& workload,
                      const exec::RunOptions& options,
                      std::uint32_t workers = 4,
                      DaskTunables tunables = DaskTunables{}) {
    graph = apps::build_workload(workload, options.seed);
    cluster::Cluster cluster(tiny_cluster(workers));
    DaskDistScheduler scheduler(tunables);
    return scheduler.run(graph, cluster, options);
  }
  dag::TaskGraph graph;
};

TEST_F(DdEndToEnd, CompletesAndMatchesSerialReference) {
  const auto report = run(tiny_dv3(), fast_options());
  ASSERT_TRUE(report.success) << report.failure_reason;
  EXPECT_EQ(report.scheduler, "dask.distributed");
  EXPECT_EQ(sink_digest(report), reference_digest(graph));
}

TEST_F(DdEndToEnd, DeterministicAcrossRuns) {
  const auto a = run(tiny_dv3(), fast_options());
  const auto b = run(tiny_dv3(), fast_options());
  ASSERT_TRUE(a.success);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(sink_digest(a), sink_digest(b));
}

TEST_F(DdEndToEnd, UsesAllCoresViaSingleCoreProcesses) {
  const auto report = run(tiny_dv3(48), fast_options(), 2);
  ASSERT_TRUE(report.success);
  // 2 nodes x 12 procs: peak concurrency must exceed one proc per node.
  EXPECT_GT(metrics::peak_concurrency(report.profile), 2);
}

TEST_F(DdEndToEnd, SlowResultIngestionIsNotTaskTime) {
  // A slow scheduler loop ingests each result long after its process
  // exited. The task views end a successful attempt at process exit.
  DaskTunables slow;
  slow.result_cost = util::seconds(5);
  slow.heartbeat_timeout = util::kHour;  // the busy loop kills no worker
  const auto report = run(tiny_dv3(12), fast_options(), 2, slow);
  ASSERT_TRUE(report.success) << report.failure_reason;
  ASSERT_EQ(report.task_failures, 0u);
  const auto& attempts = report.profile.attempts();

  // Histogram: each success lands in the bucket of exec_end - exec.
  const auto buckets = metrics::exec_time_histogram(report.profile);
  auto counts = [&](bool to_exit) {
    std::vector<std::uint64_t> out(buckets.size(), 0);
    for (const auto& a : attempts) {
      const Tick end = to_exit ? a.exec_end_at : a.retrieved_at;
      const double secs = util::to_seconds(end - a.exec_at);
      for (std::size_t i = 0; i < buckets.size(); ++i) {
        if (secs >= buckets[i].lo_sec && secs < buckets[i].hi_sec) {
          ++out[i];
          break;
        }
      }
    }
    return out;
  };
  ASSERT_NE(counts(true), counts(false)) << "ingestion is not slow enough";
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    EXPECT_EQ(buckets[i].count, counts(true)[i]) << "bucket " << i;
  }

  // Occupancy: the union of each worker's [exec, exec_end) intervals.
  auto busy = [&](std::int32_t w, bool to_exit) {
    std::vector<std::pair<Tick, int>> edges;  // exits sort first at a tie
    for (const auto& a : attempts) {
      if (a.worker != w) continue;
      edges.emplace_back(a.exec_at, +1);
      edges.emplace_back(to_exit ? a.exec_end_at : a.retrieved_at, -1);
    }
    std::sort(edges.begin(), edges.end());
    Tick covered = 0;
    Tick since = 0;
    int depth = 0;
    for (const auto& [t, d] : edges) {
      if (depth == 0) since = t;
      depth += d;
      if (depth == 0) covered += t - since;
    }
    return covered;
  };
  const auto occupancy =
      metrics::worker_occupancy(report.profile, 2, 0, report.makespan);
  ASSERT_LT(busy(0, true) + busy(1, true), busy(0, false) + busy(1, false));
  for (std::int32_t w = 0; w < 2; ++w) {
    EXPECT_DOUBLE_EQ(occupancy[static_cast<std::size_t>(w)],
                     static_cast<double>(busy(w, true)) /
                         static_cast<double>(report.makespan))
        << "worker " << w;
  }
}

TEST_F(DdEndToEnd, MemoryOverflowKillsAndRestartsProcesses) {
  // Process memory slice = 96 GB / 12 = 8 GB; make each task's held
  // result 9 GB so the first completion on any process kills it.
  apps::WorkloadSpec workload = tiny_dv3(6);
  workload.process_output_bytes = 9 * util::kGB;
  workload.reduce_output_bytes = 9 * util::kGB;
  exec::RunOptions options = fast_options();
  options.max_task_retries = 3;
  options.max_sim_time = util::kHour;
  const auto report = run(workload, options, 2);
  EXPECT_GT(report.worker_crashes, 0u);
  EXPECT_FALSE(report.success)
      << "results that exceed the per-process memory slice crash-loop";
}

TEST_F(DdEndToEnd, SchedulerOverloadCollapsesViaHeartbeatTimeouts) {
  // Inflate per-task scheduler cost so offered load >> loop capacity:
  // heartbeats miss their window, workers restart, the run fails — the
  // paper's "crashes and hangs at scale".
  DaskTunables tunables;
  tunables.dispatch_cost = util::kSec;
  tunables.result_cost = util::kSec;
  tunables.heartbeat_timeout = 15 * util::kSec;
  tunables.restart_delay = 5 * util::kSec;
  tunables.max_restarts_per_proc = 5;
  apps::WorkloadSpec workload = tiny_dv3(120);
  exec::RunOptions options = fast_options();
  options.max_sim_time = util::kHour;
  const auto report = run(workload, options, 4, tunables);
  EXPECT_FALSE(report.success);
  EXPECT_GT(report.worker_crashes, 0u);
}

TEST_F(DdEndToEnd, SmallScaleHealthyNoCrashes) {
  const auto report = run(tiny_dv3(24), fast_options(), 2);
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.worker_crashes, 0u);
  EXPECT_EQ(report.task_failures, 0u);
}

TEST_F(DdEndToEnd, PerProcessImportsMakeFirstWaveSlow) {
  // With one task per process, every task pays the full import stack;
  // the run takes at least interpreter+imports regardless of parallelism.
  apps::WorkloadSpec workload = tiny_dv3(24);
  const auto report = run(workload, fast_options(), 2);
  ASSERT_TRUE(report.success);
  const auto& py = fast_options().python;
  const util::Tick import_floor =
      py.interpreter_startup +
      fast_options().imports.import_time_local(storage::nvme_disk());
  EXPECT_GT(report.makespan, import_floor);
}

}  // namespace
}  // namespace hepvine::dd
