// The benchmark's workloads: each names the graph, the facility, the run
// options and the scheduler of one simulated run, all derived from a seed.
//
// A workload may be an ensemble: one pass runs `members` simulated runs,
// each with its own member seed. Everything a workload builds comes from the
// public API of the simulator (apps::build_workload, dag::TaskGraph,
// cluster::ClusterSpec, the scheduler backends).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.h"
#include "dag/task_graph.h"
#include "exec/scheduler.h"

namespace perfbench {

enum class Shape : std::uint8_t {
  kDv3Huge,    // Fig 15's skim + 16 variations + tree reduction
  kStorm,      // bench_manager_saturation's fan-out, 64 KB data
  kTriPhoton,  // RS-TriPhoton, 2.6 GB partials
  kDv3Large,   // DV3-Large map + tree reduction
};

struct Workload {
  std::string name;
  Shape shape = Shape::kDv3Huge;
  std::uint32_t workers = 0;
  /// Simulated runs in one pass (a seed ensemble when > 1).
  std::uint32_t members = 1;
  /// True for the Dask.Distributed backend (standard tasks); its manager
  /// counters report under `dd.*` instead of `vine.*`. Otherwise TaskVine
  /// with FunctionCalls.
  bool dask = false;
  /// TaskVine's node-local object store, with task-time jitter off.
  bool object_store = false;
  /// Batch preemption at the paper's ~1%/hour, stochastic worker crashes,
  /// one shared-FS brownout and an HA snapshot every 30 simulated seconds.
  /// Members share one graph and differ in their fault seed. Without
  /// chaos there is no preemption: one random preemption re-runs lineage
  /// and moves the makespan more than the layer under test does.
  bool chaos = false;
  /// Layer-separation gate: the traced run fails when the solver visits
  /// more flows per completed task than this (0 = no gate).
  double max_flow_visits_per_task = 0.0;

  /// Seed of member `index` for benchmark seed `seed`.
  [[nodiscard]] std::uint64_t member_seed(std::uint64_t seed,
                                          std::uint32_t index) const;
  /// Seed the graph of member `index` is built from.
  [[nodiscard]] std::uint64_t graph_seed(std::uint64_t seed,
                                         std::uint32_t index) const;

  [[nodiscard]] hepvine::dag::TaskGraph build_graph(
      std::uint64_t graph_seed) const;
  [[nodiscard]] hepvine::cluster::ClusterSpec cluster_spec() const;
  [[nodiscard]] hepvine::exec::RunOptions options(std::uint64_t member_seed,
                                                  std::uint32_t member) const;
  [[nodiscard]] std::unique_ptr<hepvine::exec::SchedulerBackend> scheduler()
      const;
};

/// The workload named `name`, or null.
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// Names of every workload, in definition order.
[[nodiscard]] std::vector<std::string> workload_names();

}  // namespace perfbench
