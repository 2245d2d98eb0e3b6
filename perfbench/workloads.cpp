#include "workloads.h"

#include <algorithm>
#include <array>

#include "apps/workloads.h"
#include "cluster/calibration.h"
#include "dag/value.h"
#include "dd/dask_distributed.h"
#include "fault/fault_schedule.h"
#include "storage/shared_fs.h"
#include "util/hash.h"
#include "util/units.h"
#include "vine/vine_scheduler.h"

namespace perfbench {

namespace {

namespace hv = hepvine;
namespace util = hepvine::util;

// Sizes: each is chosen so one pass takes a few host seconds on a 4-core
// x86 box (Release build), leaving room for several passes per run.
constexpr std::uint32_t kDv3HugeProcessTasks = 3'000;  // x16 variations
constexpr std::uint64_t kDv3HugeEvents = 20;
constexpr std::uint32_t kStormWidth = 200'000;
constexpr std::uint64_t kStormBytes = 64 * util::kKB;
constexpr std::uint64_t kDv3LargeEvents = 100;

/// The saturation graph of bench_manager_saturation, with small data:
/// `width` short FunctionCalls over shared chunks (16 consumers per chunk)
/// folded by an arity-64 tree. Leaf values derive from `seed`, so the sink
/// result differs per seed and checks the whole fold.
hv::dag::TaskGraph storm_graph(std::uint32_t width, std::uint64_t seed) {
  using hv::dag::ScalarValue;
  using hv::dag::TaskId;
  using hv::dag::TaskSpec;
  using hv::dag::ValuePtr;
  constexpr std::uint32_t kConsumersPerChunk = 16;
  constexpr std::size_t kReduceArity = 64;

  hv::dag::TaskGraph graph;
  const std::uint32_t chunks =
      (width + kConsumersPerChunk - 1) / kConsumersPerChunk;
  std::vector<hv::data::FileId> inputs;
  inputs.reserve(chunks);
  for (std::uint32_t c = 0; c < chunks; ++c) {
    inputs.push_back(graph.add_input_file("chunk" + std::to_string(c),
                                          kStormBytes, seed + c));
  }

  std::vector<TaskId> layer;
  layer.reserve(width);
  for (std::uint32_t i = 0; i < width; ++i) {
    TaskSpec spec;
    spec.category = "process";
    spec.function = "process";
    spec.input_files = {inputs[i / kConsumersPerChunk]};
    spec.cpu_seconds = 1.0;
    spec.output_bytes = kStormBytes;
    spec.memory_bytes = 1 * util::kGB;
    const double leaf =
        static_cast<double>(util::hash_combine(seed, i) % 1024) + 1.0;
    spec.fn = [leaf](const std::vector<ValuePtr>&) -> ValuePtr {
      return std::make_shared<ScalarValue>(leaf);
    };
    layer.push_back(graph.add_task(std::move(spec)));
  }

  while (layer.size() > 1) {
    std::vector<TaskId> next;
    next.reserve(layer.size() / kReduceArity + 1);
    for (std::size_t i = 0; i < layer.size(); i += kReduceArity) {
      TaskSpec spec;
      spec.category = "accumulate";
      spec.function = "accumulate";
      const std::size_t hi = std::min(i + kReduceArity, layer.size());
      spec.deps.assign(layer.begin() + static_cast<std::ptrdiff_t>(i),
                       layer.begin() + static_cast<std::ptrdiff_t>(hi));
      spec.cpu_seconds = 0.4;
      spec.output_bytes = kStormBytes;
      spec.memory_bytes = 1 * util::kGB;
      spec.fn = [](const std::vector<ValuePtr>& in) -> ValuePtr {
        double sum = 0;
        for (const auto& v : in) {
          sum += static_cast<const ScalarValue&>(*v).get();
        }
        return std::make_shared<ScalarValue>(sum);
      };
      next.push_back(graph.add_task(std::move(spec)));
    }
    layer = std::move(next);
  }
  return graph;
}

const std::array<Workload, 4>& table() {
  static const std::array<Workload, 4> workloads = [] {
    std::array<Workload, 4> w;
    w[0].name = "dv3-huge";
    w[0].shape = Shape::kDv3Huge;
    w[0].workers = 600;

    w[1].name = "dispatch-storm";
    w[1].shape = Shape::kStorm;
    w[1].workers = 600;
    w[1].max_flow_visits_per_task = 10.0;

    w[2].name = "triphoton-store";
    w[2].shape = Shape::kTriPhoton;
    w[2].workers = 200;
    w[2].members = 3;
    w[2].object_store = true;

    w[3].name = "dask-chaos";
    w[3].shape = Shape::kDv3Large;
    w[3].workers = 100;
    w[3].members = 3;
    w[3].dask = true;
    w[3].chaos = true;
    return w;
  }();
  return workloads;
}

}  // namespace

std::uint64_t Workload::member_seed(std::uint64_t seed,
                                    std::uint32_t index) const {
  // Small positive seeds keep txn logs and reports readable.
  return util::hash_combine(seed, index + 1) % 1'000'000'007ULL;
}

std::uint64_t Workload::graph_seed(std::uint64_t seed,
                                   std::uint32_t index) const {
  return member_seed(seed, chaos ? 0 : index);
}

hv::dag::TaskGraph Workload::build_graph(std::uint64_t seed) const {
  switch (shape) {
    case Shape::kStorm:
      return storm_graph(kStormWidth, seed);
    case Shape::kTriPhoton:
      return hv::apps::build_workload(hv::apps::rs_triphoton(), seed);
    case Shape::kDv3Large:
      return hv::apps::build_workload(
          hv::apps::with_events(hv::apps::dv3_large(), kDv3LargeEvents), seed);
    case Shape::kDv3Huge:
      break;
  }
  hv::apps::WorkloadSpec spec = hv::apps::dv3_huge();
  spec.process_tasks = kDv3HugeProcessTasks;
  spec.events_per_chunk = kDv3HugeEvents;
  return hv::apps::build_workload(spec, seed);
}

hv::cluster::ClusterSpec Workload::cluster_spec() const {
  // The facility is part of the workload, like the bench/ programs' fixed
  // cluster seed. Drawing node speeds per seed moves dv3-huge's solver
  // work by a third between seeds (7.2M to 12.9M flow visits).
  hv::cluster::ClusterSpec spec = hv::cluster::paper_cluster(
      workers, hv::cluster::paper_worker_node(), hv::storage::vast_spec(),
      /*seed=*/1);
  if (!chaos) spec.batch.preemption_rate_per_hour = 0.0;
  return spec;
}

hv::exec::RunOptions Workload::options(std::uint64_t seed,
                                       std::uint32_t member) const {
  hv::exec::RunOptions options;
  options.seed = seed;
  options.mode = dask ? hv::exec::ExecMode::kStandardTasks
                      : hv::exec::ExecMode::kFunctionCalls;
  options.max_sim_time = 6 * util::kHour;
  // The store's effect is a few percent of makespan; jitter would mask it.
  if (object_store) options.exec_time_jitter = 0.0;
  if (chaos) {
    // No stochastic transfer kills: on the dd path an injected kill
    // (Network::fail_flow) drops a FlowGate slot token inside
    // Network::destroy_flow, the gate starts the next fetch, and the new
    // flow reallocates the flow table under the slot being reset, a
    // use-after-free that corrupts the heap. See README.md.
    options.faults.stochastic.worker_crash_rate_per_hour = 2.0;
    options.faults.fs_brownout(10 * util::kMinute, 10 * util::kMinute, 0.25);
    // The fault schedules are part of the workload: member i always draws
    // from fault seed i, so --seed varies the dataset and the facility but
    // not how often the chaos strikes.
    options.faults.seed = 1 + member;
    options.ha.snapshot_interval = 30 * util::kSec;
  }
  return options;
}

std::unique_ptr<hv::exec::SchedulerBackend> Workload::scheduler() const {
  if (dask) return std::make_unique<hv::dd::DaskDistScheduler>();
  hv::vine::VineTunables tunables;
  tunables.object_store = object_store;
  return std::make_unique<hv::vine::VineScheduler>(hv::vine::taskvine_policy(),
                                                   tunables);
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : table()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Workload& w : table()) names.push_back(w.name);
  return names;
}

}  // namespace perfbench
