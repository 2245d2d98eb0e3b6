// The run lifecycle every scheduler shares (DESIGN.md "Run lifecycle").
//
// TaskVine and Work Queue (vine::VineRun, one engine under two DataPolicy
// settings) and Dask.Distributed (dd::DaskRun) differ in placement, data
// plane and per-worker state only. Everything else lives here once: the
// setup order and the step loop, observation and the profiler, the
// fault-injection and factory wiring, lineage resets with the
// poisoned-task detector, the end of the run, the snapshot cadence with
// its common sections, and the shutdown that closes the transfer gates.
//
// A scheduler derives from RunCore and fills in the hooks. The core calls
// them at lifecycle points only — start-up, worker arrival and departure,
// injected faults, lineage resets, snapshots, factory shrinks — never on a
// per-event, per-flow or per-dispatch path.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "dag/task_graph.h"
#include "exec/scheduler.h"
#include "exec/serial_resource.h"
#include "exec/task_state.h"
#include "fault/fault_injector.h"
#include "ha/factory.h"
#include "ha/snapshot.h"
#include "net/flow_gate.h"
#include "obs/observer.h"
#include "sim/rng.h"

namespace hepvine::run {

using cluster::WorkerId;
using dag::TaskId;
using data::FileId;
using util::Tick;

/// What a scheduler calls itself in reports, traces and snapshots.
struct RunNames {
  std::string scheduler;  // RunReport::scheduler
  /// RNG stream name; the snapshot's rng field is the same name with '_'
  /// for '-'.
  std::string rng_stream;
  /// Trace lane of the serial control loop, also the prefix of its
  /// backlog and busy-fraction gauges.
  std::string manager_lane;
  std::string worker_lane;  // trace lane prefix, followed by the worker id
};

/// Lifecycle phase boundaries of one attempt for the profiler (obs/span.h):
/// when it became dispatchable, left the manager, finished input staging,
/// started its worker process, and began user compute. -1 until reached.
struct SpanMarks {
  Tick ready = -1;
  Tick dispatched = -1;
  Tick staged = -1;
  Tick exec = -1;
  Tick compute = -1;
};

// vine-snapshot: state
class RunCore {
 public:
  RunCore(const dag::TaskGraph& graph, cluster::Cluster& cluster,
          const exec::RunOptions& options, bool depth_priority,
          RunNames names);
  virtual ~RunCore() = default;
  RunCore(const RunCore&) = delete;
  RunCore& operator=(const RunCore&) = delete;

  /// Run the workflow to completion or failure, then shut down.
  exec::RunReport execute();

 protected:
  // --- hooks ---------------------------------------------------------------
  /// Start-up extras, after workers are requested and the factory armed,
  /// before the first snapshot is scheduled.
  virtual void on_start() = 0;
  /// A worker connected or disconnected; the core has already written the
  /// txn line and the profiler event.
  virtual void on_worker_up(WorkerId w) = 0;
  virtual void on_worker_down(WorkerId w) = 0;
  /// Does any copy of `f` exist? Lineage resets re-run what this denies.
  [[nodiscard]] virtual bool output_available(FileId f) const = 0;
  /// Injected cache loss: drop `f` from `w` (kNoWorker: every holder);
  /// returns the copies lost.
  virtual std::size_t lose_file(WorkerId w, FileId f) = 0;
  /// Scheduler gauges, registered after the common task gauges.
  virtual void add_gauges(obs::StatsRegistry& stats) = 0;
  /// Scheduler fields closing the snapshot's `run` section, then the
  /// scheduler's own sections between `tasks` and `injector`.
  virtual void snapshot_run_fields(ha::SnapshotBuilder& b) = 0;
  virtual void snapshot_sections(ha::SnapshotBuilder& b) = 0;
  /// Factory shrink: release up to `n` idle workers, returning how many.
  virtual std::uint32_t release_idle(std::uint32_t n) = 0;

  // --- shared helpers ------------------------------------------------------
  /// An attempt's identity. Callbacks that land after an asynchronous delay
  /// carry one and act only while it still names the live attempt, so
  /// preemption and crash handling just invalidate it and let stale events
  /// fall on the floor.
  struct Token {
    TaskId task = dag::kInvalidTask;
    std::uint32_t attempt = 0;
  };
  [[nodiscard]] bool token_valid(const Token& token) const {
    const auto& st = table_.at(token.task);
    return st.attempts == token.attempt &&
           (st.state == exec::TaskState::kDispatched ||
            st.state == exec::TaskState::kRunning);
  }

  [[nodiscard]] bool txn_on() const { return obs_->txn_enabled(); }
  [[nodiscard]] bool trace_on() const { return obs_->trace_enabled(); }
  [[nodiscard]] static std::int32_t lane(std::size_t endpoint) {
    return static_cast<std::int32_t>(endpoint);
  }
  void txn_xfer_start(std::size_t src, std::size_t dst, FileId f,
                      std::uint64_t bytes) {
    if (txn_on()) obs_->txn().transfer_start(engine_.now(), src, dst, f, bytes);
  }
  void txn_xfer_done(std::size_t src, std::size_t dst, FileId f,
                     std::uint64_t bytes) {
    if (txn_on()) obs_->txn().transfer_done(engine_.now(), src, dst, f, bytes);
  }
  void txn_xfer_failed(std::size_t src, std::size_t dst, FileId f,
                       std::uint64_t bytes) {
    if (txn_on()) {
      obs_->txn().transfer_failed(engine_.now(), src, dst, f, bytes);
    }
  }

  /// A worker destroyed itself (scratch overflow, a killed process tree) or
  /// was crashed by a fault; routed through the batch system so replacement
  /// matching applies. A crash already pending is the same death. Returns
  /// false when nothing was crashed (`w` dead or already crashing).
  bool crash_worker(WorkerId w);
  void forget_flow(net::FlowId flow);

  /// Record the failed current attempt of `t` (FAILURE txn line). Returns
  /// false when `t` has no live attempt.
  bool record_failed_attempt(TaskId t);
  /// Close a failed attempt: fail the run past the retry limit, else
  /// requeue `t` when asked.
  void retry_or_fail(TaskId t, bool requeue);
  /// Capture one finished attempt into the span log.
  void record_attempt_span(TaskId t, WorkerId w, const SpanMarks& marks,
                           Tick exec_end, bool failed);

  /// Re-run `producer` and whatever of its lineage lost its output; fails
  /// the run once one producer has been reset past the poison threshold.
  void lineage_reset(TaskId producer);
  /// A sink's result reached the manager (again, possibly: then a no-op).
  void finish_sink(TaskId t);
  void check_completion();
  void fail_run(std::string reason);

  // --- shared state --------------------------------------------------------
  const dag::TaskGraph& graph_;
  cluster::Cluster& cluster_;
  sim::Engine& engine_;
  const exec::RunOptions options_;
  const RunNames names_;

  exec::TaskStateTable table_;
  sim::Rng rng_;
  /// The serial control loop: TaskVine's manager, Dask's scheduler.
  exec::SerialResource manager_;
  // Transfer-admission gates: the manager serves data over a bounded
  // socket set; the shared filesystem serves a bounded number of streams.
  // Their occupancy is implied by the in-flight flow sections of the
  // snapshot; the waiter queues hold closures and replay rebuilds them.
  // vine-snapshot: derived(occupancy implied by the snapshot flow sections)
  net::FlowGate mgr_gate_{64};
  // vine-snapshot: derived(occupancy implied by the snapshot flow sections)
  net::FlowGate fs_gate_{256};

  std::shared_ptr<obs::RunObservation> obs_;
  exec::RunReport report_;
  // Fault-injection state; injector_ stays null (and every hook a no-op)
  // when RunOptions::faults is empty.
  std::unique_ptr<fault::FaultInjector> injector_;
  // vine-snapshot: derived(sizing re-derived from queue depth each poll)
  std::unique_ptr<ha::Factory> factory_;
  std::uint64_t snapshot_seq_ = 0;

  // Workers crashed by the run or a fault (not batch preemption), and
  // workers the factory is releasing: they label the disconnect line.
  // vine-snapshot: derived(intent flag; the disconnect it labels is an event replay reproduces)
  std::vector<bool> pending_crash_;
  // vine-snapshot: derived(intent flag; the disconnect it labels is an event replay reproduces)
  std::vector<bool> pending_release_;
  std::vector<std::uint32_t> reset_counts_;  // lineage resets per producer
  // vine-snapshot: derived(graph property, rebuilt at startup)
  std::vector<bool> is_sink_;
  /// Sink results safe at the manager, dense by TaskId.
  std::vector<char> sink_done_;
  std::size_t sinks_outstanding_ = 0;
  // vine-snapshot: derived(count of the scheduler's live attempt slots)
  std::size_t attempts_live_ = 0;
  std::size_t total_attempts_ = 0;
  std::size_t lineage_resets_ = 0;
  // vine-snapshot: derived(teardown latch; no snapshots are taken after finish)
  bool finished_ = false;

 private:
  void worker_up(WorkerId w);
  void worker_down(WorkerId w);
  void begin_observation();
  void schedule_perf_sample();
  void begin_fault_injection();
  void begin_profile();
  void finish_profile();
  void begin_factory();
  void on_manager_crash();
  void schedule_snapshot();
  void take_snapshot();
  void shutdown();
};

}  // namespace hepvine::run
