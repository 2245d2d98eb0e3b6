#include "run/run_core.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/attribution.h"
#include "obs/span.h"

namespace hepvine::run {

using exec::TaskState;

RunCore::RunCore(const dag::TaskGraph& graph, cluster::Cluster& cluster,
                 const exec::RunOptions& options, bool depth_priority,
                 RunNames names)
    : graph_(graph),
      cluster_(cluster),
      engine_(cluster.engine()),
      options_(options),
      names_(std::move(names)),
      table_(graph, depth_priority),
      rng_(options.seed, names_.rng_stream),
      manager_(cluster.engine()),
      obs_(obs::make_observation(options.observability)),
      pending_crash_(cluster.worker_count(), false),
      pending_release_(cluster.worker_count(), false),
      reset_counts_(graph.size(), 0),
      is_sink_(graph.size(), false),
      sink_done_(graph.size(), 0) {
  report_.scheduler = names_.scheduler;
  report_.tasks_total = graph.size();
  report_.transfers = metrics::TransferMatrix(cluster.endpoint_count());
  report_.cache = metrics::CacheTrace(cluster.worker_count());
}

exec::RunReport RunCore::execute() {
  for (TaskId sink : graph_.sinks()) {
    is_sink_[static_cast<std::size_t>(sink)] = true;
    ++sinks_outstanding_;
  }
  begin_observation();
  begin_fault_injection();
  begin_profile();
  // With the elastic factory on, only min_workers slots start matching;
  // the factory starts parked slots as queue depth demands.
  const std::uint32_t initial_workers =
      options_.ha.factory.enabled()
          ? std::max(options_.ha.factory.min_workers, 1U)
          : 0xffffffffU;
  cluster_.request_workers([this](WorkerId w) { worker_up(w); },
                           [this](WorkerId w) { worker_down(w); },
                           initial_workers);
  begin_factory();
  engine_.schedule_at(options_.max_sim_time, [this] {
    if (!finished_) fail_run("exceeded max simulated time");
  });
  on_start();
  schedule_snapshot();

  while (!finished_ && engine_.step()) {
  }
  if (!finished_) {
    // Event queue drained without completing: nothing left can make
    // progress (e.g. no workers ever arrived).
    fail_run("event queue drained before workflow completion");
  }
  shutdown();

  if (injector_) report_.faults = injector_->stats();
  if (factory_) {
    report_.ha.factory_grow_events = factory_->grow_events();
    report_.ha.factory_shrink_events = factory_->shrink_events();
    report_.ha.workers_started = factory_->workers_started();
    report_.ha.workers_released = factory_->workers_released();
  }
  report_.worker_preemptions = cluster_.batch().preemptions();
  report_.task_attempts = total_attempts_;
  report_.task_failures = static_cast<std::size_t>(std::count_if(
      report_.profile.attempts().begin(), report_.profile.attempts().end(),
      [](const obs::AttemptSpan& s) { return s.failed; }));
  report_.lineage_resets = lineage_resets_;
  if (report_.makespan > 0) {
    report_.manager_busy_fraction_legacy =
        std::min(1.0, static_cast<double>(manager_.total_busy_time()) /
                          static_cast<double>(report_.makespan));
  }
  finish_profile();
  if (obs_->enabled()) {
    obs_->txn().manager_end(engine_.now());
    obs_->finalize(engine_.now());
    report_.observation = obs_;
  }
  return std::move(report_);
}

/// The run is over, but the Cluster outlives it: its network still holds
/// flows whose done callbacks own gate tokens, and destroying the network
/// releases them. Both gates close before either is destroyed (a starter
/// queued on one may hold the other's token), so a released token only
/// gives its slot back and no queued starter ever runs against a dead run.
void RunCore::shutdown() {
  mgr_gate_.close();
  fs_gate_.close();
  if (injector_) injector_->stop();
  if (factory_) factory_->stop();
}

// ---------------------------------------------------------------------------
// Workers.
// ---------------------------------------------------------------------------
void RunCore::worker_up(WorkerId w) {
  if (finished_) return;
  if (txn_on()) obs_->txn().worker_connection(engine_.now(), w);
  report_.profile.worker_up(engine_.now(), w);
  on_worker_up(w);
}

void RunCore::worker_down(WorkerId w) {
  if (finished_) return;
  const auto i = static_cast<std::size_t>(w);
  if (txn_on()) {
    obs_->txn().worker_disconnection(
        engine_.now(), w,
        pending_crash_[i]     ? "FAILURE"
        : pending_release_[i] ? "RELEASED"
                              : "PREEMPTED");
  }
  pending_crash_[i] = false;
  pending_release_[i] = false;
  report_.profile.worker_down(engine_.now(), w);
  on_worker_down(w);
}

bool RunCore::crash_worker(WorkerId w) {
  if (!cluster_.worker(w).alive) return false;
  if (pending_crash_[static_cast<std::size_t>(w)]) return false;
  report_.worker_crashes += 1;
  pending_crash_[static_cast<std::size_t>(w)] = true;
  cluster_.batch().force_preempt(static_cast<std::uint32_t>(w));
  return true;
}

// ---------------------------------------------------------------------------
// Observation and the profiler.
// ---------------------------------------------------------------------------
void RunCore::begin_observation() {
  if (!obs_->enabled()) return;

  if (txn_on()) {
    obs_->txn().manager_start(engine_.now());
    // WAITING lines fire on every waiting->ready transition; replay the
    // tasks that were already ready when the table was built (the
    // listener cannot see those).
    table_.set_ready_listener([this](TaskId t, Tick now) {
      obs_->txn().task_waiting(now, t, graph_.task(t).spec.category,
                               table_.at(t).attempts);
    });
    for (TaskId t = 0; t < static_cast<TaskId>(graph_.size()); ++t) {
      const auto& st = table_.at(t);
      if (st.state == TaskState::kReady) {
        obs_->txn().task_waiting(st.ready_at, t, graph_.task(t).spec.category,
                                 st.attempts);
      }
    }
  }

  if (trace_on()) {
    obs_->trace().set_lane_name(lane(cluster_.manager_endpoint()),
                                names_.manager_lane);
    for (WorkerId w = 0; w < static_cast<WorkerId>(cluster_.worker_count());
         ++w) {
      obs_->trace().set_lane_name(lane(cluster_.worker_endpoint(w)),
                                  names_.worker_lane + " " +
                                      std::to_string(w));
    }
    obs_->trace().set_lane_name(lane(cluster_.fs_endpoint()), "shared-fs");
  }

  if (obs_->perf_enabled()) {
    auto& stats = obs_->stats();
    stats.gauge("tasks.total",
                [this] { return static_cast<double>(graph_.size()); });
    stats.gauge("tasks.done",
                [this] { return static_cast<double>(table_.done_count()); });
    stats.gauge("tasks.ready",
                [this] { return static_cast<double>(table_.ready_count()); });
    stats.gauge("tasks.inflight",
                [this] { return static_cast<double>(attempts_live_); });
    add_gauges(stats);
    stats.gauge(names_.manager_lane + ".backlog",
                [this] { return static_cast<double>(manager_.backlog()); });
    stats.gauge(names_.manager_lane + ".busy_fraction", [this] {
      const Tick now = engine_.now();
      if (now <= 0) return 0.0;
      return std::min(1.0, static_cast<double>(manager_.total_busy_time()) /
                               static_cast<double>(now));
    });
    stats.gauge("engine.events_executed",
                [this] { return static_cast<double>(engine_.executed()); });
    stats.gauge("engine.events_pending",
                [this] { return static_cast<double>(engine_.pending()); });
    cluster_.batch().register_stats(stats);
    cluster_.network().register_stats(stats);
    cluster_.fs().register_stats(stats);
    obs_->perf().bind(stats);
    schedule_perf_sample();
  }
}

void RunCore::schedule_perf_sample() {
  engine_.schedule_after(obs_->config().perf_sample_interval, [this] {
    if (finished_) return;
    const Tick now = engine_.now();
    obs_->perf().sample(now, obs_->stats());
    if (trace_on()) {
      const std::int32_t mgr = lane(cluster_.manager_endpoint());
      obs_->trace().add_counter(mgr, "tasks inflight", now,
                                static_cast<double>(attempts_live_));
      obs_->trace().add_counter(mgr, "tasks done", now,
                                static_cast<double>(table_.done_count()));
    }
    schedule_perf_sample();
  });
}

/// Arm the profiler: static cluster/DAG shape plus the network span
/// listener (worker up/down and attempt spans are recorded at their
/// natural call sites).
void RunCore::begin_profile() {
  std::vector<std::uint32_t> cores;
  cores.reserve(cluster_.worker_count());
  for (WorkerId w = 0; w < static_cast<WorkerId>(cluster_.worker_count());
       ++w) {
    cores.push_back(cluster_.worker(w).cores);
  }
  report_.profile.set_worker_cores(std::move(cores));
  for (const auto& task : graph_.tasks()) {
    report_.profile.set_deps(task.id, task.spec.deps);
  }
  cluster_.network().set_span_listener(
      [this](Tick started, Tick ended, net::FlowId id, std::uint64_t bytes,
             std::uint64_t carried, char outcome) {
        obs::FlowSpan fs;
        fs.flow = id;
        fs.bytes = bytes;
        fs.carried = carried;
        fs.started_at = started;
        fs.ended_at = ended;
        fs.outcome = outcome;
        report_.profile.add_flow(fs);
      });
}

/// Seal the span log once the makespan is known, derive the attribution
/// ledger (which supplies the reported busy fraction), and derive the
/// Chrome trace's task lanes from it when tracing.
void RunCore::finish_profile() {
  report_.profile.set_manager(manager_.total_busy_time(),
                              manager_.operations());
  report_.profile.set_run(report_.makespan, report_.scheduler,
                          report_.success);
  const obs::AttributionLedger ledger = obs::attribute(report_.profile);
  report_.manager_busy_fraction = ledger.manager_busy_fraction;
  assert(ledger.identity_ok());
  if (trace_on()) obs::emit_task_lanes(report_.profile, obs_->trace());
}

void RunCore::record_attempt_span(TaskId t, WorkerId w,
                                  const SpanMarks& marks, Tick exec_end,
                                  bool failed) {
  obs::AttemptSpan s;
  s.task = t;
  s.attempt = table_.at(t).attempts;
  s.worker = w == cluster::kNoWorker ? -1 : static_cast<std::int32_t>(w);
  s.ready_at = marks.ready;
  s.dispatched_at = marks.dispatched;
  s.staged_at = marks.staged;
  s.exec_at = marks.exec;
  s.compute_at = marks.compute;
  s.exec_end_at = exec_end;
  s.retrieved_at = engine_.now();
  s.failed = failed;
  s.category = graph_.task(t).spec.category;
  report_.profile.add_attempt(std::move(s));
}

// ---------------------------------------------------------------------------
// Failures, lineage and the end of the run.
// ---------------------------------------------------------------------------
bool RunCore::record_failed_attempt(TaskId t) {
  const auto& st = table_.at(t);
  if (st.state != TaskState::kDispatched && st.state != TaskState::kRunning) {
    return false;
  }
  if (txn_on()) obs_->txn().task_retrieved(engine_.now(), t, "FAILURE");
  return true;
}

void RunCore::retry_or_fail(TaskId t, bool requeue) {
  if (table_.at(t).attempts >= options_.max_task_retries) {
    fail_run("task " + std::to_string(t) + " (" +
             graph_.task(t).spec.category + ") exceeded " +
             std::to_string(options_.max_task_retries) + " attempts");
    return;
  }
  if (requeue) table_.requeue(t, engine_.now());
}

void RunCore::lineage_reset(TaskId producer) {
  const std::size_t reset =
      table_.reset_lost(producer, engine_.now(), [this](TaskId p) {
        return output_available(graph_.task(p).output_file);
      });
  lineage_resets_ += reset;
  if (reset == 0) return;
  // Poisoned-task detector: a task whose output keeps vanishing no matter
  // how often it re-runs must not loop forever; fail with the exact task
  // and count so the operator can see what to pin down.
  auto& count = reset_counts_[static_cast<std::size_t>(producer)];
  count += 1;
  const std::uint32_t limit = options_.fault_retry.poisoned_reset_threshold;
  if (limit > 0 && count > limit) {
    fail_run("task " + std::to_string(producer) + " (" +
             graph_.task(producer).spec.category +
             ") poisoned: output lost " + std::to_string(count) +
             " times, exceeding the reset threshold of " +
             std::to_string(limit));
  }
}

void RunCore::finish_sink(TaskId t) {
  auto& done = sink_done_[static_cast<std::size_t>(t)];
  if (done != 0) return;
  done = 1;
  assert(sinks_outstanding_ > 0);
  --sinks_outstanding_;
  check_completion();
}

void RunCore::check_completion() {
  if (finished_) return;
  if (table_.all_done() && sinks_outstanding_ == 0) {
    finished_ = true;
    report_.success = true;
    report_.makespan = engine_.now();
    for (TaskId sink : graph_.sinks()) {
      report_.results[sink] = table_.at(sink).result;
    }
    cluster_.batch().drain();
  }
}

void RunCore::fail_run(std::string reason) {
  if (finished_) return;
  finished_ = true;
  report_.success = false;
  report_.failure_reason = std::move(reason);
  report_.makespan = engine_.now();
  cluster_.batch().drain();
}

// ---------------------------------------------------------------------------
// Fault injection. Only flows with a retry path register as kill targets;
// with an empty schedule no injector exists and every hook is a null check.
// ---------------------------------------------------------------------------
void RunCore::begin_fault_injection() {
  if (options_.faults.empty()) return;
  injector_ = std::make_unique<fault::FaultInjector>(
      cluster_, options_.faults, options_.fault_retry, obs_.get());
  fault::FaultInjector::Hooks hooks;
  hooks.crash_worker = [this](std::int32_t w) {
    return !finished_ && crash_worker(w);
  };
  hooks.lose_cached_file = [this](std::int32_t w, std::int64_t f) {
    return lose_file(w, static_cast<FileId>(f));
  };
  hooks.crash_manager = [this] {
    if (finished_) return false;
    on_manager_crash();
    return true;
  };
  injector_->arm(std::move(hooks));
}

void RunCore::forget_flow(net::FlowId flow) {
  if (injector_ && flow != net::kInvalidFlow) {
    injector_->forget_transfer(flow);
  }
}

// ---------------------------------------------------------------------------
// Manager HA: crash handling, checkpointing, elastic factory.
// ---------------------------------------------------------------------------

/// An injected MANAGER_CRASH landed. The crash tick and the snapshot series
/// already sit in report_.ha; ending the run here leaves the txn log with
/// its tail intact, which is exactly what ha::recover() replays.
void RunCore::on_manager_crash() {
  report_.ha.manager_crashed = true;
  report_.ha.crash_tick = engine_.now();
  fail_run("manager crashed (injected manager_crash fault)");
}

void RunCore::schedule_snapshot() {
  if (!options_.ha.snapshots_enabled()) return;
  engine_.schedule_after(options_.ha.snapshot_interval, [this] {
    if (finished_) return;
    take_snapshot();
    schedule_snapshot();
  });
}

/// Serialize the manager's logical state (ha/snapshot.h documents what is
/// deliberately excluded). Field order is fixed by construction so two
/// runs that agree on state produce byte-identical snapshots; the digest
/// lands on a SNAPSHOT txn anchor line and the serialization cost is
/// charged to the manager's serial control loop.
void RunCore::take_snapshot() {
  ha::SnapshotBuilder b;

  b.section("run");
  b.field("tasks_total", graph_.size());
  b.field("tasks_done", table_.done_count());
  b.field("task_attempts", total_attempts_);
  b.field("lineage_resets", lineage_resets_);
  b.field("sinks_outstanding", sinks_outstanding_);
  b.field("worker_crashes", report_.worker_crashes);
  snapshot_run_fields(b);

  b.section("tasks");
  for (TaskId t = 0; t < static_cast<TaskId>(graph_.size()); ++t) {
    const auto& st = table_.at(t);
    // One compact line per task: state/attempts/worker.
    b.field_s(std::string("t").append(std::to_string(t)),
              std::to_string(static_cast<int>(st.state)) + "/" +
                  std::to_string(st.attempts) + "/" +
                  std::to_string(st.worker));
  }
  // Sparse task-keyed state: per-producer lineage-reset counts (the
  // poisoned-task detector's memory) and sink-gather completion bits.
  for (TaskId t = 0; t < static_cast<TaskId>(graph_.size()); ++t) {
    const std::uint32_t n = reset_counts_[static_cast<std::size_t>(t)];
    if (n != 0) b.field(std::string("r").append(std::to_string(t)), n);
  }
  for (TaskId t = 0; t < static_cast<TaskId>(graph_.size()); ++t) {
    if (is_sink_[static_cast<std::size_t>(t)] &&
        sink_done_[static_cast<std::size_t>(t)] != 0) {
      b.field(std::string("s").append(std::to_string(t)), 1);
    }
  }

  snapshot_sections(b);

  // Unconditional (zeros without an injector): a run whose only fault was
  // the manager crash itself must snapshot byte-identically to its
  // crash-stripped recovery rerun, which has no injector at all.
  {
    const fault::InjectionStats zero;
    const fault::InjectionStats& fs = injector_ ? injector_->stats() : zero;
    b.section("injector");
    b.field("faults_injected", fs.faults_injected);
    b.field("worker_crashes", fs.worker_crashes);
    b.field("cache_losses", fs.cache_losses);
    b.field("cache_loss_noops", fs.cache_loss_noops);
    b.field("transfers_killed", fs.transfers_killed);
    b.field("fs_degradations", fs.fs_degradations);
    b.field("stragglers", fs.stragglers);
    b.field("manager_crashes", fs.manager_crashes);
    b.field("transfer_retries", fs.transfer_retries);
    b.field("transfer_giveups", fs.transfer_giveups);
    b.field("backoff_wait", static_cast<std::uint64_t>(fs.backoff_wait));
    b.field("fs_degraded_time",
            static_cast<std::uint64_t>(fs.fs_degraded_time));
  }

  b.section("rng");
  std::string rng_field = names_.rng_stream;
  std::replace(rng_field.begin(), rng_field.end(), '-', '_');
  b.field_rng(rng_field, rng_.state());

  ha::SnapshotRecord rec = b.finish(engine_.now(), snapshot_seq_++);
  manager_.acquire(options_.ha.snapshot_cost(rec.bytes));
  if (txn_on()) {
    obs_->txn().snapshot_write(engine_.now(), rec.seq, rec.bytes, rec.digest);
  }
  report_.ha.snapshots.push_back(std::move(rec));
}

void RunCore::begin_factory() {
  if (!options_.ha.factory.enabled()) return;
  ha::Factory::Hooks hooks;
  hooks.queue_depth = [this]() -> std::size_t {
    return table_.ready_count() + attempts_live_;
  };
  hooks.connected_workers = [this] { return cluster_.alive_workers(); };
  hooks.grow = [this](std::uint32_t n) {
    return cluster_.batch().start_slots(n);
  };
  hooks.shrink = [this](std::uint32_t n) { return release_idle(n); };
  factory_ = std::make_unique<ha::Factory>(engine_, options_.ha.factory,
                                           std::move(hooks));
  factory_->start();
}

}  // namespace hepvine::run
