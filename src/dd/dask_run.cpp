// Implementation of the Dask.Distributed baseline.

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>
#include <vector>

#include "dd/dask_distributed.h"
#include "exec/time_model.h"
#include "fault/backoff_ledger.h"
#include "run/run_core.h"

namespace hepvine::dd {

namespace {

using cluster::WorkerId;
using data::FileId;
using dag::TaskId;
using exec::TaskState;
using util::Tick;

constexpr std::int32_t kNoProc = -1;

// vine-snapshot: state
class DaskRun final : public run::RunCore {
 public:
  DaskRun(const dag::TaskGraph& graph, cluster::Cluster& cluster,
          const exec::RunOptions& options, const DaskTunables& tun)
      : RunCore(graph, cluster, options, /*depth_priority=*/true,
                {"dask.distributed", "dask-run", "scheduler", "node"}),
        tun_(tun) {
    build_tables();
  }

 private:
  // --------------------------------------------------------------------
  // Lifecycle hooks (run/run_core.h; DESIGN.md "Run lifecycle").
  // --------------------------------------------------------------------
  void on_start() override {
    // Graph submission: the scheduler loop ingests every task definition
    // before it can dispatch or service heartbeats.
    manager_.acquire(static_cast<Tick>(graph_.size()) *
                     tun_.graph_intake_cost_per_task);
    schedule_heartbeats();
  }

  void add_gauges(obs::StatsRegistry& stats) override {
    stats.gauge("procs.alive", [this] {
      std::size_t n = 0;
      for (const Proc& p : procs_) n += p.alive ? 1 : 0;
      return static_cast<double>(n);
    });
    stats.gauge("procs.busy", [this] {
      std::size_t n = 0;
      for (const Proc& p : procs_) n += (p.alive && p.busy) ? 1 : 0;
      return static_cast<double>(n);
    });
  }

  // --------------------------------------------------------------------
  // One single-core worker process. `proc = node * cores_per_node + k`.
  // --------------------------------------------------------------------
  struct Proc {
    bool alive = false;
    bool imports_loaded = false;
    bool busy = false;
    std::uint32_t incarnation = 0;
    std::uint32_t restarts = 0;
    std::uint64_t mem_used = 0;
    std::vector<FileId> holding;  // result keys resident in memory
    Tick last_heartbeat_served = 0;
    /// Residue clock for this process's serialization charges: repeated
    /// sub-tick argument pickles sum exactly instead of each rounding up.
    util::TickAccumulator ser;
  };

  struct FileInfo {
    std::uint64_t size = 0;
    data::FileKind kind = data::FileKind::kIntermediate;
    TaskId producer = dag::kInvalidTask;
    std::uint32_t consumers_left = 0;  // for memory release
    std::vector<std::int32_t> holders;  // procs holding the key
    bool at_client = false;
  };

  void build_tables() {
    const auto& catalog = graph_.catalog();
    files_.resize(catalog.size());
    for (const auto& f : catalog) {
      auto& info = files_[static_cast<std::size_t>(f.id)];
      info.size = f.size;
      info.kind = f.kind;
    }
    for (const auto& task : graph_.tasks()) {
      files_[static_cast<std::size_t>(task.output_file)].producer = task.id;
      files_[static_cast<std::size_t>(task.output_file)].consumers_left =
          static_cast<std::uint32_t>(task.dependents.size());
    }
    cores_per_node_ = cluster_.spec().worker.cores;
    procs_.resize(static_cast<std::size_t>(cluster_.worker_count()) *
                  cores_per_node_);
    attempts_.resize(graph_.size());
    running_on_.assign(procs_.size(), dag::kInvalidTask);
    mem_per_proc_ = cluster_.spec().worker.memory / cores_per_node_;
  }

  [[nodiscard]] WorkerId node_of(std::int32_t proc) const {
    return static_cast<WorkerId>(proc / static_cast<std::int32_t>(
                                            cores_per_node_));
  }
  [[nodiscard]] TaskId& running_on(std::int32_t pid) {
    return running_on_[static_cast<std::size_t>(pid)];
  }
  [[nodiscard]] Proc& proc(std::int32_t p) {
    return procs_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] FileInfo& file(FileId f) {
    return files_[static_cast<std::size_t>(f)];
  }
  [[nodiscard]] const FileInfo& file(FileId f) const {
    return files_[static_cast<std::size_t>(f)];
  }

  struct Attempt {
    std::int32_t proc = kNoProc;
    std::uint32_t staging_outstanding = 0;
    std::vector<dag::ValuePtr> inputs;
    run::SpanMarks span;
    Tick exec_end = -1;  // process exit, stamped in complete_exec
  };
  /// Live attempts, dense by TaskId (presence = non-null slot). The
  /// unique_ptr indirection keeps Attempt addresses stable while other
  /// slots churn, so references held across staging callbacks stay valid;
  /// attempts_live_ tracks the population for gauges and the factory
  /// queue-depth hook.
  std::vector<std::unique_ptr<Attempt>> attempts_;

  [[nodiscard]] Attempt& attempt_at(TaskId t) {
    auto& slot = attempts_[static_cast<std::size_t>(t)];
    assert(slot);
    return *slot;
  }
  [[nodiscard]] Attempt* attempt_find(TaskId t) {
    return attempts_[static_cast<std::size_t>(t)].get();
  }
  void attempt_erase(TaskId t) {
    attempts_[static_cast<std::size_t>(t)].reset();
    --attempts_live_;
  }

  // --------------------------------------------------------------------
  // Node / process lifecycle.
  // --------------------------------------------------------------------
  void on_worker_up(WorkerId w) override {
    for (std::uint32_t k = 0; k < cores_per_node_; ++k) {
      auto& p = proc(proc_id(w, k));
      p = Proc{};
      p.alive = true;
      p.last_heartbeat_served = engine_.now();
    }
    pump();
  }

  void on_worker_down(WorkerId w) override {
    for (std::uint32_t k = 0; k < cores_per_node_; ++k) {
      kill_proc(proc_id(w, k), /*restart=*/false);
      if (finished_) return;
    }
    report_.cache.mark_failure(static_cast<std::size_t>(w), engine_.now());
    pump();
  }

  [[nodiscard]] std::int32_t proc_id(WorkerId node, std::uint32_t k) const {
    return static_cast<std::int32_t>(node) *
               static_cast<std::int32_t>(cores_per_node_) +
           static_cast<std::int32_t>(k);
  }

  /// Kill one worker process, dropping its in-memory results and failing
  /// its running task. If `restart`, schedule a fresh incarnation.
  void kill_proc(std::int32_t pid, bool restart) {
    Proc& p = proc(pid);
    if (!p.alive) return;
    p.alive = false;
    p.incarnation += 1;
    p.restarts += 1;

    // Drop held results; lost keys are rediscovered lazily.
    for (FileId f : p.holding) {
      auto& hs = file(f).holders;
      hs.erase(std::remove(hs.begin(), hs.end(), pid), hs.end());
    }
    p.holding.clear();
    p.mem_used = 0;
    p.imports_loaded = false;

    // Fail a running task, if any.
    if (running_on(pid) != dag::kInvalidTask) {
      const TaskId t = running_on(pid);
      running_on(pid) = dag::kInvalidTask;
      fail_attempt(t);
      if (finished_) return;
    }
    p.busy = false;

    if (p.restarts > tun_.max_restarts_per_proc) {
      fail_run("worker process crash loop (proc " + std::to_string(pid) +
               " restarted " + std::to_string(p.restarts) + " times)");
      return;
    }
    if (restart) {
      report_.worker_crashes += 1;
      const std::uint32_t incarnation = p.incarnation;
      const WorkerId node = node_of(pid);
      engine_.schedule_after(tun_.restart_delay, [this, pid, incarnation,
                                                  node] {
        if (finished_) return;
        Proc& q = proc(pid);
        if (q.incarnation != incarnation || !cluster_.worker(node).alive) {
          return;
        }
        q.alive = true;
        q.busy = false;
        q.last_heartbeat_served = engine_.now();
        pump();
      });
    }
  }

  // --------------------------------------------------------------------
  // Fault hooks. "Cache loss" drops in-memory result keys; only transfers
  // with a retry closure (dataset reads, peer key fetches, client pulls,
  // sink gathers) register as kill targets.
  // --------------------------------------------------------------------
  /// Drop the in-memory result key `f` from every process on node `w`
  /// (w = kNoWorker: from every holder). Lost keys are rediscovered at the
  /// next precheck or fetch and lineage-reset their producer.
  std::size_t lose_file(WorkerId w, FileId f) override {
    if (finished_ || f < 0 || static_cast<std::size_t>(f) >= files_.size()) {
      return 0;
    }
    auto& info = file(f);
    std::size_t lost = 0;
    for (auto it = info.holders.begin(); it != info.holders.end();) {
      const std::int32_t pid = *it;
      if (w != cluster::kNoWorker && node_of(pid) != w) {
        ++it;
        continue;
      }
      Proc& p = proc(pid);
      p.mem_used = info.size > p.mem_used ? 0 : p.mem_used - info.size;
      auto& hold = p.holding;
      hold.erase(std::remove(hold.begin(), hold.end(), f), hold.end());
      it = info.holders.erase(it);
      ++lost;
    }
    return lost;
  }

  // --------------------------------------------------------------------
  // Heartbeats: the scheduler loop must service every process's heartbeat
  // within the timeout, or the process is declared dead.
  // --------------------------------------------------------------------
  void schedule_heartbeats() {
    engine_.schedule_after(tun_.heartbeat_interval, [this] {
      if (finished_) return;
      for (std::int32_t pid = 0;
           pid < static_cast<std::int32_t>(procs_.size()); ++pid) {
        if (!proc(pid).alive) continue;
        const std::uint32_t incarnation = proc(pid).incarnation;
        manager_.acquire_then(tun_.heartbeat_cost, [this, pid,
                                                      incarnation] {
          if (finished_) return;
          Proc& p = proc(pid);
          if (!p.alive || p.incarnation != incarnation) return;
          p.last_heartbeat_served = engine_.now();
        });
      }
      // Check for timed-out processes (their heartbeats are stuck behind
      // the scheduler backlog).
      for (std::int32_t pid = 0;
           pid < static_cast<std::int32_t>(procs_.size()); ++pid) {
        Proc& p = proc(pid);
        if (p.alive && engine_.now() - p.last_heartbeat_served >
                           tun_.heartbeat_timeout) {
          kill_proc(pid, /*restart=*/true);
          if (finished_) return;
        }
      }
      schedule_heartbeats();
      sample_cache();
    });
  }

  void sample_cache() {
    // Report per-node in-memory result bytes as "cache" usage.
    const Tick now = engine_.now();
    for (WorkerId w = 0;
         w < static_cast<WorkerId>(cluster_.worker_count()); ++w) {
      std::uint64_t bytes = 0;
      for (std::uint32_t k = 0; k < cores_per_node_; ++k) {
        bytes += proc(proc_id(w, k)).mem_used;
      }
      if (cluster_.worker(w).alive) {
        report_.cache.sample(static_cast<std::size_t>(w), now, bytes);
      }
    }
  }

  // --------------------------------------------------------------------
  // Pump: dispatch ready tasks to free processes.
  // --------------------------------------------------------------------
  void pump() {
    if (finished_ || pumping_) return;
    pumping_ = true;
    while (!finished_) {
      const TaskId t = table_.peek_ready();
      if (t == dag::kInvalidTask) break;
      if (!precheck_inputs(t)) continue;
      const std::int32_t pid = choose_proc(t);
      if (pid == kNoProc) break;
      const TaskId popped = table_.pop_ready();
      assert(popped == t);
      (void)popped;
      dispatch(t, pid);
    }
    pumping_ = false;
  }

  bool precheck_inputs(TaskId t) {
    for (TaskId dep : graph_.task(t).spec.deps) {
      const FileId f = graph_.task(dep).output_file;
      if (table_.at(dep).state == TaskState::kDone && !output_available(f)) {
        lineage_reset(dep);
      }
    }
    return table_.at(t).state == TaskState::kReady;
  }

  [[nodiscard]] bool output_available(FileId f) const override {
    return file(f).at_client || !file(f).holders.empty();
  }

  std::int32_t choose_proc(TaskId t) {
    // Prefer a free process on a node already holding input bytes; fall
    // back to round-robin over free processes.
    const auto& task = graph_.task(t);
    std::int32_t best = kNoProc;
    std::uint64_t best_bytes = 0;
    for (TaskId dep : task.spec.deps) {
      const FileId f = graph_.task(dep).output_file;
      for (std::int32_t holder : file(f).holders) {
        const WorkerId node = node_of(holder);
        if (!cluster_.worker(node).alive) continue;
        for (std::uint32_t k = 0; k < cores_per_node_; ++k) {
          const std::int32_t cand = proc_id(node, k);
          Proc& p = proc(cand);
          if (!p.alive || p.busy) continue;
          const std::uint64_t bytes = file(f).size;
          if (best == kNoProc || bytes > best_bytes) {
            best = cand;
            best_bytes = bytes;
          }
          break;  // one free proc per node is enough to consider
        }
      }
    }
    if (best != kNoProc) return best;
    const auto n = static_cast<std::int32_t>(procs_.size());
    for (std::int32_t i = 0; i < n; ++i) {
      const std::int32_t pid = (rr_cursor_ + i) % n;
      Proc& p = proc(pid);
      if (p.alive && !p.busy && cluster_.worker(node_of(pid)).alive) {
        rr_cursor_ = (pid + 1) % n;
        return pid;
      }
    }
    return kNoProc;
  }

  // --------------------------------------------------------------------
  // Dispatch, staging, execution.
  // --------------------------------------------------------------------
  void dispatch(TaskId t, std::int32_t pid) {
    table_.mark_dispatched(t, node_of(pid));
    ++total_attempts_;
    Proc& p = proc(pid);
    p.busy = true;
    running_on(pid) = t;

    Attempt attempt;
    attempt.proc = pid;
    attempt.inputs = table_.gather_inputs(t);
    attempt.span.ready = table_.at(t).ready_at;
    attempt.span.dispatched = engine_.now();
    auto& slot = attempts_[static_cast<std::size_t>(t)];
    assert(!slot);
    slot = std::make_unique<Attempt>(std::move(attempt));
    ++attempts_live_;
    const Token token{t, table_.at(t).attempts};

    manager_.acquire_then(tun_.dispatch_cost, [this, token, pid] {
      if (!token_valid(token)) return;
      record_transfer(cluster_.manager_endpoint(),
                      cluster_.worker_endpoint(node_of(pid)),
                      options_.python.argument_bytes);
      engine_.schedule_after(cluster_.control_rtt() / 2, [this, token, pid] {
        begin_staging(token, pid);
      });
    });
  }

  void begin_staging(const Token& token, std::int32_t pid) {
    if (!token_valid(token)) return;
    const auto& task = graph_.task(token.task);
    auto& attempt = attempt_at(token.task);
    attempt.span.staged = engine_.now();

    std::vector<std::pair<FileId, bool>> needed;  // (file, is_dataset)
    for (FileId f : task.spec.input_files) needed.emplace_back(f, true);
    for (TaskId dep : task.spec.deps) {
      const FileId f = graph_.task(dep).output_file;
      // Already resident in this very process?
      if (std::find(file(f).holders.begin(), file(f).holders.end(), pid) ==
          file(f).holders.end()) {
        needed.emplace_back(f, false);
      }
    }
    attempt.staging_outstanding = static_cast<std::uint32_t>(needed.size());
    if (needed.empty()) {
      start_exec(token, pid);
      return;
    }
    for (const auto& [f, is_dataset] : needed) {
      fetch_key(f, is_dataset, pid, token);
    }
  }

  void fetch_key(FileId f, bool is_dataset, std::int32_t pid,
                 const Token& token) {
    const WorkerId dst_node = node_of(pid);
    auto arrival = [this, token, pid, f](bool ok) {
      if (!token_valid(token)) return;
      if (!ok) {
        // Lost key: fail this attempt and lineage-reset the producer.
        const TaskId t = token.task;
        fail_attempt(t);
        if (finished_) return;
        const TaskId producer = file(f).producer;
        if (producer != dag::kInvalidTask &&
            table_.at(producer).state == TaskState::kDone) {
          lineage_reset(producer);
        }
        pump();
        return;
      }
      auto& att = attempt_at(token.task);
      if (--att.staging_outstanding == 0) start_exec(token, pid);
    };

    if (is_dataset) {
      fs_gate_.submit([this, f, dst_node, arrival, pid,
                       token](net::FlowGate::SlotToken slot) {
        txn_xfer_start(cluster_.fs_endpoint(),
                       cluster_.worker_endpoint(dst_node), f, file(f).size);
        auto flow = std::make_shared<net::FlowId>(net::kInvalidFlow);
        *flow = cluster_.read_fs_to_worker(
            dst_node, file(f).size,
            [this, f, dst_node, arrival, flow, slot = std::move(slot)] {
              forget_flow(*flow);
              record_transfer(cluster_.fs_endpoint(),
                              cluster_.worker_endpoint(dst_node),
                              file(f).size);
              txn_xfer_done(cluster_.fs_endpoint(),
                            cluster_.worker_endpoint(dst_node), f,
                            file(f).size);
              arrival(true);
            });
        offer_key_fetch(*flow, f, /*is_dataset=*/true, pid, token, arrival,
                        cluster_.fs_endpoint());
      });
      return;
    }

    // Fetch from a holder process (dask workers serve each other
    // directly). Same-node copies go over loopback.
    const auto& holders = file(f).holders;
    std::int32_t src = kNoProc;
    for (std::int32_t h : holders) {
      if (proc(h).alive) {
        src = h;
        break;
      }
    }
    if (src == kNoProc) {
      if (file(f).at_client) {
        auto flow = std::make_shared<net::FlowId>(net::kInvalidFlow);
        *flow = cluster_.send_manager_to_worker(
            dst_node, file(f).size, cluster_.control_rtt() / 2,
            [this, f, dst_node, arrival, flow] {
              forget_flow(*flow);
              record_transfer(cluster_.manager_endpoint(),
                              cluster_.worker_endpoint(dst_node),
                              file(f).size);
              arrival(true);
            });
        offer_key_fetch(*flow, f, /*is_dataset=*/false, pid, token, arrival,
                        cluster_.manager_endpoint());
      } else {
        arrival(false);
      }
      return;
    }
    const WorkerId src_node = node_of(src);
    if (src_node == dst_node) {
      const Tick copy = util::transfer_time(
          file(f).size, tun_.loopback_bytes_per_sec);
      engine_.schedule_after(copy, [arrival] { arrival(true); });
      return;
    }
    txn_xfer_start(cluster_.worker_endpoint(src_node),
                   cluster_.worker_endpoint(dst_node), f, file(f).size);
    const Tick t0 = engine_.now();
    auto flow = std::make_shared<net::FlowId>(net::kInvalidFlow);
    *flow = cluster_.send_peer(
        src_node, dst_node, file(f).size, cluster_.control_rtt() / 2,
        [this, f, src_node, dst_node, arrival, t0, flow] {
          forget_flow(*flow);
          record_transfer(cluster_.worker_endpoint(src_node),
                          cluster_.worker_endpoint(dst_node), file(f).size);
          txn_xfer_done(cluster_.worker_endpoint(src_node),
                        cluster_.worker_endpoint(dst_node), f, file(f).size);
          if (trace_on()) {
            obs_->trace().add_flow(lane(cluster_.worker_endpoint(src_node)),
                                   lane(cluster_.worker_endpoint(dst_node)),
                                   "peer key " + std::to_string(f), t0,
                                   engine_.now());
          }
          arrival(true);
        });
    offer_key_fetch(*flow, f, /*is_dataset=*/false, pid, token, arrival,
                    cluster_.worker_endpoint(src_node));
  }

  /// Register a key/dataset fetch as a kill target. On kill: one unit of
  /// the attempt's transfer-retry budget is spent and the fetch restarts
  /// from scratch after backoff — a peer source that was itself preempted
  /// in the meantime is re-resolved, datasets re-read the durable FS. Past
  /// the budget the attempt takes the lost-input path.
  void offer_key_fetch(net::FlowId flow_id, FileId f, bool is_dataset,
                       std::int32_t pid, const Token& token,
                       std::function<void(bool)> arrival,
                       std::size_t src_ep) {
    if (!injector_ || flow_id == net::kInvalidFlow) return;
    injector_->offer_transfer(
        flow_id, file(f).size,
        [this, f, is_dataset, pid, token, arrival = std::move(arrival),
         src_ep] {
          txn_xfer_failed(src_ep, cluster_.worker_endpoint(node_of(pid)), f,
                          file(f).size);
          if (!token_valid(token)) return;
          // Budget check: the Nth kill (N = max_transfer_retries)
          // exhausts it — N-1 backoff re-fetches happen before the
          // attempt takes the lost-input path.
          const std::uint32_t kills =
              transfer_backoff_.next_attempt(token.task);
          if (kills >= options_.fault_retry.max_transfer_retries) {
            injector_->record_giveup(
                "task=" + std::to_string(token.task) + " file=" +
                std::to_string(f) + " kills=" + std::to_string(kills));
            arrival(false);
            return;
          }
          const Tick delay = injector_->backoff_delay(kills);
          engine_.schedule_after(delay, [this, f, is_dataset, pid, token] {
            if (token_valid(token)) fetch_key(f, is_dataset, pid, token);
          });
        });
  }

  void start_exec(const Token& token, std::int32_t pid) {
    if (!token_valid(token)) return;
    // All inputs staged: the transfer episode (if any) ended in success.
    transfer_backoff_.reset(token.task);
    table_.mark_running(token.task);
    if (txn_on()) {
      obs_->txn().task_running(engine_.now(), token.task, node_of(pid));
    }
    attempt_at(token.task).span.exec = engine_.now();
    const auto& task = graph_.task(token.task);
    const auto& node = cluster_.worker(node_of(pid));
    Proc& p = proc(pid);

    // Charge the argument pickle through the process's residue clock so
    // back-to-back sub-tick tuples sum exactly (util::TickAccumulator).
    const Tick pre = options_.python.serialize_time_acc(
        options_.python.argument_bytes, p.ser);
    const Tick compute = exec::modeled_exec_ticks(
        task, node.effective_speed(), options_.exec_time_jitter, rng_);

    if (!p.imports_loaded) {
      // First task in this process: cold interpreter plus the full import
      // stack. Dask workers have no TaskVine-style environment
      // distribution — the software stack lives on the shared filesystem,
      // so every process's imports hit the metadata server and data path
      // (a 300-process start is an import storm).
      p.imports_loaded = true;
      const std::uint32_t incarnation = p.incarnation;
      engine_.schedule_after(
          pre + options_.python.interpreter_startup,
          [this, token, pid, incarnation, compute] {
            if (!token_valid(token)) return;
            if (proc(pid).incarnation != incarnation) return;
            cluster_.fs().metadata_ops(
                options_.imports.total_metadata_ops(),
                [this, token, pid, incarnation, compute] {
                  if (!token_valid(token)) return;
                  if (proc(pid).incarnation != incarnation) return;
                  fs_gate_.submit([this, token, pid, incarnation, compute](
                                      net::FlowGate::SlotToken slot) {
                    if (!token_valid(token)) return;
                    const std::uint64_t code =
                        options_.imports.total_code_bytes();
                    const WorkerId node_id = node_of(pid);
                    cluster_.read_fs_to_worker(
                        node_id, code,
                        [this, token, pid, incarnation, compute, code,
                         node_id, slot = std::move(slot)] {
                          if (!token_valid(token)) return;
                          if (proc(pid).incarnation != incarnation) return;
                          record_transfer(cluster_.fs_endpoint(),
                                          cluster_.worker_endpoint(node_id),
                                          code);
                          const Tick cpu =
                              options_.imports.total_cpu_cost();
                          attempt_at(token.task).span.compute =
                              engine_.now() + cpu;
                          engine_.schedule_after(
                              cpu + compute,
                              [this, token, pid] {
                                complete_exec(token, pid);
                              });
                        });
                  });
                });
          });
      return;
    }

    attempt_at(token.task).span.compute = engine_.now() + pre;
    engine_.schedule_after(pre + compute, [this, token, pid] {
      complete_exec(token, pid);
    });
  }

  void complete_exec(const Token& token, std::int32_t pid) {
    if (!token_valid(token)) return;
    const TaskId t = token.task;
    const auto& task = graph_.task(t);
    Proc& p = proc(pid);

    // Hold the result key in process memory; exceeding the memory slice
    // kills the process (nanny behaviour).
    p.mem_used += task.spec.output_bytes;
    if (p.mem_used > mem_per_proc_) {
      kill_proc(pid, /*restart=*/true);
      pump();
      return;
    }
    p.holding.push_back(task.output_file);
    file(task.output_file).holders.push_back(pid);

    auto& attempt = attempt_at(t);
    attempt.exec_end = engine_.now();
    dag::ValuePtr value =
        task.spec.fn ? task.spec.fn(attempt.inputs) : nullptr;

    p.busy = false;
    running_on(pid) = dag::kInvalidTask;

    manager_.acquire_then(
        tun_.result_cost + cluster_.control_rtt() / 2,
        [this, token, pid, value = std::move(value)]() mutable {
          finalize_task(token, pid, std::move(value));
        });
  }

  void finalize_task(const Token& token, std::int32_t pid,
                     dag::ValuePtr value) {
    if (!token_valid(token)) return;
    const TaskId t = token.task;

    if (txn_on()) obs_->txn().task_retrieved(engine_.now(), t, "SUCCESS");
    const Attempt& done = attempt_at(t);
    record_attempt_span(t, node_of(pid), done.span, done.exec_end,
                        /*failed=*/false);

    table_.mark_done(t, std::move(value), engine_.now());
    attempt_erase(t);
    if (txn_on()) obs_->txn().task_done(engine_.now(), t, "SUCCESS");

    // Release dependency keys whose consumers are all finished.
    for (TaskId dep : graph_.task(t).spec.deps) {
      release_consumer(graph_.task(dep).output_file);
    }

    if (is_sink_[static_cast<std::size_t>(t)]) {
      gather_sink(t, node_of(pid));
    }
    check_completion();
    pump();
  }

  void release_consumer(FileId f) {
    auto& info = file(f);
    if (info.consumers_left > 0 && --info.consumers_left == 0) {
      for (std::int32_t holder : info.holders) {
        Proc& p = proc(holder);
        p.mem_used = info.size > p.mem_used ? 0 : p.mem_used - info.size;
        auto& hold = p.holding;
        hold.erase(std::remove(hold.begin(), hold.end(), f), hold.end());
      }
      info.holders.clear();
      // Lineage can no longer recover this key from memory, but all its
      // consumers are done, so nothing will ask for it (releasing is what
      // real Dask does).
    }
  }

  void gather_sink(TaskId t, WorkerId node) {
    const FileId f = graph_.task(t).output_file;
    mgr_gate_.submit([this, t, f, node](net::FlowGate::SlotToken slot) {
      txn_xfer_start(cluster_.worker_endpoint(node),
                     cluster_.manager_endpoint(), f, file(f).size);
      auto flow = std::make_shared<net::FlowId>(net::kInvalidFlow);
      *flow = cluster_.send_worker_to_manager(
          node, file(f).size, cluster_.control_rtt() / 2,
          [this, t, node, flow, slot = std::move(slot)] {
            forget_flow(*flow);
            record_transfer(cluster_.worker_endpoint(node),
                            cluster_.manager_endpoint(),
                            file(graph_.task(t).output_file).size);
            txn_xfer_done(cluster_.worker_endpoint(node),
                          cluster_.manager_endpoint(),
                          graph_.task(t).output_file,
                          file(graph_.task(t).output_file).size);
            file(graph_.task(t).output_file).at_client = true;
            if (sink_done_[static_cast<std::size_t>(t)] == 0) {
              sink_backoff_.reset(t);  // gather episode over
            }
            finish_sink(t);
          });
      offer_sink_gather(*flow, t, node);
    });
  }

  /// Killed sink gathers retry from the same node after backoff, without a
  /// cap: the result key stays in the source process's memory, so the
  /// stream can simply re-open.
  void offer_sink_gather(net::FlowId flow_id, TaskId t, WorkerId node) {
    if (!injector_ || flow_id == net::kInvalidFlow) return;
    const FileId f = graph_.task(t).output_file;
    injector_->offer_transfer(flow_id, file(f).size, [this, t, node, f] {
      txn_xfer_failed(cluster_.worker_endpoint(node),
                      cluster_.manager_endpoint(), f, file(f).size);
      const Tick delay =
          injector_->backoff_delay(sink_backoff_.next_attempt(t));
      engine_.schedule_after(delay, [this, t, node] {
        if (!finished_ && !sink_done_[static_cast<std::size_t>(t)]) {
          gather_sink(t, node);
        }
      });
    });
  }

  // --------------------------------------------------------------------
  // Snapshot and factory hooks. dd's state lives in process memory, not
  // on worker disks, so its sections are keys and processes.
  // --------------------------------------------------------------------
  void snapshot_run_fields(ha::SnapshotBuilder& b) override {
    // The process round-robin cursor is real scheduler state: two
    // schedulers that agree on everything else but disagree on the cursor
    // assign the next task to different processes.
    b.field_i("rr_cursor", rr_cursor_);
  }

  void snapshot_sections(ha::SnapshotBuilder& b) override {
    b.section("keys");
    for (FileId f = 0; f < static_cast<FileId>(files_.size()); ++f) {
      const auto& info = files_[static_cast<std::size_t>(f)];
      if (!info.at_client && info.holders.empty() &&
          info.consumers_left == 0) {
        continue;
      }
      std::string v = info.at_client ? "c" : "-";
      v += "/";
      std::vector<std::int32_t> holders = info.holders;
      std::sort(holders.begin(), holders.end());
      for (std::size_t i = 0; i < holders.size(); ++i) {
        if (i) v += ",";
        v += std::to_string(holders[i]);
      }
      v.append("/").append(std::to_string(info.consumers_left));
      b.field_s(std::string("f").append(std::to_string(f)), v);
    }

    b.section("procs");
    for (std::size_t pid = 0; pid < procs_.size(); ++pid) {
      const Proc& p = procs_[pid];
      if (!p.alive) continue;
      b.field_s(std::string("p").append(std::to_string(pid)),
                "inc=" + std::to_string(p.incarnation) +
                    " busy=" + std::to_string(p.busy ? 1 : 0) +
                    " mem=" + std::to_string(p.mem_used) +
                    " held=" + std::to_string(p.holding.size()) +
                    " ser=" + std::to_string(p.ser.bytes) + ":" +
                    std::to_string(p.ser.charged));
    }

    b.section("backoff");
    transfer_backoff_.for_each([&b](TaskId t, std::uint32_t n) {
      b.field("transfer." + std::to_string(t), n);
    });
    sink_backoff_.for_each([&b](TaskId t, std::uint32_t n) {
      b.field("sink." + std::to_string(t), n);
    });
  }

  /// Factory shrink: release nodes whose processes are all idle and hold
  /// no result keys (releasing a holder would force lineage resets).
  /// Highest ids go first, keeping the stable low-id core of the pool.
  std::uint32_t release_idle(std::uint32_t n) override {
    std::uint32_t released = 0;
    for (WorkerId w = static_cast<WorkerId>(cluster_.worker_count()) - 1;
         w >= 0 && released < n; --w) {
      if (!cluster_.worker(w).alive) continue;
      bool idle = true;
      for (std::uint32_t k = 0; k < cores_per_node_ && idle; ++k) {
        const Proc& p = procs_[static_cast<std::size_t>(proc_id(w, k))];
        if (p.alive && (p.busy || !p.holding.empty())) idle = false;
      }
      if (!idle) continue;
      pending_release_[static_cast<std::size_t>(w)] = true;
      if (cluster_.batch().release_slot(static_cast<std::uint32_t>(w))) {
        ++released;
      } else {
        pending_release_[static_cast<std::size_t>(w)] = false;
      }
    }
    return released;
  }

  void fail_attempt(TaskId t) {
    if (!record_failed_attempt(t)) return;
    if (Attempt* a = attempt_find(t)) {
      const std::int32_t pid = a->proc;
      if (pid != kNoProc) {
        running_on(pid) = dag::kInvalidTask;
        if (proc(pid).alive) proc(pid).busy = false;
      }
      record_attempt_span(t, pid == kNoProc ? cluster::kNoWorker : node_of(pid),
                          a->span, a->exec_end, /*failed=*/true);
      attempt_erase(t);
    }
    retry_or_fail(t, /*requeue=*/true);
  }

  void record_transfer(std::size_t src, std::size_t dst,
                       std::uint64_t bytes) {
    report_.transfers.record(src, dst, bytes);
  }

  // --------------------------------------------------------------------
  const DaskTunables tun_;

  std::vector<Proc> procs_;
  std::vector<FileInfo> files_;
  /// Task running on each process slot, dense by pid; kInvalidTask when
  /// the slot is idle.
  // vine-snapshot: derived(inverse of the per-task worker column in the tasks section)
  std::vector<TaskId> running_on_;
  // Backoff ledgers reset on success, so escalation counts consecutive
  // failures of the current episode, never a task's lifetime kills.
  fault::BackoffLedger<TaskId> transfer_backoff_;
  fault::BackoffLedger<TaskId> sink_backoff_;

  // vine-snapshot: derived(fixed at startup from cluster spec)
  std::uint32_t cores_per_node_ = 1;
  // vine-snapshot: derived(fixed at startup from cluster spec)
  std::uint64_t mem_per_proc_ = 0;
  std::int32_t rr_cursor_ = 0;
  // vine-snapshot: derived(re-entrancy latch, always false between events)
  bool pumping_ = false;
};

}  // namespace

exec::RunReport DaskDistScheduler::run(const dag::TaskGraph& graph,
                                       cluster::Cluster& cluster,
                                       const exec::RunOptions& options) {
  DaskRun run(graph, cluster, options, tun_);
  return run.execute();
}

}  // namespace hepvine::dd
