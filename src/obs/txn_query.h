// Transactions-log parsing and queries — the library behind the
// `tools/txn_query` CLI (our analogue of CCTools' `vine_plot_txn_log`).
//
// Answers the two questions every post-mortem starts with:
//   * "what happened to task N?" — its full WAITING→RUNNING→RETRIEVED→DONE
//     lifecycle with per-phase durations, and
//   * "where did the time go?" — per-category wait/run breakdowns across
//     all tasks.
// Per-attempt phase blame and the critical path are not reconstructed
// here: they come from the run's span log (obs/span.h) via `vine_profile`.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/units.h"

namespace hepvine::obs::txnq {

using util::Tick;

/// One parsed transactions-log line.
struct Event {
  Tick t = 0;
  std::string subject;              // MANAGER, TASK, WORKER, CACHE, ...
  std::int64_t id = 0;              // task/worker/file id (or 0)
  std::string verb;                 // WAITING, RUNNING, DONE, INSERT, ...
  std::vector<std::string> rest;    // remaining whitespace-split fields
};

/// Parse a single line; returns nullopt for comments/blank/garbage.
[[nodiscard]] std::optional<Event> parse_line(const std::string& line);

/// Parse a whole log text (newline-separated), skipping unparsable lines.
[[nodiscard]] std::vector<Event> parse_log(const std::string& text);

/// Heuristic: does `text` look like a transactions log — the `# time_us`
/// header comment or at least one parsable event line? `vine_profile` uses
/// this to give a pointed diagnostic when a txn log is handed to the
/// span-log profiler instead of a generic parse error.
[[nodiscard]] bool looks_like_txn_log(const std::string& text);

/// Reconstructed lifecycle of one task (last attempt wins for the
/// RUNNING/RETRIEVED timestamps; `attempts` counts WAITING records).
struct TaskLifetime {
  std::int64_t task = -1;
  std::string category;
  std::uint32_t attempts = 0;
  std::int32_t worker = -1;     // worker of the final RUNNING record
  Tick waiting_at = -1;         // first WAITING
  Tick running_at = -1;         // last RUNNING
  Tick retrieved_at = -1;       // last RETRIEVED
  Tick done_at = -1;            // DONE
  bool done = false;

  [[nodiscard]] bool complete() const {
    return waiting_at >= 0 && running_at >= 0 && retrieved_at >= 0 && done;
  }
  [[nodiscard]] Tick wait_time() const {
    return running_at >= 0 && waiting_at >= 0 ? running_at - waiting_at : 0;
  }
  [[nodiscard]] Tick run_time() const {
    return retrieved_at >= 0 && running_at >= 0 ? retrieved_at - running_at
                                                : 0;
  }
};

/// Lifetime of task `id`; nullopt if the log has no record of it.
[[nodiscard]] std::optional<TaskLifetime> task_lifetime(
    const std::vector<Event>& events, std::int64_t id);

/// Lifetimes of every task mentioned in the log, keyed by id.
[[nodiscard]] std::map<std::int64_t, TaskLifetime> all_task_lifetimes(
    const std::vector<Event>& events);

/// Aggregate wait/run breakdown for one task category.
struct CategoryBreakdown {
  std::size_t tasks = 0;
  std::size_t attempts = 0;
  Tick total_wait = 0;
  Tick total_run = 0;
};

/// Per-category breakdown over all completed tasks.
[[nodiscard]] std::map<std::string, CategoryBreakdown> category_breakdown(
    const std::vector<Event>& events);

/// Human-readable rendering of one task's lifecycle (multi-line).
[[nodiscard]] std::string format_lifetime(const TaskLifetime& lt);

/// Human-readable per-category table.
[[nodiscard]] std::string format_breakdown(
    const std::map<std::string, CategoryBreakdown>& breakdown);

/// Worker session summary: connections, disconnections by reason.
struct WorkerSummary {
  std::size_t connections = 0;
  std::map<std::string, std::size_t> disconnections_by_reason;
};
[[nodiscard]] WorkerSummary worker_summary(const std::vector<Event>& events);

/// Cache-lifecycle rollup over the CACHE lines: how data entered worker
/// disks (INSERT) and the three ways it left — pressure eviction (EVICT),
/// ref-count garbage collection (GC), and injected loss (LOST).
struct CacheSummary {
  std::size_t inserts = 0;
  std::size_t evictions = 0;
  std::size_t gc_drops = 0;
  std::size_t losses = 0;
  std::uint64_t inserted_bytes = 0;
  std::uint64_t evicted_bytes = 0;
  std::uint64_t gc_bytes = 0;
  std::uint64_t lost_bytes = 0;
};
[[nodiscard]] CacheSummary cache_summary(const std::vector<Event>& events);

/// Human-readable cache-lifecycle table.
[[nodiscard]] std::string format_cache_summary(const CacheSummary& cs);

/// Object-store lifecycle rollup over the STORE lines: outputs entering
/// the node-local in-memory store (PUT), by-reference handles taken by
/// colocated consumers (REF), objects materialized to disk (SPILL — each
/// pairs with a CACHE INSERT for the same file), and in-memory deaths
/// (DROP).
struct StoreSummary {
  std::size_t puts = 0;
  std::size_t refs = 0;
  std::size_t spills = 0;
  std::size_t drops = 0;
  std::uint64_t put_bytes = 0;
  std::uint64_t ref_bytes = 0;
  std::uint64_t spilled_bytes = 0;
  std::uint64_t dropped_bytes = 0;
};
[[nodiscard]] StoreSummary store_summary(const std::vector<Event>& events);

/// Human-readable object-store lifecycle table.
[[nodiscard]] std::string format_store_summary(const StoreSummary& ss);

}  // namespace hepvine::obs::txnq
