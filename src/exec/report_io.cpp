#include "exec/report_io.h"

#include <cstdio>

#include "obs/attribution.h"

namespace hepvine::exec {

namespace {

/// One blame category's core-seconds for CSV output (exact int64 ticks
/// divided once for display).
double blame_core_s(const obs::AttributionLedger& ledger, obs::Blame b) {
  return static_cast<double>(
             ledger.ticks[static_cast<std::size_t>(b)]) /
         static_cast<double>(util::kSec);
}

}  // namespace

std::string summarize(const RunReport& report) {
  char buf[512];
  std::string out;
  std::snprintf(buf, sizeof(buf), "scheduler:      %s\n",
                report.scheduler.c_str());
  out += buf;
  std::snprintf(buf, sizeof(buf), "outcome:        %s%s%s\n",
                report.success ? "success" : "FAILED",
                report.success ? "" : " — ",
                report.success ? "" : report.failure_reason.c_str());
  out += buf;
  std::snprintf(buf, sizeof(buf), "makespan:       %s\n",
                util::format_duration(report.makespan).c_str());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "tasks:          %zu (%zu attempts, %zu failures, %zu "
                "lineage resets)\n",
                report.tasks_total, report.task_attempts,
                report.task_failures, report.lineage_resets);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "workers:        %u preemptions, %u crashes\n",
                report.worker_preemptions, report.worker_crashes);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "data movement:  manager %s, peer %s, total %s\n",
                util::format_bytes(report.transfers.manager_bytes()).c_str(),
                util::format_bytes(report.transfers.peer_bytes()).c_str(),
                util::format_bytes(report.transfers.total()).c_str());
  out += buf;
  std::snprintf(buf, sizeof(buf), "peak cache:     %s\n",
                util::format_bytes(report.cache.global_peak()).c_str());
  out += buf;
  if (report.cache_evictions > 0 || report.cache_gc_drops > 0 ||
      report.peer_slot_underflows > 0) {
    std::snprintf(
        buf, sizeof(buf),
        "disk lifecycle: %llu evictions (%s freed), %llu gc drops, "
        "%llu peer-slot underflows\n",
        static_cast<unsigned long long>(report.cache_evictions),
        util::format_bytes(report.cache_evicted_bytes).c_str(),
        static_cast<unsigned long long>(report.cache_gc_drops),
        static_cast<unsigned long long>(report.peer_slot_underflows));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "manager busy:   %.1f%% of makespan\n",
                report.manager_busy_fraction * 100.0);
  out += buf;
  {
    const obs::AttributionLedger ledger = obs::attribute(report.profile);
    if (ledger.capacity > 0) {
      std::snprintf(
          buf, sizeof(buf),
          "core-seconds:   %.1f capacity: compute %.1f%%, transfer-wait "
          "%.1f%%, dispatch-wait %.1f%%, import %.1f%%, recovery %.1f%%, "
          "idle %.1f%%, disconnected %.1f%%%s\n",
          static_cast<double>(ledger.capacity) /
              static_cast<double>(util::kSec),
          ledger.fraction(obs::Blame::kCompute) * 100.0,
          ledger.fraction(obs::Blame::kTransferWait) * 100.0,
          ledger.fraction(obs::Blame::kDispatchWait) * 100.0,
          ledger.fraction(obs::Blame::kImport) * 100.0,
          ledger.fraction(obs::Blame::kRecovery) * 100.0,
          ledger.fraction(obs::Blame::kIdle) * 100.0,
          ledger.fraction(obs::Blame::kDisconnected) * 100.0,
          ledger.identity_ok() ? "" : "  [IDENTITY VIOLATION]");
      out += buf;
    }
  }
  if (report.faults.faults_injected > 0) {
    std::snprintf(
        buf, sizeof(buf),
        "faults:         %llu injected (%llu crashes, %llu cache losses, "
        "%llu transfer kills, %llu fs windows, %llu stragglers)\n",
        static_cast<unsigned long long>(report.faults.faults_injected),
        static_cast<unsigned long long>(report.faults.worker_crashes),
        static_cast<unsigned long long>(report.faults.cache_losses),
        static_cast<unsigned long long>(report.faults.transfers_killed),
        static_cast<unsigned long long>(report.faults.fs_degradations),
        static_cast<unsigned long long>(report.faults.stragglers));
    out += buf;
    std::snprintf(
        buf, sizeof(buf),
        "recovery:       %llu re-fetch retries, %s backoff, %s fs-degraded\n",
        static_cast<unsigned long long>(report.faults.transfer_retries),
        util::format_duration(report.faults.backoff_wait).c_str(),
        util::format_duration(report.faults.fs_degraded_time).c_str());
    out += buf;
  }
  if (report.observation && report.observation->enabled()) {
    const auto& obs = *report.observation;
    std::snprintf(buf, sizeof(buf),
                  "observability:  %llu txn events (%llu rotated out), "
                  "%zu perf samples, %zu trace events\n",
                  static_cast<unsigned long long>(obs.txn().events()),
                  static_cast<unsigned long long>(obs.txn().dropped()),
                  obs.perf().rows().size(), obs.trace().events());
    out += buf;
  }
  return out;
}

std::string csv_header() {
  return "scheduler,success,makespan_s,tasks,attempts,failures,"
         "lineage_resets,preemptions,crashes,manager_busy_fraction,"
         "manager_bytes,peer_bytes,peak_cache_bytes,faults_injected,"
         "transfers_killed,transfer_retries,cache_evictions,"
         "cache_gc_drops,peer_slot_underflows,"
         "compute_core_s,import_core_s,transfer_wait_core_s,"
         "dispatch_wait_core_s,recovery_core_s,idle_core_s,"
         "disconnected_core_s\n";
}

std::string csv_row(const RunReport& report) {
  const obs::AttributionLedger ledger = obs::attribute(report.profile);
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "%s,%d,%.3f,%zu,%zu,%zu,%zu,%u,%u,%.4f,%llu,%llu,%llu,%llu,%llu,"
      "%llu,%llu,%llu,%llu,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f\n",
      report.scheduler.c_str(), report.success ? 1 : 0,
      report.makespan_seconds(), report.tasks_total, report.task_attempts,
      report.task_failures, report.lineage_resets, report.worker_preemptions,
      report.worker_crashes, report.manager_busy_fraction,
      static_cast<unsigned long long>(report.transfers.manager_bytes()),
      static_cast<unsigned long long>(report.transfers.peer_bytes()),
      static_cast<unsigned long long>(report.cache.global_peak()),
      static_cast<unsigned long long>(report.faults.faults_injected),
      static_cast<unsigned long long>(report.faults.transfers_killed),
      static_cast<unsigned long long>(report.faults.transfer_retries),
      static_cast<unsigned long long>(report.cache_evictions),
      static_cast<unsigned long long>(report.cache_gc_drops),
      static_cast<unsigned long long>(report.peer_slot_underflows),
      blame_core_s(ledger, obs::Blame::kCompute),
      blame_core_s(ledger, obs::Blame::kImport),
      blame_core_s(ledger, obs::Blame::kTransferWait),
      blame_core_s(ledger, obs::Blame::kDispatchWait),
      blame_core_s(ledger, obs::Blame::kRecovery),
      blame_core_s(ledger, obs::Blame::kIdle),
      blame_core_s(ledger, obs::Blame::kDisconnected));
  return buf;
}

}  // namespace hepvine::exec
