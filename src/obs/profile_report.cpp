#include "obs/profile_report.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/chrome_trace.h"
#include "util/units.h"

namespace hepvine::obs {

namespace {

constexpr Blame kAllBlames[] = {
    Blame::kCompute,     Blame::kImport,   Blame::kTransferWait,
    Blame::kDispatchWait, Blame::kRecovery, Blame::kIdle,
    Blame::kDisconnected,
};

constexpr std::size_t idx(Blame blame) {
  return static_cast<std::size_t>(blame);
}

double core_seconds(std::int64_t core_ticks) {
  return static_cast<double>(core_ticks) / static_cast<double>(util::kSec);
}

void append_blame_json(std::string& out, const BlameVector& ticks) {
  char buf[96];
  out += '{';
  bool first = true;
  for (const Blame b : kAllBlames) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%" PRId64,
                  first ? "" : ",", to_string(b), ticks[idx(b)]);
    out += buf;
    first = false;
  }
  out += '}';
}

}  // namespace

ProfileReport build_profile(const SpanLog& log) {
  ProfileReport profile;
  profile.ledger = attribute(log);
  profile.path = extract_critical_path(log);
  return profile;
}

std::string profile_text(const SpanLog& log, const ProfileReport& profile,
                         std::size_t top_k) {
  const AttributionLedger& ledger = profile.ledger;
  const CriticalPath& path = profile.path;
  std::string out;
  char buf[256];

  std::snprintf(buf, sizeof(buf), "== vine_profile: %s ==\n",
                log.scheduler().empty() ? "(unknown scheduler)"
                                        : log.scheduler().c_str());
  out += buf;
  std::snprintf(buf, sizeof(buf), "outcome:   %s\n",
                log.success() ? "success" : "FAILURE");
  out += buf;
  std::snprintf(buf, sizeof(buf), "makespan:  %s (%" PRId64 " us)\n",
                util::format_duration(log.makespan()).c_str(),
                log.makespan());
  out += buf;
  std::uint64_t total_cores = 0;
  for (const std::uint32_t c : log.worker_cores()) total_cores += c;
  std::snprintf(buf, sizeof(buf),
                "workers:   %zu slots, %" PRIu64
                " cores, %.3f core-s capacity\n",
                log.worker_cores().size(), total_cores,
                core_seconds(ledger.capacity));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "manager:   busy %.1f%% of makespan (%" PRIu64 " ops)\n",
                100.0 * ledger.manager_busy_fraction, ledger.manager_ops);
  out += buf;
  std::size_t failed = 0;
  for (const AttemptSpan& a : log.attempts()) failed += a.failed ? 1 : 0;
  std::snprintf(buf, sizeof(buf), "attempts:  %zu recorded (%zu failed)\n",
                log.attempts().size(), failed);
  out += buf;
  if (!log.flows().empty()) {
    std::uint64_t carried = 0;
    for (const FlowSpan& f : log.flows()) carried += f.carried;
    std::snprintf(buf, sizeof(buf), "flows:     %zu wire flows, %s moved\n",
                  log.flows().size(), util::format_bytes(carried).c_str());
    out += buf;
  }
  if (!log.cache_events().empty()) {
    std::snprintf(buf, sizeof(buf), "cache:     %zu replica drops\n",
                  log.cache_events().size());
    out += buf;
  }

  const double attributed_pct =
      ledger.capacity > 0
          ? 100.0 * static_cast<double>(ledger.attributed()) /
                static_cast<double>(ledger.capacity)
          : 0.0;
  std::snprintf(buf, sizeof(buf),
                "\n-- core-second blame (identity %s, %.3f%% of capacity "
                "attributed) --\n",
                ledger.identity_ok() ? "OK" : "VIOLATED", attributed_pct);
  out += buf;
  for (const Blame b : kAllBlames) {
    std::snprintf(buf, sizeof(buf), "  %-14s %14.3f core-s  %6.2f%%\n",
                  to_string(b), core_seconds(ledger.ticks[idx(b)]),
                  100.0 * ledger.fraction(b));
    out += buf;
  }

  if (!ledger.tenants.empty()) {
    out += "\n-- per-tenant (task category) --\n";
    for (const auto& [category, tenant] : ledger.tenants) {
      std::int64_t occupied = 0;
      for (const std::int64_t t : tenant.ticks) occupied += t;
      std::snprintf(buf, sizeof(buf),
                    "  %-18s attempts=%" PRId64
                    "  occupied=%.3f core-s  compute=%.1f%% "
                    "transfer=%.1f%% dispatch=%.1f%% import=%.1f%% "
                    "recovery=%.1f%%\n",
                    category.empty() ? "(uncategorized)" : category.c_str(),
                    tenant.attempts, core_seconds(occupied),
                    occupied > 0 ? 100.0 *
                                       static_cast<double>(
                                           tenant.ticks[idx(Blame::kCompute)]) /
                                       static_cast<double>(occupied)
                                 : 0.0,
                    occupied > 0
                        ? 100.0 *
                              static_cast<double>(
                                  tenant.ticks[idx(Blame::kTransferWait)]) /
                              static_cast<double>(occupied)
                        : 0.0,
                    occupied > 0
                        ? 100.0 *
                              static_cast<double>(
                                  tenant.ticks[idx(Blame::kDispatchWait)]) /
                              static_cast<double>(occupied)
                        : 0.0,
                    occupied > 0 ? 100.0 *
                                       static_cast<double>(
                                           tenant.ticks[idx(Blame::kImport)]) /
                                       static_cast<double>(occupied)
                                 : 0.0,
                    occupied > 0
                        ? 100.0 *
                              static_cast<double>(
                                  tenant.ticks[idx(Blame::kRecovery)]) /
                              static_cast<double>(occupied)
                        : 0.0);
      out += buf;
    }
  }

  if (!path.nodes.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "\n-- critical path (%zu tasks, %s realized, %.1f%% of "
                  "makespan) --\n",
                  path.nodes.size(),
                  util::format_duration(path.realized_length()).c_str(),
                  log.makespan() > 0
                      ? 100.0 * static_cast<double>(path.realized_length()) /
                            static_cast<double>(log.makespan())
                      : 0.0);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "  speedup bound (infinite workers): %.2fx\n",
                  path.overall_speedup_bound());
    out += buf;
    for (const Blame b : kAllBlames) {
      if (b == Blame::kIdle || b == Blame::kDisconnected) continue;
      if (path.ticks[idx(b)] == 0) continue;
      const double bound = path.speedup_bound_without(b);
      if (bound > 0) {
        std::snprintf(
            buf, sizeof(buf),
            "  path is %.1f%% %s; eliminating it bounds speedup at %.2fx\n",
            100.0 * path.category_share(b), to_string(b), bound);
      } else {
        std::snprintf(buf, sizeof(buf),
                      "  path is %.1f%% %s; eliminating it removes the "
                      "critical path entirely\n",
                      100.0 * path.category_share(b), to_string(b));
      }
      out += buf;
    }
    if (top_k > 0) {
      out += "  top links (head first):\n";
      const std::size_t n = std::min(top_k, path.nodes.size());
      for (std::size_t i = 0; i < n; ++i) {
        const PathNode& node = path.nodes[path.nodes.size() - 1 - i];
        std::snprintf(buf, sizeof(buf),
                      "    task %" PRId64
                      " attempt %u worker %d  span=%s  compute=%.1f%% "
                      "transfer=%.1f%% dispatch=%.1f%%\n",
                      node.task, node.attempt, node.worker,
                      util::format_duration(node.finish - node.gate).c_str(),
                      node.finish > node.gate
                          ? 100.0 *
                                static_cast<double>(
                                    node.ticks[idx(Blame::kCompute)]) /
                                static_cast<double>(node.finish - node.gate)
                          : 0.0,
                      node.finish > node.gate
                          ? 100.0 *
                                static_cast<double>(
                                    node.ticks[idx(Blame::kTransferWait)]) /
                                static_cast<double>(node.finish - node.gate)
                          : 0.0,
                      node.finish > node.gate
                          ? 100.0 *
                                static_cast<double>(
                                    node.ticks[idx(Blame::kDispatchWait)]) /
                                static_cast<double>(node.finish - node.gate)
                          : 0.0);
        out += buf;
      }
    }
  }

  return out;
}

std::string profile_json(const SpanLog& log, const ProfileReport& profile) {
  const AttributionLedger& ledger = profile.ledger;
  const CriticalPath& path = profile.path;
  std::string out;
  out.reserve(2048 + ledger.workers.size() * 160);
  char buf[320];

  out += "{";
  std::snprintf(buf, sizeof(buf), "\"scheduler\":\"%s\",\"success\":%s,",
                ChromeTraceBuilder::escape(log.scheduler()).c_str(),
                log.success() ? "true" : "false");
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "\"makespan_us\":%" PRId64 ",\"capacity_core_us\":%" PRId64
                ",\"identity_ok\":%s,\"identity_error_core_us\":%" PRId64
                ",",
                log.makespan(), ledger.capacity,
                ledger.identity_ok() ? "true" : "false",
                ledger.identity_error());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "\"manager\":{\"busy_us\":%" PRId64 ",\"ops\":%" PRIu64
                ",\"busy_fraction\":%.6f},",
                ledger.manager_busy_ticks, ledger.manager_ops,
                ledger.manager_busy_fraction);
  out += buf;

  out += "\"blame_core_us\":";
  append_blame_json(out, ledger.ticks);
  out += ",";

  out += "\"workers\":[";
  for (std::size_t w = 0; w < ledger.workers.size(); ++w) {
    const WorkerAttribution& wa = ledger.workers[w];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"worker\":%d,\"cores\":%u,\"alive_us\":%" PRId64
                  ",\"ticks\":",
                  w > 0 ? "," : "", wa.worker, wa.cores, wa.alive);
    out += buf;
    append_blame_json(out, wa.ticks);
    out += "}";
  }
  out += "],";

  out += "\"tenants\":{";
  bool first_tenant = true;
  for (const auto& [category, tenant] : ledger.tenants) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"attempts\":%" PRId64
                                    ",\"ticks\":",
                  first_tenant ? "" : ",",
                  ChromeTraceBuilder::escape(category).c_str(),
                  tenant.attempts);
    out += buf;
    append_blame_json(out, tenant.ticks);
    out += "}";
    first_tenant = false;
  }
  out += "},";

  out += "\"critical_path\":{";
  std::snprintf(buf, sizeof(buf),
                "\"tasks\":%zu,\"start_us\":%" PRId64
                ",\"finish_us\":%" PRId64 ",\"length_us\":%" PRId64
                ",\"speedup_bound\":%.6f,\"blame_core_us\":",
                path.nodes.size(), path.start, path.finish,
                path.realized_length(), path.overall_speedup_bound());
  out += buf;
  append_blame_json(out, path.ticks);
  out += ",\"nodes\":[";
  for (std::size_t i = 0; i < path.nodes.size(); ++i) {
    const PathNode& node = path.nodes[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"task\":%" PRId64
                  ",\"attempt\":%u,\"worker\":%d,\"gate_us\":%" PRId64
                  ",\"finish_us\":%" PRId64 ",\"ticks\":",
                  i > 0 ? "," : "", node.task, node.attempt, node.worker,
                  node.gate, node.finish);
    out += buf;
    append_blame_json(out, node.ticks);
    out += "}";
  }
  out += "]}}";
  out += "\n";
  return out;
}

}  // namespace hepvine::obs
