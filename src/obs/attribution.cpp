#include "obs/attribution.h"

#include <algorithm>

namespace hepvine::obs {

namespace {

constexpr std::size_t idx(Blame blame) {
  return static_cast<std::size_t>(blame);
}

Tick clamp_tick(Tick t, Tick lo, Tick hi) {
  return std::max(lo, std::min(t, hi));
}

}  // namespace

const char* to_string(Blame blame) {
  switch (blame) {
    case Blame::kCompute:
      return "compute";
    case Blame::kImport:
      return "import";
    case Blame::kTransferWait:
      return "transfer-wait";
    case Blame::kDispatchWait:
      return "dispatch-wait";
    case Blame::kRecovery:
      return "recovery";
    case Blame::kIdle:
      return "idle";
    case Blame::kDisconnected:
      return "disconnected";
  }
  return "unknown";
}

AttributionLedger attribute(const SpanLog& log) {
  AttributionLedger ledger;
  ledger.makespan = log.makespan();
  ledger.manager_busy_ticks = log.manager_busy_ticks();
  ledger.manager_ops = log.manager_ops();
  if (ledger.makespan > 0) {
    ledger.manager_busy_fraction =
        std::min(1.0, static_cast<double>(ledger.manager_busy_ticks) /
                          static_cast<double>(ledger.makespan));
  }

  const auto& cores = log.worker_cores();
  if (cores.empty() || ledger.makespan <= 0) return ledger;
  const Tick makespan = ledger.makespan;

  ledger.workers.resize(cores.size());
  for (std::size_t w = 0; w < cores.size(); ++w) {
    WorkerAttribution& wa = ledger.workers[w];
    wa.worker = static_cast<std::int32_t>(w);
    wa.cores = cores[w];
    wa.capacity = static_cast<std::int64_t>(cores[w]) * makespan;
    ledger.capacity += wa.capacity;
  }

  // Connected ("alive") time per worker from the UP/DOWN edge stream,
  // clipped to [0, makespan]. A worker still connected at the end of the
  // run is alive through the makespan.
  std::vector<Tick> up_since(cores.size(), -1);
  for (const WorkerEvent& e : log.worker_events()) {
    if (e.worker < 0 || static_cast<std::size_t>(e.worker) >= cores.size()) {
      continue;
    }
    const auto w = static_cast<std::size_t>(e.worker);
    const Tick t = clamp_tick(e.t, 0, makespan);
    if (e.up) {
      if (up_since[w] < 0) up_since[w] = t;
    } else if (up_since[w] >= 0) {
      ledger.workers[w].alive += t - up_since[w];
      up_since[w] = -1;
    }
  }
  for (std::size_t w = 0; w < cores.size(); ++w) {
    if (up_since[w] >= 0) ledger.workers[w].alive += makespan - up_since[w];
    WorkerAttribution& wa = ledger.workers[w];
    wa.ticks[idx(Blame::kDisconnected)] =
        static_cast<std::int64_t>(wa.cores) * (makespan - wa.alive);
  }

  // Attempt occupancy: each attempt holds one core from dispatch until
  // the process exits (success) or the failure is observed. Successful
  // attempts split into phase segments; failed attempts are recovery
  // wholesale — the paper's "time lost to faults" is exactly the core
  // time burned by attempts that had to be redone.
  for (const AttemptSpan& a : log.attempts()) {
    if (a.worker < 0 || static_cast<std::size_t>(a.worker) >= cores.size()) {
      continue;
    }
    WorkerAttribution& wa = ledger.workers[static_cast<std::size_t>(a.worker)];
    TenantAttribution& tenant = ledger.tenants[a.category];
    tenant.attempts += 1;
    const Tick begin = clamp_tick(a.dispatched_at, 0, makespan);
    if (a.failed) {
      const Tick end = clamp_tick(std::max(a.retrieved_at, begin), 0,
                                  makespan);
      wa.ticks[idx(Blame::kRecovery)] += end - begin;
      tenant.ticks[idx(Blame::kRecovery)] += end - begin;
      continue;
    }
    const Tick end = clamp_tick(std::max(a.exec_end_at, begin), 0, makespan);
    // Monotone-clamp each boundary into [begin, end] so a missing (-1)
    // boundary degenerates to a zero-length segment instead of skewing
    // its neighbours.
    const Tick staged = clamp_tick(a.staged_at < 0 ? begin : a.staged_at,
                                   begin, end);
    const Tick exec = clamp_tick(a.exec_at < 0 ? staged : a.exec_at, staged,
                                 end);
    const Tick compute =
        clamp_tick(a.compute_at < 0 ? exec : a.compute_at, exec, end);
    const struct {
      Blame blame;
      Tick ticks;
    } segments[] = {
        {Blame::kDispatchWait, staged - begin},
        {Blame::kTransferWait, exec - staged},
        {Blame::kImport, compute - exec},
        {Blame::kCompute, end - compute},
    };
    for (const auto& s : segments) {
      wa.ticks[idx(s.blame)] += s.ticks;
      tenant.ticks[idx(s.blame)] += s.ticks;
    }
  }

  // Idle is the residual of connected capacity: what UP time no attempt
  // occupied. Negative idle (over-committed cores) fails identity_ok.
  for (WorkerAttribution& wa : ledger.workers) {
    std::int64_t occupied = 0;
    for (std::size_t c = 0; c < kBlameCount; ++c) {
      if (c == idx(Blame::kIdle) || c == idx(Blame::kDisconnected)) continue;
      occupied += wa.ticks[c];
    }
    wa.ticks[idx(Blame::kIdle)] =
        static_cast<std::int64_t>(wa.cores) * wa.alive - occupied;
    for (std::size_t c = 0; c < kBlameCount; ++c) {
      ledger.ticks[c] += wa.ticks[c];
    }
  }

  return ledger;
}

}  // namespace hepvine::obs
