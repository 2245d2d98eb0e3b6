// Core-second blame accounting: every core-microsecond of the cluster's
// capacity (Σ_w cores_w × makespan) is attributed to exactly one blame
// category, derived purely from a SpanLog. The accounting is exact 64-bit
// integer arithmetic — no floating point touches a core-tick until a
// fraction is derived for display — so the identity
//
//     Σ_category core_ticks[category] == capacity
//
// holds bit-exactly and is machine-checked (identity_ok). Under the
// determinism contract the ledger is therefore bit-identical across
// replays of the same run.
//
// Taxonomy (one owner per core-tick, first match wins):
//   disconnected   the worker slot was configured but no worker was
//                  connected to it (not yet granted, or preempted)
//   recovery       a failed attempt occupied the core (all of its span)
//   dispatch-wait  manager serialization + control RTT before inputs moved
//   transfer-wait  input fetch (and library/env wait) on the worker
//   import         interpreter startup, (de)serialization, import cost
//   compute        user code + output write
//   idle           connected capacity no attempt occupied
//
// The output-retrieval phase occupies no core (the process has exited and
// the core is re-dispatchable while the result drains through the
// manager), so it appears in spans and traces but never in the ledger.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/span.h"
#include "util/units.h"

namespace hepvine::obs {

enum class Blame : std::uint8_t {
  kCompute = 0,
  kImport,
  kTransferWait,
  kDispatchWait,
  kRecovery,
  kIdle,
  kDisconnected,
};

inline constexpr std::size_t kBlameCount = 7;

/// Stable display name ("compute", "transfer-wait", ...).
const char* to_string(Blame blame);

/// Core-ticks per blame category (indexed by Blame enum value).
using BlameVector = std::array<std::int64_t, kBlameCount>;

/// One worker slot's share of the accounting.
struct WorkerAttribution {
  std::int32_t worker = -1;
  std::uint32_t cores = 0;
  std::int64_t capacity = 0;  // cores × makespan, in core-ticks
  Tick alive = 0;             // connected time within [0, makespan]
  BlameVector ticks{};
};

/// Per-task-category rollup of the occupied (attempt-attributed) ticks.
struct TenantAttribution {
  std::int64_t attempts = 0;
  BlameVector ticks{};
};

struct AttributionLedger {
  Tick makespan = 0;
  std::int64_t capacity = 0;  // Σ_w cores_w × makespan
  BlameVector ticks{};        // cluster-wide totals
  std::vector<WorkerAttribution> workers;
  std::map<std::string, TenantAttribution> tenants;

  // Manager serial-loop occupancy, carried through for RunReport: the
  // ledger replaces the legacy ad-hoc measurement as the source of truth.
  Tick manager_busy_ticks = 0;
  std::uint64_t manager_ops = 0;
  double manager_busy_fraction = 0.0;

  /// Σ ticks over all categories (== capacity when the identity holds).
  [[nodiscard]] std::int64_t attributed() const {
    std::int64_t sum = 0;
    for (const std::int64_t t : ticks) sum += t;
    return sum;
  }
  /// capacity − attributed(); 0 when the accounting identity holds.
  [[nodiscard]] std::int64_t identity_error() const {
    return capacity - attributed();
  }
  /// The identity holds when the categories sum to capacity exactly AND
  /// no worker's idle residual went negative (negative idle means more
  /// concurrent attempts were charged to a worker than it has cores — a
  /// scheduler accounting bug the residual construction would otherwise
  /// silently absorb).
  [[nodiscard]] bool identity_ok() const {
    if (identity_error() != 0) return false;
    for (const WorkerAttribution& w : workers) {
      if (w.ticks[static_cast<std::size_t>(Blame::kIdle)] < 0) return false;
    }
    return true;
  }

  /// Fraction of capacity in `blame` (display only; 0 when capacity is 0).
  [[nodiscard]] double fraction(Blame blame) const {
    if (capacity == 0) return 0.0;
    return static_cast<double>(ticks[static_cast<std::size_t>(blame)]) /
           static_cast<double>(capacity);
  }
};

/// Build the ledger from a recorded run. Requires set_worker_cores,
/// set_run and the worker/attempt records to have been filled in; a log
/// with no workers or zero makespan yields an empty (capacity 0) ledger.
[[nodiscard]] AttributionLedger attribute(const SpanLog& log);

}  // namespace hepvine::obs
