// Simulation-substrate throughput: the paper-scale network scenario
// (600 nodes x 12 cores, Figs 14-15) driven directly on net::Network,
// comparing the incremental component recompute against the reference
// full recompute.
//
// Each of the 7200 core slots cycles through fetch -> compute -> fetch:
// a cold-start import from the shared filesystem first, then peer fetches
// from pseudo-random uplinks, with compute gaps between transfers so the
// instantaneous flow population matches a compute-dominated HEP campaign.
// Both modes replay the exact same scenario (peer choices and gaps are
// hashed from stable slot coordinates, not drawn from shared mutable
// state), so completions, bytes, and the final simulated tick must agree
// exactly; the bench fails if they diverge, or if the incremental path is
// not at least 3x faster in wall-clock.
//
// Emits BENCH_sim_throughput.json in the working directory.
// HEPVINE_FAST=1 shrinks the campaign (60 nodes, fewer rounds) for smoke
// runs; the identity and speedup gates still apply.
//
// vine-lint: allow(ambient-entropy) — steady_clock here measures the
// simulator's own wall-clock throughput (the bench's whole point); it
// never feeds simulated state, which runs entirely on virtual ticks.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "net/network.h"
#include "sim/engine.h"
#include "util/env.h"
#include "util/units.h"

namespace {

using hepvine::net::FlowId;
using hepvine::net::LinkId;
using hepvine::net::Network;
using hepvine::net::NetworkOptions;
using hepvine::util::Tick;

[[nodiscard]] bool fast_mode() {
  return hepvine::util::env_flag("HEPVINE_FAST");
}

/// Order-independent determinism: every random choice is a pure function
/// of stable slot coordinates, so both recompute modes see the identical
/// scenario no matter how callback order is implemented internally.
[[nodiscard]] std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Params {
  std::uint32_t nodes = 600;
  std::uint32_t slots_per_node = 12;
  std::uint32_t rounds = 12;  // transfers per slot, incl. the FS import
};

struct Result {
  double wall_seconds = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t bytes_completed = 0;
  std::uint64_t recomputes = 0;
  std::uint64_t flow_visits = 0;
  std::uint64_t waterfill_passes = 0;
  std::uint64_t engine_events = 0;
  Tick end_tick = 0;
  [[nodiscard]] double flow_events_per_sec() const {
    const double events =
        static_cast<double>(flows_completed + recomputes);
    return wall_seconds > 0 ? events / wall_seconds : 0;
  }
};

class Campaign {
 public:
  Campaign(const Params& params, bool incremental)
      : params_(params), net_(engine_, NetworkOptions{incremental}) {
    fs_ = net_.add_link("shared-fs", 25e9);
    for (std::uint32_t n = 0; n < params_.nodes; ++n) {
      up_.push_back(net_.add_link("up" + std::to_string(n), 1.25e9));
      down_.push_back(net_.add_link("down" + std::to_string(n), 1.25e9));
    }
  }

  Result run() {
    for (std::uint32_t n = 0; n < params_.nodes; ++n) {
      for (std::uint32_t s = 0; s < params_.slots_per_node; ++s) {
        // Stagger slot starts across the first ~10 s, the way a batch
        // system matches workers over time: a synchronized cold start
        // would put every slot's FS import in one connected component
        // and (correctly, but uninterestingly) degenerate the
        // incremental recompute to the full one.
        const Tick start = static_cast<Tick>(mix(n * 131 + s) % 10'000'000);
        engine_.schedule_at(start, [this, n, s] {
          begin_cycle(n, s, params_.rounds);
        });
      }
    }
    const auto t0 = std::chrono::steady_clock::now();
    engine_.run();
    const auto t1 = std::chrono::steady_clock::now();

    Result r;
    r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    r.flows_completed = net_.flows_completed();
    r.bytes_completed = net_.total_bytes_completed();
    r.recomputes = net_.recomputes();
    r.flow_visits = net_.recompute_flow_visits();
    r.waterfill_passes = net_.waterfill_passes();
    r.engine_events = engine_.executed();
    r.end_tick = engine_.now();
    return r;
  }

 private:
  void begin_cycle(std::uint32_t node, std::uint32_t slot,
                   std::uint32_t remaining) {
    if (remaining == 0) return;
    const std::uint64_t h =
        mix((static_cast<std::uint64_t>(node) << 32) |
            (static_cast<std::uint64_t>(slot) << 8) | remaining);
    std::vector<LinkId> path;
    if (remaining == params_.rounds) {
      // Cold start: every slot's first fetch reads from the shared FS.
      path = {fs_, down_[node]};
    } else {
      std::uint32_t peer =
          static_cast<std::uint32_t>(h % params_.nodes);
      if (peer == node) peer = (peer + 1) % params_.nodes;
      path = {up_[peer], down_[node]};
    }
    const std::uint64_t bytes =
        (6 + (h >> 32) % 5) * hepvine::util::kMB;
    const Tick compute_gap =
        80'000 + static_cast<Tick>((h >> 16) % 40'000);
    net_.start_flow(std::move(path), bytes, 200,
                    [this, node, slot, remaining, compute_gap](FlowId) {
                      engine_.schedule_after(compute_gap,
                                             [this, node, slot, remaining] {
                                               begin_cycle(node, slot,
                                                           remaining - 1);
                                             });
                    });
  }

  Params params_;
  hepvine::sim::Engine engine_;
  Network net_;
  LinkId fs_ = 0;
  std::vector<LinkId> up_;
  std::vector<LinkId> down_;
};

void print_result(const char* label, const Result& r) {
  std::printf(
      "  %-12s wall %8.3f s   flows %8llu   recomputes %9llu   "
      "flow-visits %12llu   wf-passes %11llu   flow-events/s %12.0f\n",
      label, r.wall_seconds,
      static_cast<unsigned long long>(r.flows_completed),
      static_cast<unsigned long long>(r.recomputes),
      static_cast<unsigned long long>(r.flow_visits),
      static_cast<unsigned long long>(r.waterfill_passes),
      r.flow_events_per_sec());
}

void json_result(std::FILE* f, const char* key, const Result& r) {
  std::fprintf(f,
               "  \"%s\": {\n"
               "    \"wall_seconds\": %.6f,\n"
               "    \"flows_completed\": %llu,\n"
               "    \"bytes_completed\": %llu,\n"
               "    \"recomputes\": %llu,\n"
               "    \"flow_visits\": %llu,\n"
               "    \"waterfill_passes\": %llu,\n"
               "    \"engine_events\": %llu,\n"
               "    \"end_tick_us\": %lld,\n"
               "    \"flow_events_per_sec\": %.1f\n"
               "  }",
               key, r.wall_seconds,
               static_cast<unsigned long long>(r.flows_completed),
               static_cast<unsigned long long>(r.bytes_completed),
               static_cast<unsigned long long>(r.recomputes),
               static_cast<unsigned long long>(r.flow_visits),
               static_cast<unsigned long long>(r.waterfill_passes),
               static_cast<unsigned long long>(r.engine_events),
               static_cast<long long>(r.end_tick),
               r.flow_events_per_sec());
}

}  // namespace

int main() {
  Params params;
  if (fast_mode()) {
    params.nodes = 60;
    params.rounds = 6;
  }
  std::printf(
      "bench_sim_throughput: %u nodes x %u slots, %u transfers/slot "
      "(%u flows)\n",
      params.nodes, params.slots_per_node, params.rounds,
      params.nodes * params.slots_per_node * params.rounds);

  const Result inc = Campaign(params, true).run();
  print_result("incremental", inc);
  const Result ref = Campaign(params, false).run();
  print_result("reference", ref);

  const bool identical = inc.flows_completed == ref.flows_completed &&
                         inc.bytes_completed == ref.bytes_completed &&
                         inc.end_tick == ref.end_tick &&
                         inc.engine_events == ref.engine_events;
  const double speedup =
      inc.wall_seconds > 0 ? ref.wall_seconds / inc.wall_seconds : 0;
  std::printf("  speedup %.2fx   identical %s\n", speedup,
              identical ? "yes" : "NO");

  std::FILE* f = std::fopen("BENCH_sim_throughput.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"sim_throughput\",\n"
                 "  \"nodes\": %u,\n"
                 "  \"slots_per_node\": %u,\n"
                 "  \"rounds\": %u,\n",
                 params.nodes, params.slots_per_node, params.rounds);
    json_result(f, "incremental", inc);
    std::fputs(",\n", f);
    json_result(f, "reference", ref);
    std::fprintf(f,
                 ",\n  \"speedup\": %.3f,\n"
                 "  \"identical\": %s\n"
                 "}\n",
                 speedup, identical ? "true" : "false");
    std::fclose(f);
  }

  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: incremental and reference paths diverged\n");
    return 1;
  }
  // The 3x floor is an acceptance criterion for the paper-scale scenario;
  // the shrunken fast-mode campaign has too few concurrent flows for the
  // reference path's linear scan to hurt as much, so it only gates
  // identity.
  if (!fast_mode() && speedup < 3.0) {
    std::fprintf(stderr,
                 "FAIL: speedup %.2fx below the 3x acceptance floor\n",
                 speedup);
    return 1;
  }
  return 0;
}
