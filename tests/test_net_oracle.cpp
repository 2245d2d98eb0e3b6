// Oracle test for the max-min solver. The differential suites compare the
// incremental recompute with the reference full recompute, but both share
// one water-filling loop, so a change to that loop moves both arms at once
// and those suites cannot see it. This test keeps an independent copy of
// the original pass-scan water-fill — every pass rescans every link for
// the minimum share, then every pending flow's path for the exact `<=`
// freeze test, in ascending id — and drives net::Network through seeded
// random networks in both recompute modes. After every recompute, each
// transferring flow's rate must have the oracle's exact bit pattern.
//
// The networks are built to hit the arithmetic corners: links with equal
// capacities (exact-tie shares), capacities that divide unevenly (shares
// such as 1e9/3 that drift under repeated subtraction, and capacity clamps
// when the drift goes below zero), brownouts and full outages via
// set_link_scale, cancels, kills and armed faults.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "net/network.h"
#include "sim/engine.h"
#include "sim/rng.h"

namespace hepvine::net {
namespace {

using util::Tick;

struct OracleStats {
  std::uint64_t passes = 0;
  std::uint64_t clamps = 0;      // capacity went below zero and was clamped
  std::uint64_t tie_passes = 0;  // passes that froze flows on 2+ links' share
  std::uint64_t stalled = 0;     // flows rated zero (outage)
  std::uint64_t largest_solve = 0;  // most flows rated by one recompute
};

/// The pass-scan water-fill, global over every transferring flow. `paths`
/// lists the transferring flows' paths in ascending flow id; returns their
/// rates in the same order.
std::vector<double> oracle_rates(const std::vector<double>& capacity,
                                 const std::vector<std::vector<LinkId>>& paths,
                                 OracleStats& stats) {
  std::vector<double> cap = capacity;
  std::vector<std::int32_t> unfrozen(capacity.size(), 0);
  for (const auto& path : paths) {
    for (LinkId l : path) unfrozen[static_cast<std::size_t>(l)] += 1;
  }
  std::vector<double> rates(paths.size(), 0.0);
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < paths.size(); ++i) pending.push_back(i);
  std::vector<std::size_t> still;
  while (!pending.empty()) {
    double share = std::numeric_limits<double>::infinity();
    std::size_t at_share = 0;
    for (std::size_t l = 0; l < cap.size(); ++l) {
      if (unfrozen[l] > 0) share = std::min(share, cap[l] / unfrozen[l]);
    }
    for (std::size_t l = 0; l < cap.size(); ++l) {
      if (unfrozen[l] > 0 && cap[l] / unfrozen[l] == share) at_share += 1;
    }
    if (!std::isfinite(share)) break;
    stats.passes += 1;
    if (at_share > 1) stats.tie_passes += 1;
    still.clear();
    for (std::size_t f : pending) {
      bool frozen = false;
      for (LinkId id : paths[f]) {
        const auto l = static_cast<std::size_t>(id);
        if (unfrozen[l] > 0 && cap[l] / unfrozen[l] <= share) {
          frozen = true;
          break;
        }
      }
      if (!frozen) {
        still.push_back(f);
        continue;
      }
      rates[f] = share;
      if (share == 0.0) stats.stalled += 1;
      for (LinkId id : paths[f]) {
        const auto l = static_cast<std::size_t>(id);
        cap[l] -= share;
        if (cap[l] < 0) {
          cap[l] = 0;
          stats.clamps += 1;
        }
        unfrozen[l] -= 1;
      }
    }
    if (still.size() == pending.size()) break;
    pending.swap(still);
  }
  return rates;
}

struct Tracked {
  FlowId id = kInvalidFlow;
  std::vector<LinkId> path;
  Tick begins = 0;  // created + latency: when the flow starts transferring
  bool alive = true;
};

/// One seeded campaign; adds the oracle's coverage counters to `stats`.
void run_against_oracle(std::uint64_t seed, bool incremental,
                        OracleStats& stats) {
  sim::Engine engine;
  Network net(engine, NetworkOptions{incremental});
  sim::Rng rng(seed, "net-oracle");

  // Few distinct capacities, so many links tie; 1e9 and 7e8 split three
  // or seven ways do not divide exactly.
  static constexpr double kCapacities[] = {1e9, 1e9, 1e9, 7e8, 1.25e9, 3e9};
  const auto n_links = static_cast<LinkId>(rng.uniform_int(4, 10));
  for (LinkId l = 0; l < n_links; ++l) {
    net.add_link(std::string("l").append(std::to_string(l)),
                 kCapacities[rng.uniform_int(0, 5)]);
  }

  std::vector<Tracked> flows;  // ascending id, as start_flow issues them
  net.set_span_listener([&](Tick, Tick, FlowId id, std::uint64_t,
                            std::uint64_t, char) {
    for (Tracked& f : flows) {
      if (f.id == id) f.alive = false;
    }
  });

  // Mutations land on distinct pre-scheduled ticks; flow latency is at
  // least one tick, so a flow's setup event always precedes the recompute
  // of the tick it starts transferring in.
  const auto random_live = [&]() -> FlowId {
    std::vector<FlowId> live;
    for (const Tracked& f : flows) {
      if (f.alive) live.push_back(f.id);
    }
    if (live.empty()) return kInvalidFlow;
    return live[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1))];
  };
  Tick at = 0;
  for (int step = 0; step < 300; ++step) {
    at += rng.uniform_int(1, 6'000);
    const std::int64_t what = rng.uniform_int(0, 99);
    engine.schedule_at(at, [&, what] {
      if (what < 60) {
        std::vector<LinkId> path;
        const auto hops = rng.uniform_int(1, 3);
        while (static_cast<std::int64_t>(path.size()) < hops) {
          const auto l = static_cast<LinkId>(rng.uniform_int(0, n_links - 1));
          bool dup = false;
          for (LinkId p : path) dup = dup || p == l;
          if (!dup) path.push_back(l);
        }
        const auto bytes =
            static_cast<std::uint64_t>(rng.uniform_int(1, 60)) * 1'000'003;
        const Tick latency = rng.uniform_int(1, 3'000);
        Tracked t;
        t.path = path;
        t.begins = engine.now() + latency;
        t.id = net.start_flow(std::move(path), bytes, latency,
                              [](FlowId) {});
        flows.push_back(std::move(t));
      } else if (what < 72) {
        static constexpr double kScales[] = {0.0, 0.25, 1.0 / 3.0, 0.5, 1.0};
        net.set_link_scale(
            static_cast<LinkId>(rng.uniform_int(0, n_links - 1)),
            kScales[rng.uniform_int(0, 4)]);
      } else if (what < 82) {
        net.cancel_flow(random_live());
      } else if (what < 88) {
        net.fail_flow(random_live());
      } else {
        net.arm_flow_fault(random_live(), static_cast<std::uint64_t>(
                                              rng.uniform_int(1, 30'000'000)));
      }
    });
  }
  // Lift every outage at the end so the run drains.
  engine.schedule_at(at + 1, [&] {
    for (LinkId l = 0; l < n_links; ++l) net.set_link_scale(l, 1.0);
  });

  std::uint64_t checked = 0;
  std::uint64_t seen = net.recomputes();
  std::uint64_t visits = net.recompute_flow_visits();
  while (engine.step()) {
    if (net.recomputes() == seen) continue;
    seen = net.recomputes();
    stats.largest_solve = std::max(stats.largest_solve,
                                   net.recompute_flow_visits() - visits);
    visits = net.recompute_flow_visits();
    std::vector<double> capacity;
    for (LinkId l = 0; l < n_links; ++l) {
      capacity.push_back(net.link(l).capacity * net.link_scale(l));
    }
    std::vector<std::vector<LinkId>> paths;
    std::vector<FlowId> ids;
    for (const Tracked& f : flows) {
      if (f.alive && engine.now() >= f.begins) {
        paths.push_back(f.path);
        ids.push_back(f.id);
      }
    }
    const std::vector<double> want = oracle_rates(capacity, paths, stats);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const double got = net.flow_rate(ids[i]);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(want[i]))
          << "seed " << seed << " flow " << ids[i] << " at tick "
          << engine.now() << ": rate " << got << " vs oracle " << want[i];
    }
    checked += ids.size();
  }
  EXPECT_EQ(net.starvation_rescues(), 0u);
  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_GT(checked, 0u);
}

class NetOracle : public ::testing::TestWithParam<bool> {};

TEST_P(NetOracle, RatesMatchPassScanWaterFillBitForBit) {
  OracleStats total;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    run_against_oracle(seed, GetParam(), total);
    if (HasFatalFailure()) return;
  }
  // The campaign reached the corners it is built for.
  EXPECT_GT(total.passes, 1000u);
  EXPECT_GT(total.clamps, 0u);
  EXPECT_GT(total.tie_passes, 0u);
  EXPECT_GT(total.stalled, 0u);
  // Beyond the sorted small-component path, and past one bitmap word.
  EXPECT_GT(total.largest_solve, 64u);
}

INSTANTIATE_TEST_SUITE_P(Paths, NetOracle, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& pinfo) {
                           return pinfo.param ? "Incremental" : "Reference";
                         });

}  // namespace
}  // namespace hepvine::net
