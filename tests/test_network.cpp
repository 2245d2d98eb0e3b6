#include "net/network.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "net/flow_gate.h"
#include "sim/engine.h"

namespace hepvine::net {
namespace {

using util::gbps;
using util::Tick;

struct NetFixture : public ::testing::Test {
  sim::Engine engine;
  Network net{engine};
};

TEST_F(NetFixture, SingleFlowTakesBytesOverBandwidth) {
  const LinkId a = net.add_link("a", 1e9);  // 1 GB/s
  const LinkId b = net.add_link("b", 1e9);
  Tick done_at = -1;
  net.start_flow({a, b}, 500'000'000, 0,
                 [&](FlowId) { done_at = engine.now(); });
  engine.run();
  // 0.5 GB at 1 GB/s = 0.5 s (plus the zero-delay recompute tick).
  EXPECT_NEAR(util::to_seconds(done_at), 0.5, 0.001);
}

TEST_F(NetFixture, LatencyDelaysStart) {
  const LinkId a = net.add_link("a", 1e9);
  Tick done_at = -1;
  net.start_flow({a}, 1'000'000, util::seconds(2.0),
                 [&](FlowId) { done_at = engine.now(); });
  engine.run();
  EXPECT_NEAR(util::to_seconds(done_at), 2.001, 0.001);
}

TEST_F(NetFixture, ZeroByteFlowCompletesAfterLatency) {
  const LinkId a = net.add_link("a", 1e9);
  Tick done_at = -1;
  net.start_flow({a}, 0, util::seconds(1.0),
                 [&](FlowId) { done_at = engine.now(); });
  engine.run();
  EXPECT_EQ(done_at, util::seconds(1.0));
}

TEST_F(NetFixture, TwoFlowsShareBottleneckEqually) {
  const LinkId shared = net.add_link("shared", 1e9);
  std::vector<Tick> done;
  for (int i = 0; i < 2; ++i) {
    net.start_flow({shared}, 500'000'000, 0,
                   [&](FlowId) { done.push_back(engine.now()); });
  }
  engine.run();
  ASSERT_EQ(done.size(), 2u);
  // Both flows share 1 GB/s: each gets 0.5 GB/s -> 1 s.
  EXPECT_NEAR(util::to_seconds(done[0]), 1.0, 0.01);
  EXPECT_NEAR(util::to_seconds(done[1]), 1.0, 0.01);
}

TEST_F(NetFixture, RatesRecomputeWhenFlowFinishes) {
  const LinkId shared = net.add_link("shared", 1e9);
  Tick small_done = -1;
  Tick big_done = -1;
  net.start_flow({shared}, 100'000'000, 0,
                 [&](FlowId) { small_done = engine.now(); });
  net.start_flow({shared}, 500'000'000, 0,
                 [&](FlowId) { big_done = engine.now(); });
  engine.run();
  // Small: 0.1 GB at 0.5 GB/s = 0.2 s. Big: 0.1 GB at 0.5 GB/s by then,
  // remaining 0.4 GB at full 1 GB/s = 0.2 + 0.4 = 0.6 s.
  EXPECT_NEAR(util::to_seconds(small_done), 0.2, 0.01);
  EXPECT_NEAR(util::to_seconds(big_done), 0.6, 0.01);
}

TEST_F(NetFixture, MaxMinAllocatesSlackToUnconstrainedFlows) {
  // Flow A crosses both links; flow B only the second. Link 1 = 1 GB/s,
  // link 2 = 3 GB/s. Max-min: A gets 1 (bottlenecked by link 1), B gets
  // the remaining 2 on link 2 — NOT an equal 1.5/1.5 split.
  const LinkId l1 = net.add_link("l1", 1e9);
  const LinkId l2 = net.add_link("l2", 3e9);
  Tick a_done = -1;
  Tick b_done = -1;
  net.start_flow({l1, l2}, 1'000'000'000, 0,
                 [&](FlowId) { a_done = engine.now(); });
  net.start_flow({l2}, 2'000'000'000, 0,
                 [&](FlowId) { b_done = engine.now(); });
  engine.run();
  EXPECT_NEAR(util::to_seconds(a_done), 1.0, 0.02);
  EXPECT_NEAR(util::to_seconds(b_done), 1.0, 0.02);
}

TEST_F(NetFixture, ManyFlowsThroughOneLinkSerializeFairly) {
  const LinkId hub = net.add_link("hub", 1e9);
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    const LinkId leaf = net.add_link("leaf" + std::to_string(i), 10e9);
    net.start_flow({hub, leaf}, 100'000'000, 0,
                   [&](FlowId) { ++completed; });
  }
  engine.run();
  EXPECT_EQ(completed, 10);
  // 10 x 0.1 GB through a 1 GB/s hub: all finish together at ~1 s.
  EXPECT_NEAR(util::to_seconds(engine.now()), 1.0, 0.02);
}

TEST_F(NetFixture, CancelledFlowNeverCompletes) {
  const LinkId a = net.add_link("a", 1e9);
  bool fired = false;
  const FlowId id = net.start_flow({a}, 1'000'000'000, 0,
                                   [&](FlowId) { fired = true; });
  engine.schedule_at(util::seconds(0.2), [&] { net.cancel_flow(id); });
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST_F(NetFixture, CancelFreesBandwidthForOthers) {
  const LinkId shared = net.add_link("shared", 1e9);
  Tick done = -1;
  const FlowId victim =
      net.start_flow({shared}, 10'000'000'000ULL, 0, [](FlowId) {});
  net.start_flow({shared}, 500'000'000, 0,
                 [&](FlowId) { done = engine.now(); });
  engine.schedule_at(util::seconds(0.5), [&] { net.cancel_flow(victim); });
  engine.run();
  // Survivor: 0.25 GB in first 0.5 s (half rate), then 0.25 GB at full
  // rate -> total 0.75 s.
  EXPECT_NEAR(util::to_seconds(done), 0.75, 0.02);
}

TEST_F(NetFixture, LinkStatsAccumulateBytes) {
  const LinkId a = net.add_link("a", 1e9);
  net.start_flow({a}, 300'000'000, 0, [](FlowId) {});
  engine.run();
  EXPECT_NEAR(static_cast<double>(net.link_stats(a).bytes_carried),
              300'000'000.0, 1'000'000.0);
  EXPECT_EQ(net.link_stats(a).flows_carried, 1u);
}

TEST_F(NetFixture, CompletionCountersTrack) {
  const LinkId a = net.add_link("a", 1e9);
  net.start_flow({a}, 1'000, 0, [](FlowId) {});
  net.start_flow({a}, 2'000, 0, [](FlowId) {});
  engine.run();
  EXPECT_EQ(net.flows_completed(), 2u);
  EXPECT_EQ(net.total_bytes_completed(), 3'000u);
}

TEST_F(NetFixture, FlowRateVisibleWhileTransferring) {
  const LinkId a = net.add_link("a", 1e9);
  const FlowId id = net.start_flow({a}, 1'000'000'000, 0, [](FlowId) {});
  engine.run_until(util::seconds(0.1));
  EXPECT_NEAR(net.flow_rate(id), 1e9, 1e6);
}

TEST_F(NetFixture, SameTickBurstTriggersSingleRecomputeBatch) {
  const LinkId hub = net.add_link("hub", 1e9);
  int completed = 0;
  for (int i = 0; i < 100; ++i) {
    net.start_flow({hub}, 10'000'000, 0, [&](FlowId) { ++completed; });
  }
  engine.run();
  EXPECT_EQ(completed, 100);
  // 100 x 10 MB = 1 GB over 1 GB/s -> ~1 s regardless of batching.
  EXPECT_NEAR(util::to_seconds(engine.now()), 1.0, 0.05);
}

TEST_F(NetFixture, CancelDuringSetupPhaseIsClean) {
  const LinkId a = net.add_link("a", 1e9);
  bool fired = false;
  const FlowId id = net.start_flow({a}, 1'000'000, util::seconds(5.0),
                                   [&](FlowId) { fired = true; });
  engine.schedule_at(util::seconds(1.0), [&] { net.cancel_flow(id); });
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_EQ(net.link_stats(a).bytes_carried, 0u);
}

TEST_F(NetFixture, ThreeLinkPathBottlenecksOnNarrowest) {
  const LinkId a = net.add_link("a", 4e9);
  const LinkId b = net.add_link("b", 1e9);  // narrowest
  const LinkId c = net.add_link("c", 2e9);
  Tick done = -1;
  net.start_flow({a, b, c}, 1'000'000'000, 0,
                 [&](FlowId) { done = engine.now(); });
  engine.run();
  EXPECT_NEAR(util::to_seconds(done), 1.0, 0.01);
}

TEST_F(NetFixture, CancelUnknownFlowIsNoop) {
  net.cancel_flow(999);
  net.cancel_flow(kInvalidFlow);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST_F(NetFixture, StaggeredArrivalsSettleProgressCorrectly) {
  // Flow A runs alone for 0.5 s (0.5 GB done), then B joins and halves
  // A's rate: A finishes its second 0.5 GB in 1 s -> total 1.5 s.
  const LinkId shared = net.add_link("shared", 1e9);
  Tick a_done = -1;
  net.start_flow({shared}, 1'000'000'000, 0,
                 [&](FlowId) { a_done = engine.now(); });
  engine.schedule_at(util::seconds(0.5), [&] {
    net.start_flow({shared}, 2'000'000'000, 0, [](FlowId) {});
  });
  engine.run();
  EXPECT_NEAR(util::to_seconds(a_done), 1.5, 0.02);
}

// --- fractional-byte settle residue (regression) -------------------------

TEST_F(NetFixture, SettleResidueNeverLosesBytes) {
  // A 3-way split of 1 GB/s gives each flow 333333333.33... B/s, so every
  // settle produces a fractional byte. Joining/leaving flows force many
  // settles at awkward instants; at the end the link must have carried
  // exactly the bytes that completed — the residue is carried per flow,
  // not truncated per settle.
  const LinkId shared = net.add_link("shared", 1e9);
  const std::uint64_t bytes = 100'000'007;  // prime: no clean divisions
  int completed = 0;
  for (int i = 0; i < 3; ++i) {
    net.start_flow({shared}, bytes, 0, [&](FlowId) { ++completed; });
  }
  // Churn: short flows join at odd ticks and force settles at fractional
  // progress points.
  for (int i = 0; i < 7; ++i) {
    engine.schedule_at(util::seconds(0.013 * (i + 1)), [&] {
      net.start_flow({shared}, 1'000'003, 0, [&](FlowId) { ++completed; });
    });
  }
  engine.run();
  EXPECT_EQ(completed, 10);
  EXPECT_EQ(net.total_bytes_completed(), 3 * bytes + 7 * 1'000'003ULL);
  // Exact, not NEAR: completed flows attribute precisely their size.
  EXPECT_EQ(net.link_stats(shared).bytes_carried, net.total_bytes_completed());
}

// --- cancelled/failed flow accounting (regression) -----------------------

TEST_F(NetFixture, CancelAccountingInvariantHolds) {
  // Invariant: completed bytes + abandoned bytes == bytes the link carried.
  const LinkId shared = net.add_link("shared", 1e9);
  int completed = 0;
  const FlowId victim =
      net.start_flow({shared}, 1'000'000'000, 0, [&](FlowId) { ++completed; });
  net.start_flow({shared}, 400'000'000, 0, [&](FlowId) { ++completed; });
  engine.schedule_at(util::seconds(0.3), [&] { net.cancel_flow(victim); });
  engine.run();
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(net.flows_cancelled(), 1u);
  // Victim carried 150 MB (half of 1 GB/s for 0.3 s) before the cancel.
  EXPECT_NEAR(static_cast<double>(net.bytes_abandoned()), 150e6, 1.0);
  EXPECT_EQ(net.link_stats(shared).bytes_carried,
            net.total_bytes_completed() + net.bytes_abandoned());
}

TEST_F(NetFixture, CancelDuringSetupAbandonsNothing) {
  const LinkId a = net.add_link("a", 1e9);
  const FlowId id = net.start_flow({a}, 1'000'000, util::seconds(5.0),
                                   [](FlowId) {});
  engine.schedule_at(util::seconds(1.0), [&] { net.cancel_flow(id); });
  engine.run();
  EXPECT_EQ(net.flows_cancelled(), 1u);
  EXPECT_EQ(net.bytes_abandoned(), 0u);
}

// --- fault-injection hooks ----------------------------------------------

TEST_F(NetFixture, FailFlowFiresListenerNotDone) {
  const LinkId a = net.add_link("a", 1e9);
  bool done_fired = false;
  FlowId failed = kInvalidFlow;
  net.set_fail_listener([&](FlowId id) { failed = id; });
  const FlowId id = net.start_flow({a}, 1'000'000'000, 0,
                                   [&](FlowId) { done_fired = true; });
  engine.schedule_at(util::seconds(0.2), [&] { net.fail_flow(id); });
  engine.run();
  EXPECT_FALSE(done_fired);
  EXPECT_EQ(failed, id);
  EXPECT_EQ(net.flows_failed(), 1u);
  EXPECT_EQ(net.flows_completed(), 0u);
  EXPECT_EQ(net.link_stats(a).bytes_carried, net.bytes_abandoned());
}

TEST_F(NetFixture, ArmedFaultFiresAtExactByteOffset) {
  const LinkId a = net.add_link("a", 1e9);
  Tick failed_at = -1;
  net.set_fail_listener([&](FlowId) { failed_at = engine.now(); });
  const FlowId id = net.start_flow({a}, 1'000'000'000, 0, [](FlowId) {});
  net.arm_flow_fault(id, 250'000'000);
  engine.run();
  // 250 MB at 1 GB/s: dies at 0.25 s having carried exactly 250 MB.
  EXPECT_NEAR(util::to_seconds(failed_at), 0.25, 0.001);
  EXPECT_EQ(net.bytes_abandoned(), 250'000'000u);
  EXPECT_EQ(net.flows_failed(), 1u);
}

TEST_F(NetFixture, LinkOutageStallsFlowUntilRestored) {
  const LinkId a = net.add_link("a", 1e9);
  Tick done = -1;
  net.start_flow({a}, 500'000'000, 0, [&](FlowId) { done = engine.now(); });
  engine.schedule_at(util::seconds(0.2), [&] { net.set_link_scale(a, 0.0); });
  engine.schedule_at(util::seconds(0.7), [&] { net.set_link_scale(a, 1.0); });
  engine.run();
  // 200 MB before the outage, stalled 0.5 s, 300 MB after: 1.0 s total.
  EXPECT_NEAR(util::to_seconds(done), 1.0, 0.01);
}

TEST_F(NetFixture, BrownoutScalesRateByFactor) {
  const LinkId a = net.add_link("a", 1e9);
  net.set_link_scale(a, 0.25);
  Tick done = -1;
  net.start_flow({a}, 500'000'000, 0, [&](FlowId) { done = engine.now(); });
  engine.run();
  EXPECT_NEAR(util::to_seconds(done), 2.0, 0.02);
  EXPECT_EQ(net.link_scale(a), 0.25);
}

// --- slot-map flow table -------------------------------------------------

TEST_F(NetFixture, FlowIdsStayUniqueAndValidAcrossSlotReuse) {
  // Waves of short flows force slot recycling while older ids retire; ids
  // must stay unique, stale lookups must miss, and the live count must
  // return to zero.
  const LinkId a = net.add_link("a", 1e9);
  std::vector<FlowId> ids;
  int completed = 0;
  for (int wave = 0; wave < 5; ++wave) {
    engine.schedule_at(wave * 10'000, [&] {
      for (int i = 0; i < 8; ++i) {
        ids.push_back(
            net.start_flow({a}, 1'000'000, 0, [&](FlowId) { ++completed; }));
      }
    });
  }
  engine.run();
  EXPECT_EQ(completed, 40);
  const std::set<FlowId> unique(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), 40u);
  for (FlowId id : ids) {
    EXPECT_FALSE(net.flow_active(id));
    EXPECT_EQ(net.flow_rate(id), 0.0);
  }
  EXPECT_EQ(net.active_flows(), 0u);
}

// Cancelling a flow destroys its done callback, and with it the last copy
// of a gate token. The token admits the gate's next starter right there,
// from inside destroy_flow; that starter opening enough flows to grow the
// slot table must not pull the table out from under the cancellation.
TEST_F(NetFixture, GateStarterReenteredFromCancelMayGrowFlowTable) {
  const LinkId a = net.add_link("a", 1e9);
  FlowGate gate(1);
  FlowId first = kInvalidFlow;
  gate.submit([&](FlowGate::SlotToken token) {
    first = net.start_flow({a}, 1'000'000, 0,
                           [token = std::move(token)](FlowId) {});
  });
  std::vector<FlowId> started;
  gate.submit([&](FlowGate::SlotToken) {
    for (int i = 0; i < 256; ++i) {
      started.push_back(net.start_flow({a}, 1'000, 0, [](FlowId) {}));
    }
  });
  ASSERT_TRUE(started.empty()) << "second starter waits for the slot";
  net.cancel_flow(first);
  EXPECT_EQ(started.size(), 256u);
  EXPECT_EQ(net.active_flows(), 256u);
  engine.run();
  EXPECT_EQ(net.flows_completed(), 256u);
  EXPECT_EQ(net.flows_cancelled(), 1u);
}

TEST_F(NetFixture, IncrementalRecomputeVisitsOnlyTouchedComponent) {
  // A long flow on link `a` and churn on disjoint link `b`: the long
  // flow's component is untouched by the churn, so after its initial
  // rating it is never settle-checked again. The reference path would
  // visit it on every one of the ~100 recomputes.
  const LinkId a = net.add_link("a", 1e9);
  const LinkId b = net.add_link("b", 1e9);
  int completed = 0;
  net.start_flow({a}, 2'000'000'000, 0, [&](FlowId) { ++completed; });
  for (int i = 0; i < 50; ++i) {
    engine.schedule_at(10'000 * (i + 1), [&] {
      net.start_flow({b}, 1'000'000, 0, [&](FlowId) { ++completed; });
    });
  }
  engine.run();
  EXPECT_EQ(completed, 51);
  // One visit for the long flow, one per short-flow arrival (departure
  // recomputes find an empty component).
  EXPECT_LE(net.recompute_flow_visits(), 51u + 5u);
}

// --- recompute-path parity: both paths must pass the same regressions ----

class RecomputePathParam : public ::testing::TestWithParam<bool> {
 protected:
  sim::Engine engine;
  Network net{engine, NetworkOptions{GetParam()}};
};

TEST_P(RecomputePathParam, ArmedFaultInsideResidualBytesStillFails) {
  // Three equal flows split 1 GB/s at 1e9/3 B/s each, so at t = 3.0 s
  // every flow has settled to a sub-half-byte residue while its completion
  // event sits one tick later (ceil rounding). A fourth flow arriving at
  // exactly 3.0 s forces a recompute that lands all three in the
  // finish-immediately branch. Flow A is armed to die on its final byte:
  // the armed failure must win there — a transfer injected to die in its
  // last bytes must not slip through as a completion.
  const LinkId shared = net.add_link("shared", 1e9);
  const std::uint64_t bytes = 1'000'000'000;
  bool a_done = false;
  FlowId a_failed = kInvalidFlow;
  Tick failed_at = -1;
  net.set_fail_listener([&](FlowId id) {
    a_failed = id;
    failed_at = engine.now();
  });
  int others_done = 0;
  const FlowId a =
      net.start_flow({shared}, bytes, 0, [&](FlowId) { a_done = true; });
  net.start_flow({shared}, bytes, 0, [&](FlowId) { ++others_done; });
  net.start_flow({shared}, bytes, 0, [&](FlowId) { ++others_done; });
  net.arm_flow_fault(a, bytes);
  engine.schedule_at(3'000'000, [&] {
    net.start_flow({shared}, bytes, 0, [&](FlowId) { ++others_done; });
  });
  engine.run();
  EXPECT_FALSE(a_done);
  EXPECT_EQ(a_failed, a);
  EXPECT_EQ(failed_at, 3'000'000);
  EXPECT_EQ(net.flows_failed(), 1u);
  EXPECT_EQ(others_done, 3);
  EXPECT_EQ(net.flows_completed(), 3u);
  // The armed flow abandons (essentially) all of its bytes, and the link
  // accounting invariant still holds exactly.
  EXPECT_NEAR(static_cast<double>(net.bytes_abandoned()), 1e9, 2.0);
  EXPECT_EQ(net.link_stats(shared).bytes_carried,
            net.total_bytes_completed() + net.bytes_abandoned());
}

TEST_P(RecomputePathParam, StarvedFlowIsRescuedNotHung) {
  // Force the defensive water-filling break (via the test seam) with a
  // transferring flow still unrated. Without the rescue path nothing ever
  // schedules an event for the flow and the run hangs; with it the
  // network warns, re-dirties the flow's links, and re-rates it one tick
  // later.
  const LinkId a = net.add_link("a", 1e9);
  Tick done_at = -1;
  std::vector<std::pair<Tick, FlowId>> warns;
  net.set_warn_listener([&](Tick t, FlowId f, const char*) {
    warns.emplace_back(t, f);
  });
  const FlowId id = net.start_flow({a}, 1'000'000, 0,
                                   [&](FlowId) { done_at = engine.now(); });
  net.debug_starve_next_water_fill();
  engine.run();
  EXPECT_EQ(net.starvation_rescues(), 1u);
  ASSERT_EQ(warns.size(), 1u);
  EXPECT_EQ(warns[0].first, 0);
  EXPECT_EQ(warns[0].second, id);
  // Rescued at tick 1, then 1 MB at 1 GB/s.
  EXPECT_EQ(done_at, 1 + util::transfer_time(1'000'000, 1e9));
  EXPECT_EQ(net.flows_completed(), 1u);
}

INSTANTIATE_TEST_SUITE_P(RecomputePaths, RecomputePathParam, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& pinfo) {
                           return pinfo.param ? "Incremental" : "Reference";
                         });

class FlowCountParam : public ::testing::TestWithParam<int> {};

TEST_P(FlowCountParam, AggregateThroughputConservedUnderSharing) {
  // Property: N equal flows through one link finish in N * (bytes/bw),
  // i.e. the link is never over- or under-committed.
  sim::Engine engine;
  Network net(engine);
  const LinkId hub = net.add_link("hub", 1e9);
  const int n = GetParam();
  int completed = 0;
  for (int i = 0; i < n; ++i) {
    net.start_flow({hub}, 50'000'000, 0, [&](FlowId) { ++completed; });
  }
  engine.run();
  EXPECT_EQ(completed, n);
  EXPECT_NEAR(util::to_seconds(engine.now()), 0.05 * n, 0.002 * n + 0.01);
}

INSTANTIATE_TEST_SUITE_P(Sharing, FlowCountParam,
                         ::testing::Values(1, 2, 4, 8, 16, 64));

}  // namespace
}  // namespace hepvine::net
