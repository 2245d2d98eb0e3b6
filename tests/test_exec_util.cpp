#include <gtest/gtest.h>

#include "exec/serial_resource.h"
#include "net/flow_gate.h"
#include "sim/engine.h"

namespace hepvine {
namespace {

using util::Tick;

TEST(SerialResource, ServesFifoWithQueueing) {
  sim::Engine engine;
  exec::SerialResource res(engine);
  std::vector<Tick> done;
  res.acquire_then(util::seconds(1), [&] { done.push_back(engine.now()); });
  res.acquire_then(util::seconds(2), [&] { done.push_back(engine.now()); });
  res.acquire_then(util::seconds(1), [&] { done.push_back(engine.now()); });
  engine.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], util::seconds(1));
  EXPECT_EQ(done[1], util::seconds(3));
  EXPECT_EQ(done[2], util::seconds(4));
}

TEST(SerialResource, IdleGapsDoNotAccumulate) {
  sim::Engine engine;
  exec::SerialResource res(engine);
  Tick done = 0;
  engine.schedule_at(util::seconds(10), [&] {
    res.acquire_then(util::seconds(1), [&] { done = engine.now(); });
  });
  engine.run();
  EXPECT_EQ(done, util::seconds(11));
}

TEST(SerialResource, BacklogReflectsQueuedWork) {
  sim::Engine engine;
  exec::SerialResource res(engine);
  res.acquire(util::seconds(5));
  EXPECT_EQ(res.backlog(), util::seconds(5));
  EXPECT_EQ(res.total_busy_time(), util::seconds(5));
  EXPECT_EQ(res.operations(), 1u);
  engine.run_until(util::seconds(2));
  EXPECT_EQ(res.backlog(), util::seconds(3));
}

TEST(FlowGate, LimitsConcurrency) {
  net::FlowGate gate(2);
  std::vector<net::FlowGate::SlotToken> held;
  int started = 0;
  for (int i = 0; i < 5; ++i) {
    gate.submit([&](net::FlowGate::SlotToken token) {
      ++started;
      held.push_back(std::move(token));
    });
  }
  EXPECT_EQ(started, 2);
  EXPECT_EQ(gate.active(), 2u);
  EXPECT_EQ(gate.queued(), 3u);
  // Release one slot (move the token out first: releasing admits a new
  // starter that appends to `held`, so never destroy in-place).
  auto release_one = [&held] {
    net::FlowGate::SlotToken token = std::move(held.front());
    held.erase(held.begin());
    token.reset();
  };
  release_one();
  EXPECT_EQ(started, 3);
  while (!held.empty()) release_one();
  EXPECT_EQ(started, 5);
  EXPECT_EQ(gate.active(), 0u);
}

TEST(FlowGate, DroppingTokenInsideStarterAdmitsNext) {
  net::FlowGate gate(1);
  int ran = 0;
  for (int i = 0; i < 100; ++i) {
    gate.submit([&](net::FlowGate::SlotToken) { ++ran; });  // drop at once
  }
  EXPECT_EQ(ran, 100) << "synchronous drops must drain the queue iteratively";
  EXPECT_EQ(gate.active(), 0u);
}

TEST(FlowGate, UnboundedRunsImmediately) {
  net::FlowGate gate(0);
  int ran = 0;
  std::vector<net::FlowGate::SlotToken> held;
  for (int i = 0; i < 10; ++i) {
    gate.submit([&](net::FlowGate::SlotToken token) {
      ++ran;
      held.push_back(std::move(token));
    });
  }
  EXPECT_EQ(ran, 10);
}

TEST(FlowGate, TokensOutliveGateObject) {
  net::FlowGate::SlotToken survivor;
  {
    net::FlowGate gate(1);
    gate.submit([&](net::FlowGate::SlotToken token) {
      survivor = std::move(token);
    });
  }
  survivor.reset();  // must not touch freed memory (state is shared-owned)
  SUCCEED();
}

// The teardown hazard: a flow the network destroys after its run holds
// the last token of a gate the run owned. Releasing it must not start a
// queued starter, which would call into the dead run.
TEST(FlowGate, TokenReleasedAfterGateDiesStartsNoQueuedStarter) {
  net::FlowGate::SlotToken survivor;
  bool queued_ran = false;
  {
    net::FlowGate gate(1);
    gate.submit([&](net::FlowGate::SlotToken token) {
      survivor = std::move(token);
    });
    gate.submit([&](net::FlowGate::SlotToken) { queued_ran = true; });
    EXPECT_EQ(gate.queued(), 1u);
  }
  survivor.reset();
  EXPECT_FALSE(queued_ran);
}

TEST(FlowGate, ClosedGateOnlyReturnsSlots) {
  net::FlowGate gate(1);
  net::FlowGate::SlotToken held;
  int started = 0;
  gate.submit([&](net::FlowGate::SlotToken token) {
    ++started;
    held = std::move(token);
  });
  gate.submit([&](net::FlowGate::SlotToken) { ++started; });
  gate.close();
  held.reset();
  EXPECT_EQ(started, 1) << "a closed gate admits nothing";
  EXPECT_EQ(gate.active(), 0u) << "but the released slot came back";
  gate.submit([&](net::FlowGate::SlotToken) { ++started; });
  EXPECT_EQ(started, 1);
}

TEST(FlowGate, CopiedTokensHoldTheSlotUntilLastCopyDies) {
  net::FlowGate gate(1);
  int started = 0;
  net::FlowGate::SlotToken a;
  gate.submit([&](net::FlowGate::SlotToken token) {
    ++started;
    a = token;  // copy
  });
  net::FlowGate::SlotToken b = a;
  gate.submit([&](net::FlowGate::SlotToken) { ++started; });
  EXPECT_EQ(started, 1);
  a.reset();
  EXPECT_EQ(started, 1) << "second copy still holds the slot";
  b.reset();
  EXPECT_EQ(started, 2);
}

}  // namespace
}  // namespace hepvine
