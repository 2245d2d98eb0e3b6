// Node-local object store tests: the bookkeeping core (put/ref/spill/drop
// lifecycle, LRU victim order, holder uniqueness), the vine integration
// (zero-copy colocated exchange, forced spill for remote consumers, inert
// when disabled), and the adversarial eviction-vs-live-reference contract:
// an object a running consumer holds by reference must never be the
// capacity-spill victim, and once a forced spill materializes a disk copy
// the consumer's dispatch-time pin shields it from pressure eviction.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "dag/task_graph.h"
#include "dag/value.h"
#include "exec/scheduler.h"
#include "objstore/object_store.h"
#include "obs/observer.h"
#include "obs/txn_query.h"
#include "scheduler_test_util.h"
#include "vine/vine_scheduler.h"

namespace hepvine::vine {
namespace {

using namespace hepvine::testutil;
using objstore::ObjectStore;

// ---------------------------------------------------------------------
// Bookkeeping core
// ---------------------------------------------------------------------

TEST(ObjectStore, PutRefSpillVictimLifecycle) {
  ObjectStore store;
  store.reset(/*nodes=*/2, /*capacity_bytes=*/100);

  store.put(0, /*file=*/5, /*bytes=*/40, /*now=*/10);
  EXPECT_TRUE(store.holds(0, 5));
  EXPECT_FALSE(store.holds(1, 5));
  EXPECT_EQ(store.holder_of(5), 0);
  EXPECT_EQ(store.object_bytes(0, 5), 40u);
  EXPECT_EQ(store.used(0), 40u);
  EXPECT_FALSE(store.over_capacity(0));

  store.put(0, /*file=*/3, /*bytes=*/70, /*now=*/20);
  EXPECT_EQ(store.used(0), 110u);
  EXPECT_TRUE(store.over_capacity(0));

  // LRU: the older unreferenced object is the victim.
  EXPECT_EQ(store.spill_victim(0), 5);

  // A live reference exempts an object from victim selection; when every
  // resident object is referenced there is no victim at all (the store
  // tolerates running over budget rather than destroying live state).
  store.add_ref(0, 5);
  EXPECT_EQ(store.spill_victim(0), 3);
  store.add_ref(0, 3);
  EXPECT_EQ(store.spill_victim(0), data::kInvalidFile);
  store.release_ref(0, 5);
  EXPECT_EQ(store.spill_victim(0), 5);

  EXPECT_TRUE(store.erase(0, 5));
  EXPECT_FALSE(store.erase(0, 5));  // already gone
  EXPECT_EQ(store.holder_of(5), objstore::kNoHolder);
  EXPECT_EQ(store.used(0), 70u);
  EXPECT_EQ(store.total_objects(), 1u);

  EXPECT_EQ(store.counters().puts, 2u);
  EXPECT_EQ(store.counters().put_bytes, 110u);
  EXPECT_EQ(store.counters().ref_hits, 2u);
}

TEST(ObjectStore, VictimTiebreakIsSmallestFileId) {
  ObjectStore store;
  store.reset(1, 10);
  store.put(0, 7, 4, /*now=*/5);
  store.put(0, 2, 4, /*now=*/5);  // same put_at: id breaks the tie
  EXPECT_EQ(store.spill_victim(0), 2);
}

TEST(ObjectStore, ReleaseAfterDropIsTolerated) {
  ObjectStore store;
  store.reset(3, 100);
  store.put(1, 8, 10, 1);
  store.put(1, 9, 10, 2);
  store.add_ref(1, 8);
  // The holder died: its objects are dropped one by one, refs or not.
  EXPECT_TRUE(store.erase(1, 8));
  EXPECT_TRUE(store.erase(1, 9));
  EXPECT_EQ(store.total_objects(), 0u);
  EXPECT_EQ(store.used(1), 0u);
  EXPECT_EQ(store.holder_of(8), objstore::kNoHolder);
  // Release after the drop must be tolerated: the consumer attempt that
  // held the handle dies asynchronously.
  store.release_ref(1, 8);
  EXPECT_EQ(store.spill_victim(1), data::kInvalidFile);
}

TEST(ObjectStore, ObjectsIterateInAscendingFileOrder) {
  ObjectStore store;
  store.reset(2, 1000);
  store.put(1, 9, 1, 3);
  store.put(0, 4, 2, 1);
  store.put(1, 6, 3, 2);
  const auto items = store.objects();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].file, 4);
  EXPECT_EQ(items[0].holder, 0);
  EXPECT_EQ(items[1].file, 6);
  EXPECT_EQ(items[2].file, 9);
  EXPECT_EQ(items[2].entry.bytes, 1u);
}

// ---------------------------------------------------------------------
// Vine integration: serverless runs with the store on and off
// ---------------------------------------------------------------------

struct StoreRun {
  exec::RunReport report;
  std::string txn;
};

[[nodiscard]] exec::RunOptions store_options() {
  exec::RunOptions options = fast_options();
  options.mode = exec::ExecMode::kFunctionCalls;
  options.exec_time_jitter = 0.0;  // makespan deltas are structural
  options.observability.enabled = true;
  options.observability.txn_log = true;
  options.observability.perf_log = false;
  options.observability.chrome_trace = false;
  return options;
}

[[nodiscard]] StoreRun run_store(const apps::WorkloadSpec& workload,
                                 bool object_store,
                                 std::uint64_t capacity = 4 * util::kGiB,
                                 std::uint32_t workers = 4) {
  const dag::TaskGraph graph = apps::build_workload(workload, 3);
  cluster::Cluster cluster(tiny_cluster(workers));
  VineTunables tun;
  tun.object_store = object_store;
  tun.object_store_bytes = capacity;
  VineScheduler scheduler(taskvine_policy(), tun);
  StoreRun out;
  out.report = scheduler.run(graph, cluster, store_options());
  out.txn = out.report.observation->txn().text();
  return out;
}

TEST(ObjectStoreRun, ZeroCopyExchangeKeepsResultsAndIsNotSlower) {
  const apps::WorkloadSpec workload = tiny_dv3();
  const auto on = run_store(workload, /*object_store=*/true);
  const auto off = run_store(workload, /*object_store=*/false);
  ASSERT_TRUE(on.report.success) << on.report.failure_reason;
  ASSERT_TRUE(off.report.success) << off.report.failure_reason;

  // Same physics either way.
  const auto expected =
      reference_digest(apps::build_workload(workload, 3));
  EXPECT_EQ(sink_digest(on.report), expected);
  EXPECT_EQ(sink_digest(off.report), expected);

  // Dropping serialization and the scratch-disk write from every
  // colocated exchange must not cost wall-clock time.
  EXPECT_LE(on.report.makespan, off.report.makespan);

  // The store actually carried traffic: outputs published in memory,
  // colocated consumers took references, and remote consumers forced
  // spills onto the ordinary replica/peer-transfer paths.
  EXPECT_GT(on.report.store_puts, 0u);
  EXPECT_GT(on.report.store_put_bytes, 0u);
  EXPECT_GT(on.report.store_ref_hits, 0u);
  EXPECT_GT(on.report.store_spills, 0u);

  // Txn verbs agree with the report counters.
  const auto events = obs::txnq::parse_log(on.txn);
  const auto ss = obs::txnq::store_summary(events);
  EXPECT_EQ(ss.puts, on.report.store_puts);
  EXPECT_EQ(ss.refs, on.report.store_ref_hits);
  EXPECT_EQ(ss.spills, on.report.store_spills);
  EXPECT_EQ(ss.drops, on.report.store_drops);
}

// A preempted holder's in-memory objects die with it, and each must still
// close its PUT with a counted DROP: the ledger balances under holder loss
// exactly as it does without it.
TEST(ObjectStoreRun, HolderLossDropsKeepTheLedgerBalanced) {
  const apps::WorkloadSpec workload = tiny_dv3();
  const dag::TaskGraph graph = apps::build_workload(workload, 3);
  cluster::Cluster cluster(tiny_cluster(/*workers=*/4,
                                        /*preempt_per_hour=*/120.0));
  VineTunables tun;
  tun.object_store = true;
  VineScheduler scheduler(taskvine_policy(), tun);
  const exec::RunReport report =
      scheduler.run(graph, cluster, store_options());
  ASSERT_TRUE(report.success) << report.failure_reason;
  EXPECT_EQ(sink_digest(report), reference_digest(graph));
  EXPECT_GT(report.worker_preemptions, 0u);
  EXPECT_EQ(report.store_puts, report.store_spills + report.store_drops);

  const auto events =
      obs::txnq::parse_log(report.observation->txn().text());
  const auto ss = obs::txnq::store_summary(events);
  EXPECT_EQ(ss.puts, ss.spills + ss.drops);
  EXPECT_EQ(ss.drops, report.store_drops);

  // Not vacuous: some DROP lands on the tick its holder disconnected.
  std::set<std::pair<util::Tick, std::string>> disconnects;
  for (const auto& e : events) {
    if (e.subject == "WORKER" && e.verb == "DISCONNECTION") {
      disconnects.emplace(e.t, std::to_string(e.id));
    }
  }
  std::size_t holder_loss_drops = 0;
  for (const auto& e : events) {
    if (e.subject == "STORE" && e.verb == "DROP" && e.rest.size() >= 2 &&
        disconnects.count({e.t, e.rest[1]}) != 0) {
      ++holder_loss_drops;
    }
  }
  EXPECT_GT(holder_loss_drops, 0u);
}

TEST(ObjectStoreRun, StoreOffIsInert) {
  const auto off = run_store(tiny_dv3(), /*object_store=*/false);
  ASSERT_TRUE(off.report.success) << off.report.failure_reason;
  EXPECT_EQ(off.report.store_puts, 0u);
  EXPECT_EQ(off.report.store_put_bytes, 0u);
  EXPECT_EQ(off.report.store_ref_hits, 0u);
  EXPECT_EQ(off.report.store_spills, 0u);
  EXPECT_EQ(off.report.store_spill_bytes, 0u);
  EXPECT_EQ(off.report.store_drops, 0u);
  EXPECT_EQ(off.txn.find(" STORE "), std::string::npos)
      << "a disabled store must not emit STORE transactions";
}

TEST(ObjectStoreRun, TinyCapacityForcesSpillEverythingAndStaysCorrect) {
  // A 1 MB budget cannot hold a single 30 MB process output: every put
  // immediately self-spills to disk and the run degrades gracefully to
  // the classic disk path.
  const apps::WorkloadSpec workload = tiny_dv3();
  const auto run = run_store(workload, /*object_store=*/true,
                             /*capacity=*/1 * util::kMB);
  ASSERT_TRUE(run.report.success) << run.report.failure_reason;
  EXPECT_EQ(sink_digest(run.report),
            reference_digest(apps::build_workload(workload, 3)));
  EXPECT_GT(run.report.store_puts, 0u);
  EXPECT_EQ(run.report.store_spills, run.report.store_puts)
      << "every object overflows a 1 MB budget the moment it is put";
}

// ---------------------------------------------------------------------
// Eviction vs. live references (the satellite-3 regression)
// ---------------------------------------------------------------------

dag::ValuePtr scalar(double v) {
  return std::make_shared<dag::ScalarValue>(v);
}

struct PressureFixture {
  dag::TaskGraph graph;
  dag::TaskId tp = 0;   // producer whose output stays live-referenced
  dag::TaskId tp2 = 0;  // producer whose output overflows the store
};

/// One paper worker (108 GB scratch), a 32 MB store, and two dataset
/// chunks that cannot coexist on disk:
///
///   P  (no inputs, 30 MB out) ------+
///   A  (chunk0 60 GB, 1 MB out) --+ |
///                                 | v
///   P2 (dep A, 1 s, 30 MB out)    B (deps only, 3 s: by-reference)
///        |                        |
///        +----------------------> D (chunk1 50 GB)
///                                 |
///                                 E (chunk0 again, sink)
///
/// B is a pure in-memory consumer: it dispatches the moment A finishes,
/// takes by-reference handles on P's and A's outputs, and computes for
/// 3 s. P2 runs concurrently and completes first; its 30 MB put
/// overflows the 32 MB budget — victim selection must skip the
/// referenced P output (and the referenced A output) and spill P2's own
/// output instead. D then stages chunk1 next to the still-live chunk0,
/// forcing a pressure eviction against a disk that also holds the
/// spilled, consumer-pinned copy of P2's output; E re-stages chunk0 into
/// the reclaimed space.
PressureFixture pressure_fixture() {
  PressureFixture fx;
  const data::FileId chunk0 =
      fx.graph.add_input_file("chunk0", 60 * util::kGB, /*content_seed=*/201);
  const data::FileId chunk1 =
      fx.graph.add_input_file("chunk1", 50 * util::kGB, /*content_seed=*/202);

  dag::TaskSpec p;
  p.category = "produce";
  p.function = "produce";
  p.cpu_seconds = 0.2;
  p.output_bytes = 30 * util::kMB;
  p.fn = [](const std::vector<dag::ValuePtr>&) { return scalar(2.0); };
  fx.tp = fx.graph.add_task(p);

  dag::TaskSpec a;
  a.category = "scan";
  a.function = "scan";
  a.input_files = {chunk0};
  a.cpu_seconds = 0.3;
  a.output_bytes = 1 * util::kMB;
  a.fn = [](const std::vector<dag::ValuePtr>&) { return scalar(3.0); };
  const dag::TaskId ta = fx.graph.add_task(a);

  dag::TaskSpec b;
  b.category = "combine";
  b.function = "combine";
  b.deps = {fx.tp, ta};  // no dataset inputs: a by-reference FunctionCall
  b.cpu_seconds = 3.0;
  b.output_bytes = 1 * util::kMB;
  b.fn = [](const std::vector<dag::ValuePtr>& in) {
    return scalar(dynamic_cast<const dag::ScalarValue&>(*in[0]).get() +
                  dynamic_cast<const dag::ScalarValue&>(*in[1]).get() + 1.0);
  };
  const dag::TaskId tb = fx.graph.add_task(b);

  dag::TaskSpec p2;
  p2.category = "produce";
  p2.function = "produce";
  p2.deps = {ta};
  p2.cpu_seconds = 1.0;
  p2.output_bytes = 30 * util::kMB;
  p2.fn = [](const std::vector<dag::ValuePtr>& in) {
    return scalar(dynamic_cast<const dag::ScalarValue&>(*in[0]).get() * 2.0);
  };
  fx.tp2 = fx.graph.add_task(p2);

  dag::TaskSpec d;
  d.category = "merge";
  d.function = "merge";
  d.deps = {tb, fx.tp2};
  d.input_files = {chunk1};
  d.cpu_seconds = 0.5;
  d.output_bytes = 1 * util::kMB;
  d.fn = [](const std::vector<dag::ValuePtr>& in) {
    return scalar(dynamic_cast<const dag::ScalarValue&>(*in[0]).get() +
                  dynamic_cast<const dag::ScalarValue&>(*in[1]).get());
  };
  const dag::TaskId td = fx.graph.add_task(d);

  dag::TaskSpec e;
  e.category = "merge";
  e.function = "merge";
  e.deps = {td};
  e.input_files = {chunk0};  // re-read after the eviction wave
  e.cpu_seconds = 0.2;
  e.output_bytes = 1 * util::kMB;
  e.fn = [](const std::vector<dag::ValuePtr>& in) {
    return scalar(dynamic_cast<const dag::ScalarValue&>(*in[0]).get() * 3.0);
  };
  fx.graph.add_task(e);
  return fx;
}

TEST(ObjectStoreRun, CapacitySpillSkipsLiveReferencesUnderDiskPressure) {
  PressureFixture fx = pressure_fixture();
  cluster::Cluster cluster(tiny_cluster(/*workers=*/1));
  VineTunables tun;
  tun.object_store = true;
  tun.object_store_bytes = 32 * util::kMB;
  VineScheduler scheduler(taskvine_policy(), tun);
  const auto report = scheduler.run(fx.graph, cluster, store_options());

  ASSERT_TRUE(report.success) << report.failure_reason;
  EXPECT_EQ(report.worker_crashes, 0u)
      << "spills and evictions must absorb both pressure waves";
  EXPECT_EQ(report.lineage_resets, 0u)
      << "no result may be destroyed while a consumer holds it";
  EXPECT_EQ(sink_digest(report), reference_digest(pressure_fixture().graph));

  // Both pressure mechanisms fired: the store overflowed exactly once
  // (P2's put) and the disk evicted a dataset chunk at least once.
  EXPECT_EQ(report.store_puts, 5u);  // P, A, B, P2, D outputs
  EXPECT_EQ(report.store_spills, 1u);
  EXPECT_EQ(report.store_spill_bytes, 30 * util::kMB);
  EXPECT_GE(report.store_ref_hits, 4u);
  EXPECT_GE(report.store_drops, 2u)
      << "unspilled outputs must die in memory via GC, never on disk";
  EXPECT_GE(report.cache_evictions, 1u);

  // The adversarial core, pinned down in the txn log: the overflow chose
  // P2's own (unreferenced) output, not the older P output B was holding
  // by reference — P's output never spilled and was dropped from memory
  // when B finished.
  ASSERT_TRUE(report.observation != nullptr);
  const std::string& txn = report.observation->txn().text();
  const std::string p_out = std::to_string(fx.graph.task(fx.tp).output_file);
  const std::string p2_out =
      std::to_string(fx.graph.task(fx.tp2).output_file);
  EXPECT_NE(txn.find(" STORE " + p2_out + " SPILL "), std::string::npos)
      << txn;
  EXPECT_EQ(txn.find(" STORE " + p_out + " SPILL "), std::string::npos)
      << "a live-referenced object was chosen as spill victim:\n" << txn;
  EXPECT_NE(txn.find(" STORE " + p_out + " DROP "), std::string::npos)
      << txn;
}

TEST(ObjectStoreRun, PressurePathIsDeterministic) {
  auto once = [] {
    PressureFixture fx = pressure_fixture();
    cluster::Cluster cluster(tiny_cluster(/*workers=*/1));
    VineTunables tun;
    tun.object_store = true;
    tun.object_store_bytes = 32 * util::kMB;
    VineScheduler scheduler(taskvine_policy(), tun);
    const auto report = scheduler.run(fx.graph, cluster, store_options());
    EXPECT_TRUE(report.success) << report.failure_reason;
    return report.observation->txn().text();
  };
  const std::string a = once();
  const std::string b = once();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace hepvine::vine
