// perfbench: one workload, one seed, one process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// --trace 0 measures the end-to-end metrics from untraced runs: it repeats
// passes over the workload's seed ensemble for about S host seconds and
// reports medians. --trace 1 reports the per-layer metrics from a single
// untraced pass plus two traced passes (txn log on), a replay of the
// recorded transfers and the physics alone, and fails unless the two traced
// passes agree byte for byte.
//
// Every simulated run is checked: its sink results must match
// dag::evaluate_serially on the same graph, and its object-store ledger,
// peer-slot balance and blame identity must hold. The last line of stdout
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// All host times are steady_clock seconds measured here, around public
// calls into the simulator; nothing under src/ is instrumented.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dag/evaluate.h"
#include "obs/attribution.h"
#include "obs/critical_path.h"
#include "replay.h"
#include "workloads.h"

namespace {

namespace hv = hepvine;
using perfbench::Workload;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// --- spans ----------------------------------------------------------------

/// Host-time spans the benchmark records around its calls into each layer,
/// kept in memory and written as a Chrome trace when a traced run ends.
class Spans {
 public:
  /// Open a span; returns its index for close().
  std::size_t open(std::string name) {
    const int parent = stack_.empty() ? -1 : static_cast<int>(stack_.back());
    spans_.push_back({std::move(name), now_s(), 0.0, parent});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  /// Close span `index` (the innermost open one); returns its duration.
  double close(std::size_t index) {
    spans_[index].end = now_s();
    stack_.pop_back();
    return spans_[index].end - spans_[index].start;
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": 1, \"ts\": %.1f, \"dur\": %.1f, "
                    "\"args\": {\"id\": %zu, \"parent\": %d}}",
                    s.name.c_str(), (s.start - t0) * 1e6,
                    (s.end - s.start) * 1e6, i, s.parent);
      out << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

Spans g_spans;

/// Time `fn` as a span named `name`; returns host seconds.
template <typename F>
double timed(const std::string& name, F&& fn) {
  const std::size_t span = g_spans.open(name);
  std::forward<F>(fn)();
  return g_spans.close(span);
}

// --- one simulated run ----------------------------------------------------

/// Exact per-layer counts of one run (or a sum over runs). Every entry is
/// an integer the simulator produces deterministically, so two runs of the
/// same seed must agree on all of them.
using Counts = std::map<std::string, std::int64_t>;

void add_counts(Counts& into, const Counts& from) {
  for (const auto& [key, value] : from) into[key] += value;
}

/// Sink digests of dag::evaluate_serially: what every run must reproduce.
using Reference = std::map<hv::dag::TaskId, hv::util::Digest128>;

/// The seed ensemble of one benchmark run, with each member's reference.
struct Ensemble {
  std::vector<std::uint64_t> graph_seeds;
  std::vector<std::uint64_t> member_seeds;
  std::vector<Reference> references;
  std::vector<double> eval_s;  // serial evaluation time per member

  Ensemble(const Workload& w, std::uint64_t seed) {
    std::map<std::uint64_t, std::pair<Reference, double>> by_graph;
    for (std::uint32_t m = 0; m < w.members; ++m) {
      const std::uint64_t gs = w.graph_seed(seed, m);
      graph_seeds.push_back(gs);
      member_seeds.push_back(w.member_seed(seed, m));
      auto it = by_graph.find(gs);
      if (it == by_graph.end()) {
        const hv::dag::TaskGraph graph = w.build_graph(gs);
        std::map<hv::dag::TaskId, hv::dag::ValuePtr> results;
        const double dt = timed("hep.eval", [&] {
          results = hv::dag::evaluate_serially(graph);
        });
        Reference ref;
        for (const auto& [task, value] : results) ref[task] = value->digest();
        it = by_graph.emplace(gs, std::make_pair(std::move(ref), dt)).first;
      }
      references.push_back(it->second.first);
      eval_s.push_back(it->second.second);
    }
  }
  [[nodiscard]] std::size_t size() const { return member_seeds.size(); }
};

struct RunResult {
  double graph_s = 0.0;
  double cluster_s = 0.0;
  double wall_s = 0.0;
  double analyze_s = 0.0;
  std::int64_t tasks_done = 0;
  std::string failure;  // empty when the run passed every check
  Counts counts;
};

/// One simulated run of ensemble member `m`: build the graph and the
/// cluster, run the scheduler, check the result and the run-end
/// invariants, and read every per-layer counter.
RunResult run_once(const Workload& w, const Ensemble& ens, std::size_t m,
                   const hv::obs::ObsConfig& observability) {
  const std::uint64_t graph_seed = ens.graph_seeds[m];
  const std::uint64_t member_seed = ens.member_seeds[m];
  const Reference& reference = ens.references[m];
  RunResult r;
  hv::dag::TaskGraph graph;
  r.graph_s = timed("apps.build", [&] { graph = w.build_graph(graph_seed); });
  std::unique_ptr<hv::cluster::Cluster> cluster;
  r.cluster_s = timed("cluster.build", [&] {
    cluster = std::make_unique<hv::cluster::Cluster>(w.cluster_spec());
  });
  hv::exec::RunOptions options =
      w.options(member_seed, static_cast<std::uint32_t>(m));
  options.observability = observability;
  const auto scheduler = w.scheduler();
  hv::exec::RunReport report;
  r.wall_s = timed(w.dask ? "dd.run" : "vine.run", [&] {
    report = scheduler->run(graph, *cluster, options);
  });

  hv::obs::AttributionLedger ledger;
  hv::obs::CriticalPath path;
  r.analyze_s = timed("obs.analyze", [&] {
    ledger = hv::obs::attribute(report.profile);
    path = hv::obs::extract_critical_path(report.profile);
  });

  if (!report.success) {
    r.failure = "run failed: " + report.failure_reason;
  } else if (report.results.size() != reference.size()) {
    r.failure = "sink count differs from the serial evaluation";
  } else {
    for (const auto& [task, value] : report.results) {
      const auto it = reference.find(task);
      if (it == reference.end() || value == nullptr ||
          value->digest() != it->second) {
        r.failure = "sink " + std::to_string(task) +
                    " differs from the serial evaluation";
        break;
      }
    }
  }
  if (r.failure.empty() &&
      report.store_puts != report.store_spills + report.store_drops) {
    r.failure = "object-store ledger does not balance";
  }
  if (r.failure.empty() && report.peer_slot_underflows != 0) {
    r.failure = "peer-slot underflow";
  }
  if (r.failure.empty() && !ledger.identity_ok()) {
    r.failure = "blame identity violated";
  }
  r.tasks_done = report.success ? static_cast<std::int64_t>(report.tasks_total)
                                : 0;

  const hv::net::Network& net = cluster->network();
  const auto u = [](auto v) { return static_cast<std::int64_t>(v); };
  Counts& c = r.counts;
  c["makespan_ticks"] = report.makespan;
  c["tasks"] = u(report.tasks_total);
  c["sim.events"] = u(cluster->engine().executed());
  c["net.recomputes"] = u(net.recomputes());
  c["net.flow_visits"] = u(net.recompute_flow_visits());
  c["net.flows_done"] = u(net.flows_completed());
  c["net.flows_cancelled"] = u(net.flows_cancelled());
  c["net.flows_failed"] = u(net.flows_failed());
  c["net.bytes_carried"] =
      u(net.total_bytes_completed() + net.bytes_abandoned());
  c["net.starvation_rescues"] = u(net.starvation_rescues());
  c["mgr.attempts"] = u(report.task_attempts);
  c["mgr.task_failures"] = u(report.task_failures);
  c["mgr.lineage_resets"] = u(report.lineage_resets);
  c["mgr.busy_ticks"] = ledger.manager_busy_ticks;
  c["mgr.ops"] = u(ledger.manager_ops);
  c["vine.cache_evictions"] = u(report.cache_evictions);
  c["vine.cache_gc_drops"] = u(report.cache_gc_drops);
  c["vine.peer_slot_underflows"] = u(report.peer_slot_underflows);
  c["objstore.puts"] = u(report.store_puts);
  c["objstore.ref_hits"] = u(report.store_ref_hits);
  c["objstore.spills"] = u(report.store_spills);
  c["objstore.drops"] = u(report.store_drops);
  c["fault.injected"] = u(report.faults.faults_injected);
  c["fault.transfers_killed"] = u(report.faults.transfers_killed);
  c["fault.worker_crashes"] = u(report.faults.worker_crashes);
  c["fault.transfer_giveups"] = u(report.faults.transfer_giveups);
  c["fault.backoff_ticks"] = report.faults.backoff_wait;
  c["ha.snapshots"] = u(report.ha.snapshots.size());
  std::int64_t snapshot_bytes = 0;
  for (const auto& s : report.ha.snapshots) snapshot_bytes += u(s.bytes);
  c["ha.snapshot_bytes"] = snapshot_bytes;
  c["blame.capacity"] = ledger.capacity;
  for (std::size_t b = 0; b < hv::obs::kBlameCount; ++b) {
    c[std::string("blame.") +
      hv::obs::to_string(static_cast<hv::obs::Blame>(b))] = ledger.ticks[b];
  }
  c["cp.length"] = path.realized_length();
  c["cp.transfer_wait"] = path.ticks[static_cast<std::size_t>(
      hv::obs::Blame::kTransferWait)];
  return r;
}

// --- the benchmark --------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string work_dir;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0') return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1" ? 1 : 0;
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0 &&
         args.trace >= 0 && !args.work_dir.empty();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, "
                  "\"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// --trace 0: repeat passes over the ensemble for about `seconds`.
int measure(const Workload& w, const Ensemble& ens, double seconds) {
  const std::size_t n = ens.size();
  std::vector<std::vector<double>> wall(n), setup(n);
  std::vector<std::int64_t> makespan(n, -1);
  std::int64_t tasks_per_pass = 0;
  double makespan_sum_s = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool deterministic = true;

  // Start another pass while at least half of it fits in the window, so a
  // run measures close to `seconds` whatever the pass length.
  const double start = now_s();
  for (std::size_t pass = 0;; ++pass) {
    const double pass_start = now_s();
    for (std::size_t m = 0; m < n; ++m) {
      const RunResult r = run_once(w, ens, m, {});
      ++attempted;
      if (!r.failure.empty()) {
        ++failed;
        std::fprintf(stderr, "run failed (member %zu): %s\n", m,
                     r.failure.c_str());
      }
      wall[m].push_back(r.wall_s);
      setup[m].push_back(r.graph_s + r.cluster_s);
      const std::int64_t ms = r.counts.at("makespan_ticks");
      if (pass == 0) {
        makespan[m] = ms;
        tasks_per_pass += r.tasks_done;
        makespan_sum_s += hv::util::to_seconds(ms);
      } else if (ms != makespan[m]) {
        deterministic = false;
      }
    }
    const double now = now_s();
    if (now - start + 0.5 * (now - pass_start) > seconds) break;
  }

  // Set-up alone is cheap: sample it a few more times for a steady median.
  constexpr std::size_t kSetupSamples = 7;
  for (std::size_t m = 0; m < n; ++m) {
    while (setup[m].size() < kSetupSamples) {
      const double t0 = now_s();
      const hv::dag::TaskGraph graph = w.build_graph(ens.graph_seeds[m]);
      const hv::cluster::Cluster cluster(w.cluster_spec());
      setup[m].push_back(now_s() - t0);
    }
  }

  double wall_s = 0.0;
  double setup_s = 0.0;
  for (std::size_t m = 0; m < n; ++m) {
    wall_s += median(wall[m]);
    setup_s += median(setup[m]);
  }
  if (!deterministic) {
    std::fprintf(stderr, "makespan differs between passes of one seed\n");
  }
  std::printf("%s: %zu simulated runs, %zu passes, wall %.3f s per pass\n",
              w.name.c_str(), attempted, wall[0].size(), wall_s);
  print_result(failed == 0 && deterministic, attempted, failed,
               {{"wall_s", wall_s, "s"},
                {"tasks_per_s", ratio(static_cast<double>(tasks_per_pass),
                                      wall_s),
                 "1/s"},
                {"setup_s", setup_s, "s"},
                {"peak_rss_mb", peak_rss_mb(), "MB"},
                {"sim_makespan_s", makespan_sum_s / static_cast<double>(n),
                 "s"}});
  return failed == 0 && deterministic ? 0 : 1;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// --trace 1: per-layer metrics from one untraced and two traced passes.
int trace(const Workload& w, const Ensemble& ens, const std::string& dir) {
  const std::size_t n = ens.size();
  Counts counts;
  double untraced_s = 0.0, traced_s = 0.0, analyze_s = 0.0;
  double apps_s = 0.0, cluster_s = 0.0, eval_s = 0.0;
  double replay_s = 0.0;
  std::int64_t replay_visits = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;

  for (std::size_t m = 0; m < n; ++m) {
    // runs[0] is untraced; runs[1] and runs[2] stream their txn logs.
    std::vector<RunResult> runs;
    runs.push_back(run_once(w, ens, m, {}));
    std::vector<std::string> logs;
    for (const char* tag : {"a", "b"}) {
      hv::obs::ObsConfig obs;
      obs.enabled = true;
      obs.txn_log = true;
      obs.perf_log = false;
      obs.chrome_trace = false;
      obs.txn_ring_capacity = 1024;  // the log streams to disk
      obs.txn_path = dir + "/" + w.name + "." + std::to_string(m) + "." +
                     tag + ".txn";
      runs.push_back(run_once(w, ens, m, obs));
      logs.push_back(obs.txn_path);
    }
    for (const RunResult& r : runs) {
      ++attempted;
      if (!r.failure.empty()) {
        ++failed;
        problems.push_back(r.failure);
      }
    }
    if (runs[1].counts != runs[2].counts) {
      problems.push_back("traced runs of one seed disagree on counts");
    }
    if (runs[0].counts != runs[1].counts) {
      problems.push_back("tracing changed the simulation's counts");
    }
    if (slurp(logs[0]) != slurp(logs[1])) {
      problems.push_back("traced runs of one seed wrote different txn logs");
    }

    perfbench::ReplayResult replay;
    timed("net.replay", [&] {
      replay = perfbench::replay_transfers(logs[0], w.cluster_spec());
    });
    if (!replay.ok) problems.push_back("could not replay " + logs[0]);
    for (const std::string& log : logs) std::filesystem::remove(log);

    add_counts(counts, runs[0].counts);
    untraced_s += runs[0].wall_s;
    traced_s += runs[1].wall_s;
    analyze_s += runs[1].analyze_s;
    apps_s += runs[0].graph_s;
    cluster_s += runs[0].cluster_s;
    eval_s += ens.eval_s[m];
    replay_s += replay.host_s;
    replay_visits += static_cast<std::int64_t>(replay.flow_visits);
  }

  const auto c = [&](const char* key) {
    return static_cast<double>(counts[key]);
  };
  const double tasks = c("tasks");
  const double makespan = c("makespan_ticks");
  const double self_s = untraced_s - replay_s - eval_s;
  const double busy = ratio(c("mgr.busy_ticks"), makespan);
  const double visits_per_task = ratio(c("net.flow_visits"), tasks);
  if (w.max_flow_visits_per_task > 0 &&
      visits_per_task > w.max_flow_visits_per_task) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "layer separation lost: %.1f flow visits per task "
                  "(ceiling %.1f)",
                  visits_per_task, w.max_flow_visits_per_task);
    problems.push_back(buf);
  }

  std::vector<Metric> metrics = {
      {"net.recomputes", c("net.recomputes"), "count"},
      {"net.flow_visits", c("net.flow_visits"), "count"},
      {"net.visits_per_recompute",
       ratio(c("net.flow_visits"), c("net.recomputes")), "ratio"},
      {"net.flows_done", c("net.flows_done"), "count"},
      {"net.flows_cancelled", c("net.flows_cancelled"), "count"},
      {"net.flows_failed", c("net.flows_failed"), "count"},
      {"net.gb_carried", c("net.bytes_carried") / 1e9, "GB"},
      {"net.starvation_rescues", c("net.starvation_rescues"), "count"},
      {"net.replay_s", replay_s, "s"},
      {"net.replay_share", ratio(replay_s, untraced_s), "ratio"},
      {"net.replay_fidelity",
       ratio(static_cast<double>(replay_visits), c("net.flow_visits")),
       "ratio"},
      {"sim.events", c("sim.events"), "count"},
      {"sim.events_per_task", ratio(c("sim.events"), tasks), "ratio"},
      {"sim.host_ns_per_event", ratio(untraced_s * 1e9, c("sim.events")),
       "ns"},
  };
  // The manager layer is vine's or dd's, whichever ran; the other reads 0.
  const auto mgr = [&](const char* vine_name, const char* dd_name,
                       double value, const char* unit) {
    metrics.push_back({vine_name, w.dask ? 0.0 : value, unit});
    if (dd_name != nullptr) {
      metrics.push_back({dd_name, w.dask ? value : 0.0, unit});
    }
  };
  mgr("vine.attempts", "dd.attempts", c("mgr.attempts"), "count");
  mgr("vine.task_failures", "dd.task_failures", c("mgr.task_failures"),
      "count");
  mgr("vine.lineage_resets", "dd.lineage_resets", c("mgr.lineage_resets"),
      "count");
  mgr("vine.mgr_busy_frac", "dd.mgr_busy_frac", busy, "ratio");
  mgr("vine.mgr_ops", nullptr, c("mgr.ops"), "count");
  mgr("vine.self_s", "dd.self_s", self_s, "s");
  metrics.insert(
      metrics.end(),
      {
          {"vine.cache_evictions", c("vine.cache_evictions"), "count"},
          {"vine.cache_gc_drops", c("vine.cache_gc_drops"), "count"},
          {"vine.peer_slot_underflows", c("vine.peer_slot_underflows"),
           "count"},
          {"objstore.puts", c("objstore.puts"), "count"},
          {"objstore.ref_hits", c("objstore.ref_hits"), "count"},
          {"objstore.spills", c("objstore.spills"), "count"},
          {"objstore.drops", c("objstore.drops"), "count"},
          {"objstore.hit_ratio",
           ratio(c("objstore.ref_hits"), c("objstore.puts")), "ratio"},
          {"fault.injected", c("fault.injected"), "count"},
          {"fault.transfers_killed", c("fault.transfers_killed"), "count"},
          {"fault.worker_crashes", c("fault.worker_crashes"), "count"},
          {"fault.transfer_giveups", c("fault.transfer_giveups"), "count"},
          {"fault.backoff_s",
           hv::util::to_seconds(counts["fault.backoff_ticks"]), "sim_s"},
          {"ha.snapshots", c("ha.snapshots"), "count"},
          {"ha.snapshot_mb", c("ha.snapshot_bytes") / 1e6, "MB"},
      });
  for (const char* blame : {"compute", "transfer-wait", "dispatch-wait",
                            "import", "recovery", "idle"}) {
    std::string name = std::string("obs.blame.") + blame;
    std::replace(name.begin(), name.end(), '-', '_');
    metrics.push_back(
        {name, ratio(c((std::string("blame.") + blame).c_str()),
                     c("blame.capacity")),
         "ratio"});
  }
  metrics.insert(
      metrics.end(),
      {
          {"obs.cp_transfer_frac", ratio(c("cp.transfer_wait"), c("cp.length")),
           "ratio"},
          {"obs.analyze_s", analyze_s, "s"},
          {"obs.trace_overhead_s", traced_s - untraced_s, "s"},
          {"hep.eval_s", eval_s, "s"},
          {"hep.eval_share", ratio(eval_s, untraced_s), "ratio"},
          {"apps.build_s", apps_s, "s"},
          {"cluster.build_s", cluster_s, "s"},
          {"run.failed_frac",
           ratio(static_cast<double>(failed), static_cast<double>(attempted)),
           "ratio"},
      });

  std::printf("%s split of %.3f s untraced host time: net (replay) %.1f%%, "
              "physics (hep.eval) %.1f%%, %s self (derived) %.1f%%\n",
              w.name.c_str(), untraced_s, 100 * ratio(replay_s, untraced_s),
              100 * ratio(eval_s, untraced_s), w.dask ? "dd" : "vine",
              100 * ratio(self_s, untraced_s));
  std::printf("%s: %.0f flow visits per task, replay fidelity %.3f\n",
              w.name.c_str(), visits_per_task,
              ratio(static_cast<double>(replay_visits), c("net.flow_visits")));
  for (const std::string& p : problems) {
    std::fprintf(stderr, "check failed: %s\n", p.c_str());
  }
  const std::string spans_path = dir + "/" + w.name + ".spans.json";
  if (!g_spans.write(spans_path)) {
    problems.push_back("could not write " + spans_path);
  }
  print_result(problems.empty(), attempted, failed, metrics);
  return problems.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR\n");
    return 2;
  }
  const Workload* w = perfbench::find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:",
                 args.workload.c_str());
    for (const std::string& name : perfbench::workload_names()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.work_dir.c_str());
    return 2;
  }
  const Ensemble ensemble(*w, args.seed);
  return args.trace == 1 ? trace(*w, ensemble, args.work_dir)
                         : measure(*w, ensemble, args.seconds);
}
