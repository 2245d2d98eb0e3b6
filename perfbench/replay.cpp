#include "replay.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

namespace perfbench {

namespace {

struct Transfer {
  hepvine::util::Tick at = 0;
  std::size_t src = 0;
  std::size_t dst = 0;
  std::uint64_t bytes = 0;
};

/// Start one recorded transfer on the path the schedulers use for it.
/// Endpoints: 0 = manager, 1..N = workers, N+1 = shared filesystem.
void start(hepvine::cluster::Cluster& cluster, const Transfer& t) {
  using hepvine::cluster::WorkerId;
  const std::size_t fs = cluster.fs_endpoint();
  const hepvine::util::Tick latency = cluster.control_rtt() / 2;
  const auto worker = [](std::size_t endpoint) {
    return static_cast<WorkerId>(endpoint - 1);
  };
  if (t.src == fs && t.dst == 0) {
    cluster.read_fs_to_manager(t.bytes, {});
  } else if (t.src == fs) {
    cluster.read_fs_to_worker(worker(t.dst), t.bytes, {});
  } else if (t.dst == fs) {
    cluster.write_worker_to_fs(worker(t.src), t.bytes, {});
  } else if (t.src == 0) {
    cluster.send_manager_to_worker(worker(t.dst), t.bytes, latency, {});
  } else if (t.dst == 0) {
    cluster.send_worker_to_manager(worker(t.src), t.bytes, latency, {});
  } else {
    cluster.send_peer(worker(t.src), worker(t.dst), t.bytes, latency, {});
  }
}

}  // namespace

ReplayResult replay_transfers(const std::string& txn_path,
                              const hepvine::cluster::ClusterSpec& spec) {
  ReplayResult result;
  std::ifstream in(txn_path);
  if (!in) return result;

  std::vector<Transfer> transfers;
  const std::size_t endpoints = spec.worker_count + 2;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.find(" TRANSFER ") == std::string::npos ||
        line.compare(line.size() - 6, 6, " START") != 0) {
      continue;
    }
    std::istringstream fields(line);
    Transfer t;
    std::string subject;
    std::int64_t file = 0;
    if (!(fields >> t.at >> subject >> t.src >> t.dst >> file >> t.bytes) ||
        t.src >= endpoints || t.dst >= endpoints) {
      return result;
    }
    // Same-node copies never touch the network.
    if (t.src != t.dst) transfers.push_back(t);
  }

  hepvine::cluster::Cluster cluster(spec);
  const auto t0 = std::chrono::steady_clock::now();
  for (const Transfer& t : transfers) {
    cluster.engine().schedule_at(t.at, [&cluster, t] { start(cluster, t); });
  }
  cluster.engine().run();
  const auto t1 = std::chrono::steady_clock::now();

  result.ok = true;
  result.transfers = transfers.size();
  result.flow_visits = cluster.network().recompute_flow_visits();
  result.recomputes = cluster.network().recomputes();
  result.host_s = std::chrono::duration<double>(t1 - t0).count();
  return result;
}

}  // namespace perfbench
