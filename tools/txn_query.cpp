// txn_query: interrogate a transactions log produced by a scheduler run
// (our analogue of CCTools' vine_plot_txn_log, but for questions rather
// than plots).
//
// Usage:
//   txn_query <txn.log> task <id>      lifecycle of one task
//   txn_query <txn.log> tasks          lifecycle of every task (brief)
//   txn_query <txn.log> categories     per-category wait/run breakdown
//   txn_query <txn.log> workers        connection/disconnection summary
//   txn_query <txn.log> cache          cache lifecycle (INSERT/EVICT/GC/LOST)
//   txn_query <txn.log> store          object-store lifecycle (PUT/REF/SPILL/DROP)
//   txn_query <txn.log> summary        everything above, condensed

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/txn_query.h"
#include "util/units.h"

namespace {

using namespace hepvine;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <txn.log> <command> [args]\n"
               "commands:\n"
               "  task <id>    lifecycle of task <id>\n"
               "  tasks        one-line lifecycle per task\n"
               "  categories   per-category wait/run breakdown\n"
               "  workers      worker connection summary\n"
               "  cache        cache lifecycle rollup (INSERT/EVICT/GC/LOST)\n"
               "  store        object-store rollup (PUT/REF/SPILL/DROP)\n"
               "  summary      condensed overview\n",
               argv0);
  return 2;
}

std::string read_file(const std::string& path, bool& ok) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ok = false;
    return {};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  ok = true;
  return buf.str();
}

void print_workers(const obs::txnq::WorkerSummary& ws) {
  std::printf("workers: %zu connections\n", ws.connections);
  for (const auto& [reason, count] : ws.disconnections_by_reason) {
    std::printf("  disconnections (%s): %zu\n", reason.c_str(), count);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage(argv[0]);
  const std::string path = argv[1];
  const std::string cmd = argv[2];

  bool ok = false;
  const std::string text = read_file(path, ok);
  if (!ok) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return 1;
  }
  const auto events = obs::txnq::parse_log(text);
  if (events.empty()) {
    std::fprintf(stderr, "error: no parsable events in %s\n", path.c_str());
    return 1;
  }

  if (cmd == "task") {
    if (argc < 4) return usage(argv[0]);
    const std::int64_t id = std::strtoll(argv[3], nullptr, 10);
    const auto lt = obs::txnq::task_lifetime(events, id);
    if (!lt) {
      std::fprintf(stderr, "error: no record of task %lld in the log\n",
                   static_cast<long long>(id));
      return 1;
    }
    std::fputs(obs::txnq::format_lifetime(*lt).c_str(), stdout);
    return 0;
  }

  if (cmd == "tasks") {
    const auto all = obs::txnq::all_task_lifetimes(events);
    for (const auto& [id, lt] : all) {
      std::printf("task %lld [%s] attempts=%u worker=%d wait=%s run=%s%s\n",
                  static_cast<long long>(id), lt.category.c_str(),
                  lt.attempts, lt.worker,
                  util::format_duration(lt.wait_time()).c_str(),
                  util::format_duration(lt.run_time()).c_str(),
                  lt.complete() ? "" : " (incomplete)");
    }
    return 0;
  }

  if (cmd == "categories") {
    std::fputs(obs::txnq::format_breakdown(
                   obs::txnq::category_breakdown(events))
                   .c_str(),
               stdout);
    return 0;
  }

  if (cmd == "workers") {
    print_workers(obs::txnq::worker_summary(events));
    return 0;
  }

  if (cmd == "cache") {
    std::fputs(obs::txnq::format_cache_summary(
                   obs::txnq::cache_summary(events))
                   .c_str(),
               stdout);
    return 0;
  }

  if (cmd == "store") {
    std::fputs(obs::txnq::format_store_summary(
                   obs::txnq::store_summary(events))
                   .c_str(),
               stdout);
    return 0;
  }

  if (cmd == "summary") {
    const auto all = obs::txnq::all_task_lifetimes(events);
    std::size_t complete = 0;
    for (const auto& [id, lt] : all) complete += lt.complete() ? 1 : 0;
    std::printf("events: %zu\n", events.size());
    std::printf("tasks: %zu (%zu with complete lifecycles)\n", all.size(),
                complete);
    print_workers(obs::txnq::worker_summary(events));
    std::fputs(obs::txnq::format_breakdown(
                   obs::txnq::category_breakdown(events))
                   .c_str(),
               stdout);
    std::fputs(obs::txnq::format_cache_summary(
                   obs::txnq::cache_summary(events))
                   .c_str(),
               stdout);
    // Store-less logs (store off, or pre-store runs) keep the exact
    // pre-existing summary output.
    const auto ss = obs::txnq::store_summary(events);
    if (ss.puts + ss.refs + ss.spills + ss.drops > 0) {
      std::fputs(obs::txnq::format_store_summary(ss).c_str(), stdout);
    }
    return 0;
  }

  return usage(argv[0]);
}
