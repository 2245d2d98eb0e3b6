#include "obs/txn_query.h"

#include <cinttypes>

#include "obs/txn_log.h"
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace hepvine::obs::txnq {

namespace {

// Subjects whose first operand is a numeric id, per the kTxnSubjects
// registry in obs/txn_log.h. TRANSFER lines put src/dst endpoints first,
// so their id stays 0 and fields land in `rest`.
bool subject_has_id(const std::string& s) {
  return txn_subject_registered(s) && txn_subject_id_first(s);
}

}  // namespace

std::optional<Event> parse_line(const std::string& line) {
  if (line.empty() || line[0] == '#') return std::nullopt;
  std::istringstream in(line);
  Event ev;
  std::string time_field;
  if (!(in >> time_field >> ev.subject)) return std::nullopt;
  char* end = nullptr;
  ev.t = std::strtoll(time_field.c_str(), &end, 10);
  if (end == time_field.c_str() || *end != '\0') return std::nullopt;

  if (subject_has_id(ev.subject)) {
    std::string id_field;
    if (!(in >> id_field >> ev.verb)) return std::nullopt;
    ev.id = std::strtoll(id_field.c_str(), &end, 10);
    if (end == id_field.c_str()) return std::nullopt;
  } else {
    if (!(in >> ev.verb)) return std::nullopt;
  }
  std::string field;
  while (in >> field) ev.rest.push_back(std::move(field));
  return ev;
}

std::vector<Event> parse_log(const std::string& text) {
  std::vector<Event> out;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t nl = text.find('\n', begin);
    if (nl == std::string::npos) nl = text.size();
    if (auto ev = parse_line(text.substr(begin, nl - begin))) {
      out.push_back(std::move(*ev));
    }
    begin = nl + 1;
  }
  return out;
}

bool looks_like_txn_log(const std::string& text) {
  // Bounded scan: the header comments sit at the top and a real log has a
  // parsable event within its first lines.
  std::size_t begin = 0;
  for (int scanned = 0; scanned < 200 && begin < text.size(); ++scanned) {
    std::size_t nl = text.find('\n', begin);
    if (nl == std::string::npos) nl = text.size();
    const std::string line = text.substr(begin, nl - begin);
    if (line.rfind("# time_us", 0) == 0) return true;
    if (auto ev = parse_line(line);
        ev && txn_subject_registered(ev->subject)) {
      return true;
    }
    begin = nl + 1;
  }
  return false;
}

namespace {

void apply_task_event(TaskLifetime& lt, const Event& ev) {
  lt.task = ev.id;
  if (ev.verb == "WAITING") {
    if (lt.waiting_at < 0) lt.waiting_at = ev.t;
    ++lt.attempts;
    if (!ev.rest.empty()) lt.category = ev.rest[0];
  } else if (ev.verb == "RUNNING") {
    lt.running_at = ev.t;
    if (!ev.rest.empty()) {
      lt.worker = static_cast<std::int32_t>(std::atoi(ev.rest[0].c_str()));
    }
  } else if (ev.verb == "RETRIEVED") {
    lt.retrieved_at = ev.t;
  } else if (ev.verb == "DONE") {
    lt.done_at = ev.t;
    lt.done = true;
  }
}

}  // namespace

std::optional<TaskLifetime> task_lifetime(const std::vector<Event>& events,
                                          std::int64_t id) {
  TaskLifetime lt;
  bool seen = false;
  for (const auto& ev : events) {
    if (ev.subject != "TASK" || ev.id != id) continue;
    seen = true;
    apply_task_event(lt, ev);
  }
  if (!seen) return std::nullopt;
  return lt;
}

std::map<std::int64_t, TaskLifetime> all_task_lifetimes(
    const std::vector<Event>& events) {
  std::map<std::int64_t, TaskLifetime> out;
  for (const auto& ev : events) {
    if (ev.subject != "TASK") continue;
    apply_task_event(out[ev.id], ev);
  }
  return out;
}

std::map<std::string, CategoryBreakdown> category_breakdown(
    const std::vector<Event>& events) {
  std::map<std::string, CategoryBreakdown> out;
  for (const auto& [id, lt] : all_task_lifetimes(events)) {
    if (!lt.complete()) continue;
    auto& agg = out[lt.category.empty() ? "default" : lt.category];
    agg.tasks += 1;
    agg.attempts += lt.attempts;
    agg.total_wait += lt.wait_time();
    agg.total_run += lt.run_time();
  }
  return out;
}

std::string format_lifetime(const TaskLifetime& lt) {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf), "task %" PRId64 " (%s), %u attempt(s)\n",
                lt.task, lt.category.empty() ? "default" : lt.category.c_str(),
                lt.attempts);
  out += buf;
  auto stamp = [&](const char* label, Tick t) {
    if (t < 0) return;
    std::snprintf(buf, sizeof(buf), "  %-10s t=%.6fs\n", label,
                  util::to_seconds(t));
    out += buf;
  };
  stamp("WAITING", lt.waiting_at);
  stamp("RUNNING", lt.running_at);
  stamp("RETRIEVED", lt.retrieved_at);
  stamp("DONE", lt.done_at);
  if (lt.worker >= 0) {
    std::snprintf(buf, sizeof(buf), "  worker     %d\n", lt.worker);
    out += buf;
  }
  if (lt.complete()) {
    std::snprintf(buf, sizeof(buf),
                  "  waited %.3fs, ran %.3fs, total %.3fs\n",
                  util::to_seconds(lt.wait_time()),
                  util::to_seconds(lt.run_time()),
                  util::to_seconds(lt.done_at - lt.waiting_at));
    out += buf;
  } else {
    out += "  lifecycle incomplete (task did not reach DONE in this log)\n";
  }
  return out;
}

std::string format_breakdown(
    const std::map<std::string, CategoryBreakdown>& breakdown) {
  std::string out =
      "category        tasks attempts   mean_wait_s    mean_run_s\n";
  char buf[160];
  for (const auto& [cat, agg] : breakdown) {
    const double n = agg.tasks > 0 ? static_cast<double>(agg.tasks) : 1.0;
    std::snprintf(buf, sizeof(buf), "%-15s %5zu %8zu %13.3f %13.3f\n",
                  cat.c_str(), agg.tasks, agg.attempts,
                  util::to_seconds(agg.total_wait) / n,
                  util::to_seconds(agg.total_run) / n);
    out += buf;
  }
  return out;
}

CacheSummary cache_summary(const std::vector<Event>& events) {
  CacheSummary out;
  for (const auto& ev : events) {
    if (ev.subject != "CACHE" || ev.rest.empty()) continue;
    const auto bytes =
        static_cast<std::uint64_t>(std::strtoull(ev.rest[0].c_str(),
                                                 nullptr, 10));
    if (ev.verb == "INSERT") {
      ++out.inserts;
      out.inserted_bytes += bytes;
    } else if (ev.verb == "EVICT") {
      ++out.evictions;
      out.evicted_bytes += bytes;
    } else if (ev.verb == "GC") {
      ++out.gc_drops;
      out.gc_bytes += bytes;
    } else if (ev.verb == "LOST") {
      ++out.losses;
      out.lost_bytes += bytes;
    }
  }
  return out;
}

std::string format_cache_summary(const CacheSummary& cs) {
  std::string out = "verb     count         bytes\n";
  char buf[96];
  const auto row = [&](const char* verb, std::size_t n, std::uint64_t b) {
    std::snprintf(buf, sizeof(buf), "%-8s %5zu %13" PRIu64 "\n", verb, n, b);
    out += buf;
  };
  row("INSERT", cs.inserts, cs.inserted_bytes);
  row("EVICT", cs.evictions, cs.evicted_bytes);
  row("GC", cs.gc_drops, cs.gc_bytes);
  row("LOST", cs.losses, cs.lost_bytes);
  return out;
}

StoreSummary store_summary(const std::vector<Event>& events) {
  StoreSummary out;
  for (const auto& ev : events) {
    if (ev.subject != "STORE" || ev.rest.empty()) continue;
    const auto bytes =
        static_cast<std::uint64_t>(std::strtoull(ev.rest[0].c_str(),
                                                 nullptr, 10));
    if (ev.verb == "PUT") {
      ++out.puts;
      out.put_bytes += bytes;
    } else if (ev.verb == "REF") {
      ++out.refs;
      out.ref_bytes += bytes;
    } else if (ev.verb == "SPILL") {
      ++out.spills;
      out.spilled_bytes += bytes;
    } else if (ev.verb == "DROP") {
      ++out.drops;
      out.dropped_bytes += bytes;
    }
  }
  return out;
}

std::string format_store_summary(const StoreSummary& ss) {
  std::string out = "verb     count         bytes\n";
  char buf[96];
  const auto row = [&](const char* verb, std::size_t n, std::uint64_t b) {
    std::snprintf(buf, sizeof(buf), "%-8s %5zu %13" PRIu64 "\n", verb, n, b);
    out += buf;
  };
  row("PUT", ss.puts, ss.put_bytes);
  row("REF", ss.refs, ss.ref_bytes);
  row("SPILL", ss.spills, ss.spilled_bytes);
  row("DROP", ss.drops, ss.dropped_bytes);
  return out;
}

WorkerSummary worker_summary(const std::vector<Event>& events) {
  WorkerSummary out;
  for (const auto& ev : events) {
    if (ev.subject != "WORKER") continue;
    if (ev.verb == "CONNECTION") {
      ++out.connections;
    } else if (ev.verb == "DISCONNECTION") {
      const std::string reason = ev.rest.empty() ? "UNKNOWN" : ev.rest[0];
      ++out.disconnections_by_reason[reason];
    }
  }
  return out;
}

}  // namespace hepvine::obs::txnq
