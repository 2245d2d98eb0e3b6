#include "obs/span.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "obs/chrome_trace.h"

namespace hepvine::obs {

namespace {

// Categories are single tokens in the .spans format; empty maps to "-" and
// embedded whitespace is folded to '_' so the line stays field-splittable.
std::string sanitize_category(const std::string& category) {
  if (category.empty()) return "-";
  std::string out = category;
  for (char& c : out) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') c = '_';
  }
  return out;
}

std::string restore_category(const std::string& token) {
  if (token == "-") return {};
  return token;
}

}  // namespace

std::string SpanLog::serialize() const {
  std::string out;
  out.reserve(256 + attempts_.size() * 96 + flows_.size() * 48);
  char buf[320];

  out += "# hepvine spans v1\n";
  out +=
      "# RUN makespan_us success scheduler | MANAGER busy_us ops | "
      "CORES per-worker\n";
  out +=
      "# UP/DOWN t worker | ATTEMPT task attempt worker ready dispatched "
      "staged exec compute exec_end retrieved failed category\n";
  out +=
      "# DEP task producers... | FLOW id bytes carried t0 t1 outcome | "
      "CACHE t worker file bytes verb\n";

  std::snprintf(buf, sizeof(buf), "RUN %" PRId64 " %d %s\n", makespan_,
                success_ ? 1 : 0,
                scheduler_.empty() ? "-" : scheduler_.c_str());
  out += buf;
  std::snprintf(buf, sizeof(buf), "MANAGER %" PRId64 " %" PRIu64 "\n",
                manager_busy_ticks_, manager_ops_);
  out += buf;

  if (!worker_cores_.empty()) {
    out += "CORES";
    for (const std::uint32_t c : worker_cores_) {
      std::snprintf(buf, sizeof(buf), " %u", c);
      out += buf;
    }
    out += '\n';
  }

  for (const WorkerEvent& e : worker_events_) {
    std::snprintf(buf, sizeof(buf), "%s %" PRId64 " %d\n",
                  e.up ? "UP" : "DOWN", e.t, e.worker);
    out += buf;
  }

  for (const AttemptSpan& a : attempts_) {
    std::snprintf(buf, sizeof(buf),
                  "ATTEMPT %" PRId64 " %u %d %" PRId64 " %" PRId64
                  " %" PRId64 " %" PRId64 " %" PRId64 " %" PRId64
                  " %" PRId64 " %d %s\n",
                  a.task, a.attempt, a.worker, a.ready_at, a.dispatched_at,
                  a.staged_at, a.exec_at, a.compute_at, a.exec_end_at,
                  a.retrieved_at, a.failed ? 1 : 0,
                  sanitize_category(a.category).c_str());
    out += buf;
  }

  for (const auto& [task, producers] : deps_) {
    std::snprintf(buf, sizeof(buf), "DEP %" PRId64, task);
    out += buf;
    for (const std::int64_t d : producers) {
      std::snprintf(buf, sizeof(buf), " %" PRId64, d);
      out += buf;
    }
    out += '\n';
  }

  for (const FlowSpan& f : flows_) {
    std::snprintf(buf, sizeof(buf),
                  "FLOW %" PRId64 " %" PRIu64 " %" PRIu64 " %" PRId64
                  " %" PRId64 " %c\n",
                  f.flow, f.bytes, f.carried, f.started_at, f.ended_at,
                  f.outcome);
    out += buf;
  }

  for (const CacheSpan& c : cache_) {
    std::snprintf(buf, sizeof(buf),
                  "CACHE %" PRId64 " %d %" PRId64 " %" PRIu64 " %c\n", c.t,
                  c.worker, c.file, c.bytes, c.verb);
    out += buf;
  }

  return out;
}

bool SpanLog::write_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string text = serialize();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  return ok;
}

std::optional<SpanLog> SpanLog::parse(const std::string& text) {
  if (text.rfind("# hepvine spans v1", 0) != 0) return std::nullopt;
  SpanLog log;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "RUN") {
      int success = 0;
      std::string scheduler;
      ls >> log.makespan_ >> success >> scheduler;
      log.success_ = success != 0;
      log.scheduler_ = restore_category(scheduler);
    } else if (kind == "MANAGER") {
      ls >> log.manager_busy_ticks_ >> log.manager_ops_;
    } else if (kind == "CORES") {
      std::uint32_t c = 0;
      while (ls >> c) log.worker_cores_.push_back(c);
    } else if (kind == "UP" || kind == "DOWN") {
      WorkerEvent e;
      e.up = kind == "UP";
      ls >> e.t >> e.worker;
      if (ls.fail()) return std::nullopt;
      log.worker_events_.push_back(e);
    } else if (kind == "ATTEMPT") {
      AttemptSpan a;
      int failed = 0;
      std::string category;
      ls >> a.task >> a.attempt >> a.worker >> a.ready_at >>
          a.dispatched_at >> a.staged_at >> a.exec_at >> a.compute_at >>
          a.exec_end_at >> a.retrieved_at >> failed >> category;
      if (ls.fail()) return std::nullopt;
      a.failed = failed != 0;
      a.category = restore_category(category);
      log.attempts_.push_back(std::move(a));
    } else if (kind == "DEP") {
      std::int64_t task = -1;
      ls >> task;
      if (ls.fail()) return std::nullopt;
      std::vector<std::int64_t> producers;
      std::int64_t d = -1;
      while (ls >> d) producers.push_back(d);
      log.deps_[task] = std::move(producers);
    } else if (kind == "FLOW") {
      FlowSpan f;
      ls >> f.flow >> f.bytes >> f.carried >> f.started_at >> f.ended_at >>
          f.outcome;
      if (ls.fail()) return std::nullopt;
      log.flows_.push_back(f);
    } else if (kind == "CACHE") {
      CacheSpan c;
      ls >> c.t >> c.worker >> c.file >> c.bytes >> c.verb;
      if (ls.fail()) return std::nullopt;
      log.cache_.push_back(c);
    } else {
      return std::nullopt;
    }
  }
  return log;
}

void emit_lifecycle_trace(const SpanLog& log, ChromeTraceBuilder& trace) {
  char name[96];
  char args[128];
  for (const AttemptSpan& a : log.attempts()) {
    if (a.dispatched_at < 0 || a.retrieved_at < 0) continue;
    // Lane convention matches the rest of the trace: pid 0 = manager,
    // pid w+1 = worker w. tid = task id keeps concurrent attempts on the
    // same worker on separate nesting stacks.
    const std::int32_t pid = a.worker >= 0 ? a.worker + 1 : 0;
    const std::int64_t tid = a.task;
    std::snprintf(name, sizeof(name), "task %" PRId64 " attempt %u", a.task,
                  a.attempt);
    std::snprintf(args, sizeof(args),
                  "{\"category\":\"%s\",\"failed\":%s}",
                  ChromeTraceBuilder::escape(a.category).c_str(),
                  a.failed ? "true" : "false");
    trace.add_begin(pid, tid, name, a.failed ? "attempt-failed" : "attempt",
                    a.dispatched_at, args);
    const struct {
      const char* label;
      Tick start;
      Tick end;
    } phases[] = {
        {"dispatch", a.dispatched_at, a.staged_at},
        {"fetch-inputs", a.staged_at, a.exec_at},
        {"startup-import", a.exec_at, a.compute_at},
        {"execute", a.compute_at, a.exec_end_at},
        {"retrieve-output", a.exec_end_at, a.retrieved_at},
    };
    for (const auto& p : phases) {
      if (p.start < 0 || p.end < 0 || p.end < p.start) continue;
      trace.add_begin(pid, tid, p.label, "phase", p.start);
      trace.add_end(pid, tid, p.end);
    }
    trace.add_end(pid, tid, a.retrieved_at);
  }
}

void emit_task_lanes(const SpanLog& log, ChromeTraceBuilder& trace) {
  for (const AttemptSpan& a : log.attempts()) {
    if (a.exec_at < 0 || a.worker < 0) continue;
    const std::string task = std::to_string(a.task);
    const Tick start = attempt_start(a);
    trace.add_span(a.worker + 1,
                   a.failed ? a.category + " (failed)" : a.category,
                   a.category, start, attempt_end(a) - start,
                   a.failed ? "{\"task\":" + task + ",\"failed\":true}"
                            : "{\"task\":" + task + "}");
  }
}

}  // namespace hepvine::obs
