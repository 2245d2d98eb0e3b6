// vine_profile: turn a span log captured by a scheduler run into a
// time-attribution profile — core-second blame accounting, per-worker and
// per-tenant rollups, and the DAG critical path with Amdahl-style speedup
// bounds.
//
// Usage:
//   vine_profile <run.spans>                  text report (top 5 path links)
//   vine_profile <run.spans> report [k]       text report, top-k path links
//   vine_profile <run.spans> json             machine-readable profile
//   vine_profile <run.spans> trace <out.json> Perfetto/Chrome trace with
//                                             nested lifecycle spans
//
// Exit status doubles as the CI accounting gate: 0 = profile produced and
// the core-second identity held exactly (sum of blame == cores x makespan,
// no worker over-committed); 3 = profile produced but the identity was
// violated; 1/2 = I/O, parse, or usage errors.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/chrome_trace.h"
#include "obs/profile_report.h"
#include "obs/span.h"
#include "obs/txn_query.h"

namespace {

using namespace hepvine;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <run.spans> [command]\n"
               "commands:\n"
               "  report [k]        text profile, top-k critical-path links "
               "(default)\n"
               "  json              machine-readable profile\n"
               "  trace <out.json>  Chrome/Perfetto trace with nested "
               "lifecycle spans\n",
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

/// 0 when the accounting identity held, 3 when it was violated — the
/// CI gate that every attributed profile must sum exactly to capacity.
int identity_status(const obs::ProfileReport& profile) {
  return profile.ledger.identity_ok() ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string path = argv[1];
  const std::string cmd = argc >= 3 ? argv[2] : "report";

  bool ok = false;
  const std::string text = read_file(path, ok);
  if (!ok) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return 1;
  }
  const auto log = obs::SpanLog::parse(text);
  if (!log) {
    if (obs::txnq::looks_like_txn_log(text)) {
      std::fprintf(stderr,
                   "error: %s is a transactions log, not a span log — "
                   "capture the run's span log instead (set "
                   "HEPVINE_SPANS=<prefix> for the benches, or write "
                   "RunReport::profile with SpanLog::write_file) and "
                   "profile that\n",
                   path.c_str());
      return 1;
    }
    std::fprintf(stderr, "error: %s is not a span log (expected a "
                         "'# hepvine spans v1' header)\n",
                 path.c_str());
    return 1;
  }
  if (log->attempts().empty()) {
    std::fprintf(stderr,
                 "error: %s parsed as a span log but carries no attempt "
                 "spans — an empty or truncated capture cannot be "
                 "attributed\n",
                 path.c_str());
    return 1;
  }

  if (cmd == "report") {
    std::size_t top_k = 5;
    if (argc >= 4) {
      top_k = static_cast<std::size_t>(std::strtoull(argv[3], nullptr, 10));
    }
    const obs::ProfileReport profile = obs::build_profile(*log);
    std::fputs(obs::profile_text(*log, profile, top_k).c_str(), stdout);
    return identity_status(profile);
  }

  if (cmd == "json") {
    const obs::ProfileReport profile = obs::build_profile(*log);
    std::fputs(obs::profile_json(*log, profile).c_str(), stdout);
    return identity_status(profile);
  }

  if (cmd == "trace") {
    if (argc < 4) return usage(argv[0]);
    obs::ChromeTraceBuilder trace;
    obs::emit_lifecycle_trace(*log, trace);
    std::ofstream out(argv[3], std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", argv[3]);
      return 1;
    }
    out << trace.to_json();
    const obs::ProfileReport profile = obs::build_profile(*log);
    std::fprintf(stderr, "wrote %zu trace events to %s\n", trace.events(),
                 argv[3]);
    return identity_status(profile);
  }

  return usage(argv[0]);
}
