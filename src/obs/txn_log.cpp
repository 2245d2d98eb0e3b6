#include "obs/txn_log.h"

#include <cinttypes>
#include <utility>

namespace hepvine::obs {

TxnLog::TxnLog(std::size_t ring_capacity, const std::string& path)
    : enabled_(true), capacity_(ring_capacity > 0 ? ring_capacity : 1) {
  if (!path.empty()) {
    file_ = std::fopen(path.c_str(), "w");
    if (file_ != nullptr) {
      std::fputs("# time_us SUBJECT id EVENT ...\n", file_);
      std::fputs("# time_us MANAGER 0 START|END\n", file_);
      std::fputs("# time_us TASK id WAITING category attempt\n", file_);
      std::fputs("# time_us TASK id RUNNING worker_id\n", file_);
      std::fputs("# time_us TASK id RETRIEVED|DONE reason\n", file_);
      std::fputs("# time_us WORKER id CONNECTION|DISCONNECTION reason\n",
                 file_);
      std::fputs(
          "# time_us CACHE file_id INSERT|EVICT|GC|LOST size_bytes worker\n",
          file_);
      std::fputs(
          "# time_us TRANSFER src dst file_id size_bytes START|DONE|FAILED\n",
          file_);
      std::fputs("# time_us LIBRARY worker_id SENT|STARTED\n", file_);
      std::fputs("# time_us FAULT seq KIND detail\n", file_);
      std::fputs("# time_us NET flow_id WARN detail\n", file_);
      std::fputs("# time_us SNAPSHOT seq WRITE size_bytes digest\n", file_);
      std::fputs("# time_us RECOVER seq RESTORE|REPLAY|DONE detail\n", file_);
    }
  }
}

TxnLog::~TxnLog() {
  if (file_ != nullptr) std::fclose(file_);
}

void TxnLog::push(std::string l) {
  ++events_;
  if (file_ != nullptr) {
    std::fputs(l.c_str(), file_);
    std::fputc('\n', file_);
  }
  ring_.push_back(std::move(l));
  if (ring_.size() > capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
}

void TxnLog::line(Tick t, const char* body) {
  if (!enabled_) return;
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%" PRId64 " %s", t, body);
  push(buf);
}

void TxnLog::task_waiting(Tick t, std::int64_t task,
                          const std::string& category,
                          std::uint32_t attempt) {
  if (!enabled_) return;
  char buf[224];
  std::snprintf(buf, sizeof(buf), "%" PRId64 " TASK %" PRId64 " WAITING %s %u",
                t, task, category.empty() ? "default" : category.c_str(),
                attempt);
  push(buf);
}

void TxnLog::task_running(Tick t, std::int64_t task, std::int32_t worker) {
  if (!enabled_) return;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%" PRId64 " TASK %" PRId64 " RUNNING %d", t,
                task, worker);
  push(buf);
}

void TxnLog::task_retrieved(Tick t, std::int64_t task, const char* reason) {
  if (!enabled_) return;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%" PRId64 " TASK %" PRId64 " RETRIEVED %s",
                t, task, reason);
  push(buf);
}

void TxnLog::task_done(Tick t, std::int64_t task, const char* reason) {
  if (!enabled_) return;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%" PRId64 " TASK %" PRId64 " DONE %s", t,
                task, reason);
  push(buf);
}

void TxnLog::worker_connection(Tick t, std::int32_t worker) {
  if (!enabled_) return;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%" PRId64 " WORKER %d CONNECTION", t,
                worker);
  push(buf);
}

void TxnLog::worker_disconnection(Tick t, std::int32_t worker,
                                  const char* reason) {
  if (!enabled_) return;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%" PRId64 " WORKER %d DISCONNECTION %s", t,
                worker, reason);
  push(buf);
}

void TxnLog::cache_insert(Tick t, std::int32_t worker, std::int64_t file,
                          std::uint64_t bytes) {
  if (!enabled_) return;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%" PRId64 " CACHE %" PRId64 " INSERT %" PRIu64 " %d", t, file,
                bytes, worker);
  push(buf);
}

void TxnLog::cache_evict(Tick t, std::int32_t worker, std::int64_t file,
                         std::uint64_t bytes) {
  if (!enabled_) return;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%" PRId64 " CACHE %" PRId64 " EVICT %" PRIu64 " %d", t, file,
                bytes, worker);
  push(buf);
}

void TxnLog::cache_gc(Tick t, std::int32_t worker, std::int64_t file,
                      std::uint64_t bytes) {
  if (!enabled_) return;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%" PRId64 " CACHE %" PRId64 " GC %" PRIu64 " %d", t, file,
                bytes, worker);
  push(buf);
}

void TxnLog::cache_lost(Tick t, std::int32_t worker, std::int64_t file,
                        std::uint64_t bytes) {
  if (!enabled_) return;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%" PRId64 " CACHE %" PRId64 " LOST %" PRIu64 " %d", t, file,
                bytes, worker);
  push(buf);
}

void TxnLog::store_put(Tick t, std::int32_t worker, std::int64_t file,
                       std::uint64_t bytes) {
  if (!enabled_) return;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%" PRId64 " STORE %" PRId64 " PUT %" PRIu64 " %d", t, file,
                bytes, worker);
  push(buf);
}

void TxnLog::store_ref(Tick t, std::int32_t worker, std::int64_t file,
                       std::uint64_t bytes) {
  if (!enabled_) return;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%" PRId64 " STORE %" PRId64 " REF %" PRIu64 " %d", t, file,
                bytes, worker);
  push(buf);
}

void TxnLog::store_spill(Tick t, std::int32_t worker, std::int64_t file,
                         std::uint64_t bytes) {
  if (!enabled_) return;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%" PRId64 " STORE %" PRId64 " SPILL %" PRIu64 " %d", t, file,
                bytes, worker);
  push(buf);
}

void TxnLog::store_drop(Tick t, std::int32_t worker, std::int64_t file,
                        std::uint64_t bytes) {
  if (!enabled_) return;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%" PRId64 " STORE %" PRId64 " DROP %" PRIu64 " %d", t, file,
                bytes, worker);
  push(buf);
}

void TxnLog::transfer_start(Tick t, std::size_t src, std::size_t dst,
                            std::int64_t file, std::uint64_t bytes) {
  if (!enabled_) return;
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "%" PRId64 " TRANSFER %zu %zu %" PRId64 " %" PRIu64 " START",
                t, src, dst, file, bytes);
  push(buf);
}

void TxnLog::transfer_done(Tick t, std::size_t src, std::size_t dst,
                           std::int64_t file, std::uint64_t bytes) {
  if (!enabled_) return;
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "%" PRId64 " TRANSFER %zu %zu %" PRId64 " %" PRIu64 " DONE", t,
                src, dst, file, bytes);
  push(buf);
}

void TxnLog::transfer_failed(Tick t, std::size_t src, std::size_t dst,
                             std::int64_t file, std::uint64_t bytes) {
  if (!enabled_) return;
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "%" PRId64 " TRANSFER %zu %zu %" PRId64 " %" PRIu64 " FAILED",
                t, src, dst, file, bytes);
  push(buf);
}

void TxnLog::library_sent(Tick t, std::int32_t worker) {
  if (!enabled_) return;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%" PRId64 " LIBRARY %d SENT", t, worker);
  push(buf);
}

void TxnLog::library_started(Tick t, std::int32_t worker) {
  if (!enabled_) return;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%" PRId64 " LIBRARY %d STARTED", t, worker);
  push(buf);
}

void TxnLog::fault_injected(Tick t, std::uint64_t seq, const char* kind,
                            const std::string& detail) {
  if (!enabled_) return;
  char buf[224];
  std::snprintf(buf, sizeof(buf), "%" PRId64 " FAULT %" PRIu64 " %s %s", t,
                seq, kind, detail.c_str());
  push(buf);
}

void TxnLog::net_warn(Tick t, std::int64_t flow, const char* detail) {
  if (!enabled_) return;
  char buf[224];
  std::snprintf(buf, sizeof(buf), "%" PRId64 " NET %" PRId64 " WARN %s", t,
                flow, detail);
  push(buf);
}

void TxnLog::snapshot_write(Tick t, std::uint64_t seq, std::uint64_t bytes,
                            const std::string& digest) {
  if (!enabled_) return;
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "%" PRId64 " SNAPSHOT %" PRIu64 " WRITE %" PRIu64 " %s", t,
                seq, bytes, digest.c_str());
  push(buf);
}

void TxnLog::recover_phase(Tick t, std::uint64_t seq, const char* phase,
                           const std::string& detail) {
  if (!enabled_) return;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%" PRId64 " RECOVER %" PRIu64 " %s %s", t,
                seq, phase, detail.c_str());
  push(buf);
}

std::vector<std::string> TxnLog::tail() const {
  return {ring_.begin(), ring_.end()};
}

std::string TxnLog::text() const {
  std::string out;
  for (const auto& l : ring_) {
    out += l;
    out += '\n';
  }
  return out;
}

void TxnLog::flush() {
  if (file_ != nullptr) std::fflush(file_);
}

}  // namespace hepvine::obs
