// Fixture: a writer hook's region is its body only. A member mentioned
// after the body, or next to a bodiless hook declaration, is not covered.
#include <cstdint>

// vine-snapshot: state
class Run {
  std::uint64_t tasks_done = 0;
  std::uint64_t rr_cursor = 0;  // flagged: only mentioned outside writers

  void declared_hook(ha::SnapshotBuilder& b);
  void advance() { rr_cursor += 1; }

  void write_sections(ha::SnapshotBuilder& b) {
    b.section("run");
    b.field("tasks_done", tasks_done);
  }
  void reset() { rr_cursor = 0; }
};
