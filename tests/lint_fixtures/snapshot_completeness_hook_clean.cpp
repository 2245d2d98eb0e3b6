// Fixture: a writer hook — a function taking the builder by reference —
// is a writer region, so members it serializes are covered.
#include <cstdint>

class RunBase {
 protected:
  virtual void write_sections(ha::SnapshotBuilder& b) = 0;
};

// vine-snapshot: state
class Run : public RunBase {
  std::uint64_t tasks_done = 0;  // serialized by the hook below
  std::uint64_t rr_cursor_ = 0;  // serialized by the hook below

  void write_sections(ha::SnapshotBuilder& b) override {
    b.section("run");
    b.field("tasks_done", tasks_done);
    b.field_i("rr_cursor", rr_cursor_);
  }
};
