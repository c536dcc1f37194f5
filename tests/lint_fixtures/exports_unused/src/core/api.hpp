// Fixture: every exported function needs a caller outside tests/.
#pragma once

namespace fixture {

int tool_entry();     // called from tools/
int bench_only();     // called only from perfbench/ (caller evidence)
int test_only();      // called only from tests/: flagged
int own_helper();     // called only by api.cpp: flagged

// kc-lint-allow(exports): tests/test_api.cpp probes it; the allow counts.
int allowed_probe();

class Widget {
 public:
  int used() const;
  int unused_member() const;  // flagged

 private:
  int hidden() const;  // private: not an export
};

namespace detail {
int internal();  // detail: not an export
}  // namespace detail

}  // namespace fixture
