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
  static Widget make();       // fixture::Widget::make() in tools/
  int used() const;           // w.used() in tools/
  int peer() const;           // .peer() in api.cpp only: a member use
  int unused_member() const;  // flagged: only its definition names it
  int count() const;          // flagged: tools/ has a variable `count`

 private:
  int hidden() const;  // private: not an export
};

namespace detail {
int internal();  // detail: not an export
}  // namespace detail

}  // namespace fixture
