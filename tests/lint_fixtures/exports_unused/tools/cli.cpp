// Names in comments and strings are not calls: test_only().
#include "core/api.hpp"

int main() {
  const char* name = "own_helper";
  (void)name;
  fixture::Widget w;
  return fixture::tool_entry() + w.used();
}
