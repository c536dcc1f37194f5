// Names in comments and strings are not calls: test_only().
#include "core/api.hpp"

int main() {
  const char* name = "own_helper";
  (void)name;
  const fixture::Widget w = fixture::Widget::make();
  const int count = 1;  // a variable, not a use of Widget::count
  return fixture::tool_entry() + w.used() + count;
}
