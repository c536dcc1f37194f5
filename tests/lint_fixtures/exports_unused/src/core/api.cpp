#include "core/api.hpp"

namespace fixture {

int own_helper() { return 1; }
int tool_entry() { return own_helper() + detail::internal(); }
int bench_only() { return 2; }
int test_only() { return 3; }
int allowed_probe() { return 4; }
Widget Widget::make() { return Widget(); }
int Widget::used() const { return hidden() + make().peer(); }
int Widget::peer() const { return 8; }
int Widget::unused_member() const { return 5; }
int Widget::count() const { return 9; }
int Widget::hidden() const { return 6; }
int detail::internal() { return 7; }

}  // namespace fixture
