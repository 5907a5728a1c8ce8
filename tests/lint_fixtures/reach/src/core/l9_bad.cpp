#include "core/l9_bad.h"

namespace fixture {
Widget::Widget(Config cfg) : knob_(cfg.knob) { knob_ += polish(); }
int Widget::polish() { return knob_; }
int unused_helper(int x) { return x; }
}  // namespace fixture
