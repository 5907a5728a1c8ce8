// L9 positive fixture: exactly 4 [L9] findings.
#pragma once

namespace fixture {

class Widget {
 public:
  struct Config {
    int knob = 3;  // finding: a Config field nothing sets
  };
  explicit Widget(Config cfg);
  int polish();  // finding: only l9_bad.cpp calls it

 private:
  int knob_;
};

int unused_helper(int x);  // finding: nothing calls it

// lint: unreached()
int no_reason();  // finding: a waiver needs a reason

}  // namespace fixture
