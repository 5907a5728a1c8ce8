// L9 negative fixture: every public name is reached in a way L9 accepts,
// so zero findings when tests/ is scanned too.
#pragma once

#include <tuple>

#define FIXTURE_CHECK(x) ::fixture::check_hook(x)

namespace fixture {

void check_hook(bool ok);  // reached: FIXTURE_CHECK's body names it

struct Frame {
  int seq = 0;  // reached: listed in kFields, which l9_codec.h walks
  static constexpr auto kFields = std::tuple{&Frame::seq};
};

int only_from_tests();     // reached: tests/l9_reach.cpp calls it
int only_from_wholerun();  // reached: wholerun/src/l9_reach.cpp calls it

// lint: unreached(kept for a caller that lands next)
int waived_for_later();

}  // namespace fixture
