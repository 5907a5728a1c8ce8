// L9 fixture: the only caller of only_from_tests(); FIXTURE_CHECK reaches
// check_hook() without spelling it out.
#include "core/l9_ok.h"

int run_fixture_test() {
  FIXTURE_CHECK(true);
  return fixture::only_from_tests();
}
