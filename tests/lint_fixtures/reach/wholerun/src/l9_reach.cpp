// L9 fixture: WholeRun's sources are indexed, never linted.
#include "core/l9_ok.h"

int run_fixture_workload() { return fixture::only_from_wholerun(); }
