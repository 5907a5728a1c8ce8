// BenchMain — shared CLI harness for the figure benches.
//
// Every bench/fig*.cpp and bench/ablation_*.cpp constructs one of these at
// the top of main():
//
//     obs::BenchMain bm(argc, argv, "fig10_simulation", "Fig. 10 — ...");
//     auto& sec = bm.report().section("fig10(a) ...");
//     ...
//     return bm.finish();
//
// Flags (all optional):
//   --json <path>    write the report as schema'd BENCH JSON
//   --trace <path>   install a Tracer for the run and write Chrome
//                    trace_event JSON (open in chrome://tracing / Perfetto)
//   --quick          reduced-scale smoke run (sanitizer legs); benches
//                    read it via quick() and shrink populations/durations.
#pragma once

#include <string>

#include "obs/report.h"
#include "obs/trace.h"

namespace scale::obs {

class BenchMain {
 public:
  /// Parses argv; on --help prints usage and exits 0, on an unknown flag
  /// prints usage to stderr and exits 2.
  BenchMain(int argc, char** argv, std::string name, std::string title);
  ~BenchMain();
  BenchMain(const BenchMain&) = delete;
  BenchMain& operator=(const BenchMain&) = delete;

  Report& report() { return report_; }
  /// Non-null iff --trace was given (it is then also Tracer::current()).
  Tracer* tracer() { return trace_path_.empty() ? nullptr : &tracer_; }

  /// --quick given: the bench should run a reduced-scale smoke version of
  /// itself (same code paths, smaller populations and shorter horizons) so
  /// sanitizer legs finish in reasonable wall time. Numbers from a quick
  /// run are not comparable with full-run baselines.
  bool quick() const { return quick_; }

  /// Detaches the tracer and writes the requested output files.
  /// Returns the process exit code (non-zero on write failure).
  [[nodiscard]] int finish();

 private:
  Report report_;
  Tracer tracer_;
  std::string json_path_;
  std::string trace_path_;
  bool quick_ = false;
  Tracer* previous_ = nullptr;
  bool finished_ = false;
};

}  // namespace scale::obs
