#include "obs/bench_main.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace scale::obs {

namespace {

[[noreturn]] void usage(const char* prog, int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fprintf(out,
               "usage: %s [--json <path>] [--trace <path>] [--quick]\n"
               "  --json <path>   write the report as BENCH JSON "
               "(scale-bench-v1)\n"
               "  --trace <path>  write a Chrome trace_event JSON of the "
               "run\n"
               "  --quick         reduced-scale smoke run (for sanitizer "
               "legs)\n",
               prog);
  // Called during single-threaded argv parsing, before any bench work.
  std::exit(code);  // NOLINT(concurrency-mt-unsafe)
}

// --help must exit before the Report constructor prints the banner.
const char* scan_help(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "-h") == 0 || std::strcmp(argv[i], "--help") == 0)
      usage(argv[0], 0);
  return nullptr;
}

}  // namespace

BenchMain::BenchMain(int argc, char** argv, std::string name,
                     std::string title)
    : report_((scan_help(argc, argv), std::move(name)), std::move(title)) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto take_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs an argument\n", argv[0], arg);
        usage(argv[0], 2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--json") == 0) {
      json_path_ = take_value();
    } else if (std::strcmp(arg, "--trace") == 0) {
      trace_path_ = take_value();
    } else if (std::strcmp(arg, "--quick") == 0) {
      quick_ = true;
    } else if (std::strcmp(arg, "-h") == 0 || std::strcmp(arg, "--help") == 0) {
      usage(argv[0], 0);
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], arg);
      usage(argv[0], 2);
    }
  }
  if (!trace_path_.empty()) previous_ = Tracer::install(&tracer_);
}

BenchMain::~BenchMain() {
  if (!finished_ && !trace_path_.empty()) Tracer::install(previous_);
}

int BenchMain::finish() {
  if (!trace_path_.empty()) Tracer::install(previous_);
  finished_ = true;
  int code = 0;
  if (!json_path_.empty() && !report_.write_json(json_path_)) {
    std::fprintf(stderr, "failed to write %s\n", json_path_.c_str());
    code = 1;
  }
  if (!trace_path_.empty() && !tracer_.write_file(trace_path_)) {
    std::fprintf(stderr, "failed to write %s\n", trace_path_.c_str());
    code = 1;
  }
  return code;
}

}  // namespace scale::obs
