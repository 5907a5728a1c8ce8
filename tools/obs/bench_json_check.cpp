// bench_json_check — validate BENCH JSON documents against the
// "scale-bench-v1" schema (obs::validate_bench_json, the same routine the
// unit tests use). tier1.sh runs one bench with --json and pipes the result
// through this tool, so a schema regression fails the build gate, not a
// downstream plotting script.
//
// A second mode guards the perf trajectory: --compare-allocs diffs the
// "allocations" section of a fresh run against the committed baseline
// (BENCH_core.json) and fails when any phase allocates MORE than it used
// to. Allocation counts — unlike wall times — are deterministic, so the
// gate is exact and runs on any machine.
//
// Two more modes guard shard-readiness (DESIGN.md §6 L6–L7): --lint
// validates "scale-lint-v1" documents from `scale_lint --json`, and
// --compare-lint diffs a fresh lint report against the committed
// LINT_baseline.json — any NEW finding or NEW waiver fails, so the lint
// gate catches additions even when the exit code alone would not (e.g. a
// fresh `// lint:` waiver silently widening the audit surface).
//
// usage: bench_json_check <file.json>...
//        bench_json_check --compare-allocs <baseline.json> <current.json>
//        bench_json_check --lint <file.json>...
//        bench_json_check --compare-lint <baseline.json> <current.json>
// Exit: 0 all valid / no regression, 1 any invalid / regression, 2 usage/IO.
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "obs/json.h"
#include "obs/report.h"

namespace {

/// Load + parse + schema-validate one document; nullopt (with a message on
/// stderr) when anything is wrong. `*io_error` distinguishes exit code 2.
std::optional<scale::obs::Json> load_bench(const char* path, bool* io_error) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "%s: cannot open\n", path);
    *io_error = true;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  auto doc = scale::obs::Json::parse(buf.str(), &error);
  if (!doc.has_value()) {
    std::fprintf(stderr, "%s: parse error: %s\n", path, error.c_str());
    return std::nullopt;
  }
  const auto problems = scale::obs::validate_bench_json(*doc);
  for (const auto& p : problems)
    std::fprintf(stderr, "%s: %s\n", path, p.c_str());
  if (!problems.empty()) return std::nullopt;
  return doc;
}

/// Extract {row label -> value of the "allocs" column} from the
/// "allocations" section. Empty map when the section is absent.
std::map<std::string, double> alloc_counts(const scale::obs::Json& doc) {
  std::map<std::string, double> out;
  const auto* sections = doc.find("sections");
  if (sections == nullptr) return out;
  for (const auto& sec : sections->elements()) {
    const auto* name = sec.find("name");
    if (name == nullptr || name->as_string() != "allocations") continue;
    std::size_t allocs_col = 0;
    const auto& columns = sec.find("columns")->elements();
    for (std::size_t c = 0; c < columns.size(); ++c)
      if (columns[c].as_string() == "allocs") allocs_col = c;
    for (const auto& row : sec.find("rows")->elements()) {
      const auto& values = row.find("values")->elements();
      if (allocs_col < values.size())
        out[row.find("label")->as_string()] = values[allocs_col].as_double();
    }
  }
  return out;
}

/// The perf gate: every phase present in the baseline must still exist and
/// must not allocate more than it did at baseline time. New phases (no
/// baseline yet) pass; re-baseline via scripts/bench_baseline.sh.
int compare_allocs(const char* baseline_path, const char* current_path) {
  bool io_error = false;
  const auto baseline = load_bench(baseline_path, &io_error);
  const auto current = load_bench(current_path, &io_error);
  if (io_error) return 2;
  if (!baseline.has_value() || !current.has_value()) return 1;

  const auto want = alloc_counts(*baseline);
  const auto got = alloc_counts(*current);
  if (want.empty()) {
    std::fprintf(stderr, "%s: no allocations section to compare\n",
                 baseline_path);
    return 1;
  }
  int code = 0;
  for (const auto& [label, base_allocs] : want) {
    const auto it = got.find(label);
    if (it == got.end()) {
      std::fprintf(stderr, "alloc-compare: phase '%s' missing from %s\n",
                   label.c_str(), current_path);
      code = 1;
      continue;
    }
    if (it->second > base_allocs) {
      std::fprintf(stderr,
                   "alloc-compare: '%s' regressed: %.0f allocs "
                   "(baseline %.0f)\n",
                   label.c_str(), it->second, base_allocs);
      code = 1;
    } else {
      std::printf("alloc-compare: %s: %.0f <= %.0f OK\n", label.c_str(),
                  it->second, base_allocs);
    }
  }
  return code;
}

/// One row of the "fig10_1m_capacity" section, keyed by row label.
struct CapacityRow {
  double ues = 0.0;
  double ops_per_s = 0.0;
  double peak_rss = 0.0;
};

/// Extract the fig10_1m_capacity rows. Empty when the section is absent.
std::map<std::string, CapacityRow> capacity_rows(
    const scale::obs::Json& doc) {
  std::map<std::string, CapacityRow> out;
  const auto* sections = doc.find("sections");
  if (sections == nullptr) return out;
  for (const auto& sec : sections->elements()) {
    const auto* name = sec.find("name");
    if (name == nullptr || name->as_string() != "fig10_1m_capacity") continue;
    std::size_t ues_col = 0, rate_col = 0, rss_col = 0;
    const auto& columns = sec.find("columns")->elements();
    for (std::size_t c = 0; c < columns.size(); ++c) {
      const std::string col = columns[c].as_string();
      if (col == "ues") ues_col = c;
      if (col == "ops_per_s") rate_col = c;
      if (col == "peak_rss_bytes") rss_col = c;
    }
    for (const auto& row : sec.find("rows")->elements()) {
      const auto& values = row.find("values")->elements();
      CapacityRow r;
      if (ues_col < values.size()) r.ues = values[ues_col].as_double();
      if (rate_col < values.size()) r.ops_per_s = values[rate_col].as_double();
      if (rss_col < values.size()) r.peak_rss = values[rss_col].as_double();
      out[row.find("label")->as_string()] = r;
    }
  }
  return out;
}

/// The MillionUE gate: every capacity phase must still run at full scale
/// (ues must not shrink), must not grow peak RSS past 1.15× the committed
/// baseline, and must keep at least 40% of the baseline's events/s. The RSS
/// bound is near-deterministic (page-granular); the throughput floor is
/// deliberately generous because wall clocks vary across machines —
/// re-baseline on faster/slower hardware via scripts/bench_baseline.sh.
int compare_capacity(const char* baseline_path, const char* current_path) {
  constexpr double kRssSlack = 1.15;
  constexpr double kThroughputFloor = 0.40;
  bool io_error = false;
  const auto baseline = load_bench(baseline_path, &io_error);
  const auto current = load_bench(current_path, &io_error);
  if (io_error) return 2;
  if (!baseline.has_value() || !current.has_value()) return 1;

  const auto want = capacity_rows(*baseline);
  const auto got = capacity_rows(*current);
  if (want.empty()) {
    std::fprintf(stderr, "%s: no fig10_1m_capacity section to compare\n",
                 baseline_path);
    return 1;
  }
  int code = 0;
  for (const auto& [label, base] : want) {
    const auto it = got.find(label);
    if (it == got.end()) {
      std::fprintf(stderr, "capacity-compare: row '%s' missing from %s\n",
                   label.c_str(), current_path);
      code = 1;
      continue;
    }
    const CapacityRow& cur = it->second;
    int row_code = 0;
    if (cur.ues < base.ues) {
      std::fprintf(stderr,
                   "capacity-compare: '%s' population shrank: %.0f UEs "
                   "(baseline %.0f)\n",
                   label.c_str(), cur.ues, base.ues);
      row_code = 1;
    }
    if (cur.peak_rss > base.peak_rss * kRssSlack) {
      std::fprintf(stderr,
                   "capacity-compare: '%s' peak RSS regressed: %.0f bytes "
                   "(baseline %.0f, slack %.2fx)\n",
                   label.c_str(), cur.peak_rss, base.peak_rss, kRssSlack);
      row_code = 1;
    }
    if (cur.ops_per_s < base.ops_per_s * kThroughputFloor) {
      std::fprintf(stderr,
                   "capacity-compare: '%s' throughput collapsed: %.0f "
                   "ops/s (baseline %.0f, floor %.2fx)\n",
                   label.c_str(), cur.ops_per_s, base.ops_per_s,
                   kThroughputFloor);
      row_code = 1;
    }
    if (row_code == 0)
      std::printf("capacity-compare: %s: rss %.0f <= %.0f, %.0f ops/s OK\n",
                  label.c_str(), cur.peak_rss, base.peak_rss * kRssSlack,
                  cur.ops_per_s);
    code |= row_code;
  }
  return code;
}

/// Load + parse + validate one scale-lint-v1 document.
std::optional<scale::obs::Json> load_lint(const char* path, bool* io_error) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "%s: cannot open\n", path);
    *io_error = true;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  auto doc = scale::obs::Json::parse(buf.str(), &error);
  if (!doc.has_value()) {
    std::fprintf(stderr, "%s: parse error: %s\n", path, error.c_str());
    return std::nullopt;
  }
  const auto problems = scale::obs::validate_lint_json(*doc);
  for (const auto& p : problems)
    std::fprintf(stderr, "%s: %s\n", path, p.c_str());
  if (!problems.empty()) return std::nullopt;
  return doc;
}

/// Multiset of entries in a lint-report array, keyed stably *without* line
/// numbers, so unrelated edits shifting a file do not churn the baseline.
std::map<std::string, int> lint_entry_counts(const scale::obs::Json& doc,
                                             const char* array_key,
                                             bool waiver) {
  std::map<std::string, int> out;
  const auto* arr = doc.find(array_key);
  if (arr == nullptr) return out;
  for (const auto& e : arr->elements()) {
    const std::string key =
        e.find("file")->as_string() + "\x01" +
        (waiver ? e.find("kind")->as_string() : e.find("rule")->as_string()) +
        "\x01" +
        (waiver ? e.find("reason")->as_string()
                : e.find("message")->as_string());
    ++out[key];
  }
  return out;
}

/// Human rendering of a multiset key built above.
std::string lint_key_pretty(const std::string& key) {
  std::string s = key;
  for (auto& c : s)
    if (c == '\x01') c = ' ';
  return s;
}

/// The lint gate: every finding and every waiver in the current report must
/// already exist in the baseline (count-wise, so duplicates are handled).
/// Entries that *disappeared* are fine — the tree got cleaner — but are
/// reported as info so the baseline gets refreshed.
int compare_lint(const char* baseline_path, const char* current_path) {
  bool io_error = false;
  const auto baseline = load_lint(baseline_path, &io_error);
  const auto current = load_lint(current_path, &io_error);
  if (io_error) return 2;
  if (!baseline.has_value() || !current.has_value()) return 1;

  int code = 0;
  for (const bool waiver : {false, true}) {
    const char* what = waiver ? "waiver" : "finding";
    const char* array_key = waiver ? "waivers" : "findings";
    const auto want = lint_entry_counts(*baseline, array_key, waiver);
    const auto got = lint_entry_counts(*current, array_key, waiver);
    for (const auto& [key, n] : got) {
      const auto it = want.find(key);
      const int base_n = it == want.end() ? 0 : it->second;
      if (n > base_n) {
        std::fprintf(stderr,
                     "lint-compare: new %s (%d, baseline %d): %s\n"
                     "lint-compare: review it, then re-baseline via "
                     "scripts/lint_baseline.sh\n",
                     what, n, base_n, lint_key_pretty(key).c_str());
        code = 1;
      }
    }
    for (const auto& [key, n] : want) {
      const auto it = got.find(key);
      const int cur_n = it == got.end() ? 0 : it->second;
      if (cur_n < n)
        std::printf("lint-compare: %s gone (good — re-baseline): %s\n", what,
                    lint_key_pretty(key).c_str());
    }
  }
  if (code == 0) std::printf("lint-compare: no new findings or waivers\n");
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <file.json>...\n"
                 "       %s --compare-allocs <baseline.json> <current.json>\n"
                 "       %s --compare-capacity <baseline.json> "
                 "<current.json>\n"
                 "       %s --lint <file.json>...\n"
                 "       %s --compare-lint <baseline.json> <current.json>\n",
                 argv[0], argv[0], argv[0], argv[0], argv[0]);
    return 2;
  }
  if (std::string(argv[1]) == "--compare-capacity") {
    if (argc != 4) {
      std::fprintf(
          stderr,
          "usage: %s --compare-capacity <baseline.json> <current.json>\n",
          argv[0]);
      return 2;
    }
    return compare_capacity(argv[2], argv[3]);
  }
  if (std::string(argv[1]) == "--compare-allocs") {
    if (argc != 4) {
      std::fprintf(stderr,
                   "usage: %s --compare-allocs <baseline.json> <current.json>\n",
                   argv[0]);
      return 2;
    }
    return compare_allocs(argv[2], argv[3]);
  }
  if (std::string(argv[1]) == "--compare-lint") {
    if (argc != 4) {
      std::fprintf(stderr,
                   "usage: %s --compare-lint <baseline.json> <current.json>\n",
                   argv[0]);
      return 2;
    }
    return compare_lint(argv[2], argv[3]);
  }
  if (std::string(argv[1]) == "--lint") {
    if (argc < 3) {
      std::fprintf(stderr, "usage: %s --lint <file.json>...\n", argv[0]);
      return 2;
    }
    int code = 0;
    for (int i = 2; i < argc; ++i) {
      bool io_error = false;
      const auto doc = load_lint(argv[i], &io_error);
      if (io_error) return 2;
      if (!doc.has_value()) {
        code = 1;
        continue;
      }
      std::printf("%s: OK (%lld finding(s), %lld waiver(s))\n", argv[i],
                  static_cast<long long>(
                      doc->find("counts")->find("findings")->as_int()),
                  static_cast<long long>(
                      doc->find("counts")->find("waivers")->as_int()));
    }
    return code;
  }
  int code = 0;
  for (int i = 1; i < argc; ++i) {
    bool io_error = false;
    const auto doc = load_bench(argv[i], &io_error);
    if (io_error) return 2;
    if (!doc.has_value()) {
      code = 1;
      continue;
    }
    std::printf("%s: OK (%s)\n", argv[i], doc->find("bench")->as_string().c_str());
  }
  return code;
}
