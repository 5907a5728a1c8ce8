// Report — the single output path for every figure bench.
//
// A Report renders the familiar aligned stdout table (banner / sections /
// %14-padded rows, exactly what bench_util.h used to printf) while
// accumulating the same data into a schema'd JSON document
// ("scale-bench-v1"), written as BENCH_<name>.json when the bench is run
// with --json <path>. One builder, two renderings — the table can never
// drift from the machine-readable record.
//
// NaN values print as "nan" in the table and serialize as JSON null (the
// honest encoding for "no samples in this window" — see
// OnlineStats::min/max and the empty-bucket percentile guards).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "obs/json.h"
#include "obs/registry.h"

namespace scale::obs {

class Report {
 public:
  class Section {
   public:
    /// Print + record the column header row.
    Section& columns(const std::vector<std::string>& cols);
    /// Numeric row (each cell "%14.2f"; NaN renders as "nan").
    Section& row(const std::vector<double>& values);
    /// Labeled row: "%14s" label cell, then numeric cells.
    Section& row(std::string_view label, const std::vector<double>& values);
    /// Compact CDF summary (n/p50/p95/p99 + `points` curve samples).
    Section& cdf(std::string_view label, const PercentileSampler& s,
                 std::size_t points = 12);
    /// Free-form annotation line (printed verbatim).
    Section& note(std::string_view text);

   private:
    friend class Report;
    struct Row {
      std::optional<std::string> label;
      std::vector<double> values;
    };
    struct Cdf {
      std::string label;
      std::uint64_t count = 0;
      double p50 = 0.0, p95 = 0.0, p99 = 0.0;
      std::vector<std::pair<double, double>> points;
    };
    explicit Section(std::string name) : name_(std::move(name)) {}
    std::string name_;
    std::vector<std::string> columns_;
    std::vector<Row> rows_;
    std::vector<Cdf> cdfs_;
    std::vector<std::string> notes_;
  };

  /// Prints the bench banner. `name` is the machine id ("fig10_simulation");
  /// `title` the human one ("Fig. 10 — large-scale simulation").
  Report(std::string name, std::string title);

  /// Starts (and prints) a new section; the reference stays valid for the
  /// lifetime of the Report.
  Section& section(std::string_view name);
  /// Report-level annotation line (printed verbatim).
  Report& note(std::string_view text);
  /// Embed a metrics-registry snapshot under "metrics" in the JSON
  /// document (not printed to the table).
  Report& attach_metrics(const MetricsRegistry& registry);

  [[nodiscard]] Json to_json() const;
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  std::string name_;
  std::string title_;
  std::deque<Section> sections_;  // deque: stable references on append
  std::vector<std::string> notes_;
  std::optional<Json> metrics_;
};

/// Validate a parsed document against the "scale-bench-v1" schema; returns
/// human-readable problems (empty = valid). Shared by tests and the
/// in-tree `bench_json_check` tool that tier1.sh runs.
[[nodiscard]] std::vector<std::string> validate_bench_json(const Json& doc);

/// Validate a parsed document against the "scale-lint-v1" schema emitted by
/// `scale_lint --json` (DESIGN.md §6): findings + waiver inventory with
/// internally consistent counts, sorted deterministically. Shared by tests
/// and the `bench_json_check --lint` / `--compare-lint` modes that gate
/// tier-1 on the committed LINT_baseline.json.
[[nodiscard]] std::vector<std::string> validate_lint_json(const Json& doc);

}  // namespace scale::obs
