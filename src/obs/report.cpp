#include "obs/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>

namespace scale::obs {

Report::Report(std::string name, std::string title)
    : name_(std::move(name)), title_(std::move(title)) {
  std::printf("\n==================================================\n");
  std::printf("%s — %s\n", name_.c_str(), title_.c_str());
  std::printf("==================================================\n");
}

Report::Section& Report::section(std::string_view name) {
  std::printf("\n--- %.*s ---\n", static_cast<int>(name.size()), name.data());
  sections_.push_back(Section(std::string(name)));
  return sections_.back();
}

Report& Report::note(std::string_view text) {
  std::printf("%.*s\n", static_cast<int>(text.size()), text.data());
  notes_.emplace_back(text);
  return *this;
}

Report& Report::attach_metrics(const MetricsRegistry& registry) {
  metrics_ = registry.to_json();
  return *this;
}

Report::Section& Report::Section::columns(const std::vector<std::string>& cols) {
  for (const auto& c : cols) std::printf("%14s", c.c_str());
  std::printf("\n");
  columns_ = cols;
  return *this;
}

Report::Section& Report::Section::row(const std::vector<double>& values) {
  for (const double v : values) std::printf("%14.2f", v);
  std::printf("\n");
  rows_.push_back(Row{std::nullopt, values});
  return *this;
}

Report::Section& Report::Section::row(std::string_view label,
                                      const std::vector<double>& values) {
  std::printf("%14.*s", static_cast<int>(label.size()), label.data());
  for (const double v : values) std::printf("%14.2f", v);
  std::printf("\n");
  rows_.push_back(Row{std::string(label), values});
  return *this;
}

Report::Section& Report::Section::cdf(std::string_view label,
                                      const PercentileSampler& s,
                                      std::size_t points) {
  Cdf c;
  c.label = std::string(label);
  c.count = s.count();
  if (!s.empty()) {
    c.p50 = s.percentile(0.50);
    c.p95 = s.percentile(0.95);
    c.p99 = s.percentile(0.99);
    c.points = s.cdf(points);
  } else {
    c.p50 = c.p95 = c.p99 = std::nan("");
  }
  std::printf("%s: n=%llu p50=%.1fms p95=%.1fms p99=%.1fms\n", c.label.c_str(),
              static_cast<unsigned long long>(c.count), c.p50, c.p95, c.p99);
  std::printf("  CDF:");
  for (const auto& [x, f] : c.points) std::printf(" (%.0fms,%.2f)", x, f);
  std::printf("\n");
  cdfs_.push_back(std::move(c));
  return *this;
}

Report::Section& Report::Section::note(std::string_view text) {
  std::printf("%.*s\n", static_cast<int>(text.size()), text.data());
  notes_.emplace_back(text);
  return *this;
}

Json Report::to_json() const {
  Json doc = Json::object();
  doc.set("schema", "scale-bench-v1");
  doc.set("bench", name_);
  doc.set("title", title_);
  Json sections = Json::array();
  for (const auto& s : sections_) {
    Json sec = Json::object();
    sec.set("name", s.name_);
    Json cols = Json::array();
    for (const auto& c : s.columns_) cols.push_back(c);
    sec.set("columns", std::move(cols));
    Json rows = Json::array();
    for (const auto& r : s.rows_) {
      Json row = Json::object();
      if (r.label) row.set("label", *r.label);
      Json vals = Json::array();
      for (const double v : r.values) vals.push_back(v);
      row.set("values", std::move(vals));
      rows.push_back(std::move(row));
    }
    sec.set("rows", std::move(rows));
    Json cdfs = Json::array();
    for (const auto& c : s.cdfs_) {
      Json cdf = Json::object();
      cdf.set("label", c.label);
      cdf.set("count", c.count);
      cdf.set("p50", c.p50);
      cdf.set("p95", c.p95);
      cdf.set("p99", c.p99);
      Json pts = Json::array();
      for (const auto& [x, f] : c.points) {
        Json pt = Json::array();
        pt.push_back(x);
        pt.push_back(f);
        pts.push_back(std::move(pt));
      }
      cdf.set("points", std::move(pts));
      cdfs.push_back(std::move(cdf));
    }
    sec.set("cdfs", std::move(cdfs));
    Json notes = Json::array();
    for (const auto& n : s.notes_) notes.push_back(n);
    sec.set("notes", std::move(notes));
    sections.push_back(std::move(sec));
  }
  doc.set("sections", std::move(sections));
  Json notes = Json::array();
  for (const auto& n : notes_) notes.push_back(n);
  doc.set("notes", std::move(notes));
  if (metrics_) doc.set("metrics", *metrics_);
  return doc;
}

bool Report::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const std::string text = to_json().pretty();
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool ok = (written == text.size()) && std::fclose(f) == 0;
  if (written != text.size()) std::fclose(f);
  return ok;
}

namespace {

/// The rows of a scale-lint-v1 report's counts.by_rule (there is no L8).
constexpr const char* kLintRules[] = {"L1", "L2", "L3", "L4",
                                      "L5", "L6", "L7", "L9"};

void expect_string_array(const Json* arr, const char* where,
                         std::vector<std::string>& problems) {
  if (!arr) return;
  if (!arr->is_array()) {
    problems.push_back(std::string(where) + " is not an array");
    return;
  }
  for (const auto& e : arr->elements()) {
    if (!e.is_string()) {
      problems.push_back(std::string(where) + " has a non-string entry");
      return;
    }
  }
}

bool number_or_null(const Json& v) { return v.is_number() || v.is_null(); }

}  // namespace

std::vector<std::string> validate_bench_json(const Json& doc) {
  std::vector<std::string> problems;
  if (!doc.is_object()) {
    problems.push_back("document is not a JSON object");
    return problems;
  }
  const Json* schema = doc.find("schema");
  if (!schema || !schema->is_string() ||
      schema->as_string() != "scale-bench-v1") {
    problems.push_back("schema must be the string \"scale-bench-v1\"");
  }
  for (const char* key : {"bench", "title"}) {
    const Json* v = doc.find(key);
    if (!v || !v->is_string() || v->as_string().empty())
      problems.push_back(std::string(key) + " must be a non-empty string");
  }
  expect_string_array(doc.find("notes"), "notes", problems);
  const Json* metrics = doc.find("metrics");
  if (metrics && !metrics->is_object())
    problems.push_back("metrics must be an object");
  const Json* sections = doc.find("sections");
  if (!sections || !sections->is_array()) {
    problems.push_back("sections must be an array");
    return problems;
  }
  std::size_t si = 0;
  for (const auto& sec : sections->elements()) {
    const std::string at = "sections[" + std::to_string(si++) + "]";
    if (!sec.is_object()) {
      problems.push_back(at + " is not an object");
      continue;
    }
    const Json* name = sec.find("name");
    if (!name || !name->is_string() || name->as_string().empty())
      problems.push_back(at + ".name must be a non-empty string");
    expect_string_array(sec.find("columns"), (at + ".columns").c_str(),
                        problems);
    expect_string_array(sec.find("notes"), (at + ".notes").c_str(), problems);
    if (const Json* rows = sec.find("rows")) {
      if (!rows->is_array()) {
        problems.push_back(at + ".rows is not an array");
      } else {
        std::size_t ri = 0;
        for (const auto& row : rows->elements()) {
          const std::string rat = at + ".rows[" + std::to_string(ri++) + "]";
          if (!row.is_object()) {
            problems.push_back(rat + " is not an object");
            continue;
          }
          if (const Json* label = row.find("label");
              label && !label->is_string())
            problems.push_back(rat + ".label is not a string");
          const Json* values = row.find("values");
          if (!values || !values->is_array()) {
            problems.push_back(rat + ".values must be an array");
            continue;
          }
          for (const auto& v : values->elements()) {
            if (!number_or_null(v)) {
              problems.push_back(rat + ".values has a non-numeric entry");
              break;
            }
          }
        }
      }
    }
    if (const Json* cdfs = sec.find("cdfs")) {
      if (!cdfs->is_array()) {
        problems.push_back(at + ".cdfs is not an array");
      } else {
        std::size_t ci = 0;
        for (const auto& cdf : cdfs->elements()) {
          const std::string cat = at + ".cdfs[" + std::to_string(ci++) + "]";
          if (!cdf.is_object()) {
            problems.push_back(cat + " is not an object");
            continue;
          }
          if (const Json* label = cdf.find("label");
              !label || !label->is_string())
            problems.push_back(cat + ".label must be a string");
          if (const Json* count = cdf.find("count");
              !count || count->type() != Json::Type::kInt)
            problems.push_back(cat + ".count must be an integer");
          for (const char* q : {"p50", "p95", "p99"}) {
            const Json* v = cdf.find(q);
            if (!v || !number_or_null(*v))
              problems.push_back(cat + "." + q + " must be a number or null");
          }
          const Json* points = cdf.find("points");
          if (!points || !points->is_array()) {
            problems.push_back(cat + ".points must be an array");
            continue;
          }
          for (const auto& pt : points->elements()) {
            if (!pt.is_array() || pt.size() != 2 ||
                !pt.elements()[0].is_number() ||
                !pt.elements()[1].is_number()) {
              problems.push_back(cat + ".points entries must be [x, F] pairs");
              break;
            }
          }
        }
      }
    }
  }
  return problems;
}

std::vector<std::string> validate_lint_json(const Json& doc) {
  std::vector<std::string> problems;
  if (!doc.is_object()) {
    problems.push_back("document is not a JSON object");
    return problems;
  }
  const Json* schema = doc.find("schema");
  if (!schema || !schema->is_string() ||
      schema->as_string() != "scale-lint-v1") {
    problems.push_back("schema must be the string \"scale-lint-v1\"");
  }
  if (const Json* tool = doc.find("tool");
      !tool || !tool->is_string() || tool->as_string() != "scale_lint")
    problems.push_back("tool must be the string \"scale_lint\"");

  auto expect_count = [&](const Json* obj, const char* key,
                          const std::string& at) -> std::int64_t {
    const Json* v = obj ? obj->find(key) : nullptr;
    if (!v || v->type() != Json::Type::kInt || v->as_int() < 0) {
      problems.push_back(at + "." + key + " must be a non-negative integer");
      return -1;
    }
    return v->as_int();
  };

  const Json* scanned = doc.find("scanned");
  if (!scanned || !scanned->is_object()) {
    problems.push_back("scanned must be an object");
  } else {
    expect_count(scanned, "files", "scanned");
    expect_count(scanned, "include_edges", "scanned");
    expect_count(scanned, "globals_indexed", "scanned");
  }

  const Json* counts = doc.find("counts");
  std::int64_t declared_findings = -1;
  std::int64_t declared_waivers = -1;
  std::int64_t by_rule_sum = -1;
  if (!counts || !counts->is_object()) {
    problems.push_back("counts must be an object");
  } else {
    declared_findings = expect_count(counts, "findings", "counts");
    declared_waivers = expect_count(counts, "waivers", "counts");
    const Json* by_rule = counts->find("by_rule");
    if (!by_rule || !by_rule->is_object()) {
      problems.push_back("counts.by_rule must be an object");
    } else {
      by_rule_sum = 0;
      for (const char* rule : kLintRules) {
        const std::int64_t n = expect_count(by_rule, rule, "counts.by_rule");
        if (n >= 0) by_rule_sum += n;
      }
      if (by_rule->members().size() != std::size(kLintRules))
        problems.push_back("counts.by_rule must hold exactly L1..L7 and L9");
    }
  }

  const Json* findings = doc.find("findings");
  if (!findings || !findings->is_array()) {
    problems.push_back("findings must be an array");
  } else {
    std::size_t fi = 0;
    std::string prev_key;
    for (const auto& f : findings->elements()) {
      const std::string at = "findings[" + std::to_string(fi++) + "]";
      if (!f.is_object()) {
        problems.push_back(at + " is not an object");
        continue;
      }
      for (const char* key : {"file", "rule", "message"}) {
        const Json* v = f.find(key);
        if (!v || !v->is_string() || v->as_string().empty())
          problems.push_back(at + "." + key + " must be a non-empty string");
      }
      if (const Json* line = f.find("line");
          !line || line->type() != Json::Type::kInt || line->as_int() < 1)
        problems.push_back(at + ".line must be a positive integer");
      if (const Json* rule = f.find("rule"); rule && rule->is_string()) {
        if (std::find(std::begin(kLintRules), std::end(kLintRules),
                      rule->as_string()) == std::end(kLintRules))
          problems.push_back(at + ".rule must be one of L1..L7, L9");
      }
      // Determinism contract: findings sort by (file, line, rule).
      const Json* file = f.find("file");
      const Json* line = f.find("line");
      const Json* rule = f.find("rule");
      if (file && file->is_string() && line &&
          line->type() == Json::Type::kInt && rule && rule->is_string()) {
        char lbuf[24];
        std::snprintf(lbuf, sizeof(lbuf), "%012lld",
                      static_cast<long long>(line->as_int()));
        const std::string key =
            file->as_string() + "\x01" + lbuf + "\x01" + rule->as_string();
        if (!prev_key.empty() && key < prev_key)
          problems.push_back(at + " breaks (file, line, rule) sort order");
        prev_key = key;
      }
    }
    if (declared_findings >= 0 &&
        declared_findings != static_cast<std::int64_t>(fi))
      problems.push_back("counts.findings does not match findings[] length");
    if (by_rule_sum >= 0 && by_rule_sum != static_cast<std::int64_t>(fi))
      problems.push_back("counts.by_rule does not sum to findings[] length");
  }

  const Json* waivers = doc.find("waivers");
  if (!waivers || !waivers->is_array()) {
    problems.push_back("waivers must be an array");
  } else {
    std::size_t wi = 0;
    for (const auto& w : waivers->elements()) {
      const std::string at = "waivers[" + std::to_string(wi++) + "]";
      if (!w.is_object()) {
        problems.push_back(at + " is not an object");
        continue;
      }
      if (const Json* file = w.find("file");
          !file || !file->is_string() || file->as_string().empty())
        problems.push_back(at + ".file must be a non-empty string");
      if (const Json* line = w.find("line");
          !line || line->type() != Json::Type::kInt || line->as_int() < 1)
        problems.push_back(at + ".line must be a positive integer");
      const Json* kind = w.find("kind");
      if (!kind || !kind->is_string() ||
          (kind->as_string() != "order-independent" &&
           kind->as_string() != "by-value-ok" &&
           kind->as_string() != "shard-local" &&
           kind->as_string() != "shard-shared" &&
           kind->as_string() != "unreached"))
        problems.push_back(at + ".kind must be a known waiver kind");
      if (const Json* reason = w.find("reason"); !reason || !reason->is_string())
        problems.push_back(at + ".reason must be a string");
    }
    if (declared_waivers >= 0 &&
        declared_waivers != static_cast<std::int64_t>(wi))
      problems.push_back("counts.waivers does not match waivers[] length");
  }

  return problems;
}

}  // namespace scale::obs
