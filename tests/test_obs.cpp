// ScaleScope observability layer: Json document model, MetricsRegistry
// naming/enumeration/snapshot-diff, Tracer span bookkeeping (including
// retransmission annotations from the reliable shim), Report schema, and
// the determinism contract — two same-seed runs must produce byte-identical
// metric JSON and trace JSON.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/check.h"
#include "epc/fabric.h"
#include "epc/reliable.h"
#include "mme/pool.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "proto/s11.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "testbed/testbed.h"

namespace scale {
namespace {

// ----------------------------------------------------------------- Json

TEST(ObsJson, RoundTripsThroughParse) {
  obs::Json doc = obs::Json::object();
  doc.set("name", "mmp.3.queue_depth");
  doc.set("count", 42);
  doc.set("mean", 1.5);
  doc.set("empty", obs::Json(nullptr));
  obs::Json arr = obs::Json::array();
  arr.push_back(true);
  arr.push_back("two\nlines \"quoted\"");
  doc.set("arr", std::move(arr));

  const std::string text = doc.dump();
  std::string error;
  const auto parsed = obs::Json::parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->dump(), text);
  EXPECT_EQ(parsed->find("count")->as_int(), 42);
  EXPECT_EQ(parsed->find("arr")->elements()[1].as_string(),
            "two\nlines \"quoted\"");
}

TEST(ObsJson, NonFiniteNumbersSerializeAsNull) {
  obs::Json doc = obs::Json::object();
  doc.set("nan", std::nan(""));
  EXPECT_EQ(doc.dump(), "{\"nan\":null}");
}

TEST(ObsJson, MembersKeepInsertionOrderAndSetReplaces) {
  obs::Json doc = obs::Json::object();
  doc.set("z", 1);
  doc.set("a", 2);
  doc.set("z", 3);  // replaces in place, does not reorder
  EXPECT_EQ(doc.dump(), "{\"z\":3,\"a\":2}");
}

// ------------------------------------------------------------- Registry

TEST(ObsRegistry, RejectsMalformedNames) {
  obs::MetricsRegistry reg;
  EXPECT_THROW(reg.inc(""), CheckError);
  EXPECT_THROW(reg.inc(".leading"), CheckError);
  EXPECT_THROW(reg.inc("trailing."), CheckError);
  EXPECT_THROW(reg.inc("spa ce"), CheckError);
  reg.inc("mlb.redirects");  // valid: letters, digits, '.', '_', '-'
  EXPECT_EQ(reg.counter("mlb.redirects"), 1u);
}

TEST(ObsRegistry, EnumerationIsSortedRegardlessOfInsertion) {
  obs::MetricsRegistry reg;
  reg.inc("mmp.3.queue_depth");
  reg.set("mlb.utilization", 0.5);
  reg.inc("engine.events");
  reg.observe("mmp.1.delay_ms", 4.0);
  const std::vector<std::string> names = reg.names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "engine.events");
  EXPECT_EQ(names[1], "mlb.utilization");
  EXPECT_EQ(names[2], "mmp.1.delay_ms");
  EXPECT_EQ(names[3], "mmp.3.queue_depth");
  const auto mmp = reg.names_with_prefix("mmp.");
  ASSERT_EQ(mmp.size(), 2u);
  EXPECT_EQ(mmp[0], "mmp.1.delay_ms");
  EXPECT_EQ(mmp[1], "mmp.3.queue_depth");
}

TEST(ObsRegistry, KindsAreSticky) {
  obs::MetricsRegistry reg;
  reg.inc("a.counter");
  EXPECT_THROW(reg.set("a.counter", 1.0), CheckError);
  EXPECT_THROW(reg.observe("a.counter", 1.0), CheckError);
}

TEST(ObsRegistry, HistogramSnapshotDiffSubtractsCounts) {
  obs::MetricsRegistry reg;
  reg.observe("ue.delay_ms", 10.0);
  reg.observe("ue.delay_ms", 20.0);
  reg.inc("net.messages", 5);
  const obs::MetricsRegistry::Snapshot before = reg.snapshot();

  for (int i = 0; i < 8; ++i) reg.observe("ue.delay_ms", 100.0);
  reg.inc("net.messages", 3);
  const obs::MetricsRegistry::Snapshot after = reg.snapshot();

  const obs::MetricsRegistry::Snapshot delta = after.diff(before);
  const auto& delay = delta.values.at("ue.delay_ms");
  EXPECT_EQ(delay.count, 8u);
  EXPECT_DOUBLE_EQ(delay.sum, 800.0);
  EXPECT_DOUBLE_EQ(delay.mean, 100.0);
  EXPECT_EQ(delta.values.at("net.messages").counter, 3u);
  // The interval view keeps the later percentile summary.
  EXPECT_DOUBLE_EQ(delay.p99, after.values.at("ue.delay_ms").p99);
}

TEST(ObsRegistry, JsonExportIsSortedAndTyped) {
  obs::MetricsRegistry reg;
  reg.set("b.gauge", 2.5);
  reg.inc("a.counter", 7);
  const std::string text = reg.to_json().dump();
  // Members follow sorted metric-name order, not insertion order.
  EXPECT_LT(text.find("a.counter"), text.find("b.gauge"));
  EXPECT_NE(text.find("\"counter\""), std::string::npos);
  EXPECT_NE(text.find("\"gauge\""), std::string::npos);
}

// --------------------------------------------------------------- Tracer

TEST(ObsTracer, SpansNestAndBalance) {
  obs::Tracer tr;
  tr.set_track_name(1, "mmp.1");
  tr.begin(1, "attach", Time::from_sec(1.0));
  tr.begin(1, "auth", Time::from_sec(1.1));
  EXPECT_EQ(tr.open_spans(1), 2u);
  tr.end(1, Time::from_sec(1.2));
  tr.end(1, Time::from_sec(1.5));
  EXPECT_EQ(tr.open_spans(1), 0u);
  EXPECT_THROW(tr.end(1, Time::from_sec(2.0)), CheckError);  // nothing open
  EXPECT_EQ(tr.count_named("attach"), 1u);
  EXPECT_EQ(tr.event_count(), 4u);
}

TEST(ObsTracer, CurrentInstallRestores) {
  EXPECT_EQ(obs::Tracer::current(), nullptr);
  {
    obs::Tracer tr;
    obs::Tracer* prev = obs::Tracer::install(&tr);
    EXPECT_EQ(prev, nullptr);
    EXPECT_EQ(obs::Tracer::current(), &tr);
    obs::Tracer::install(prev);
  }
  EXPECT_EQ(obs::Tracer::current(), nullptr);
}

// Retransmission annotations: a link-down window forces the reliable shim
// to retransmit; with a tracer installed those attempts surface as
// "rto_retransmit" instants and the hop events still record exactly one
// application-level delivery.
struct TracedRelNode final : epc::Endpoint {
  epc::ReliableChannel rel;
  int delivered = 0;

  explicit TracedRelNode(epc::Fabric& f) : Endpoint(f), rel(f, node()) {}

  void receive(sim::NodeId from, const proto::PduRef& ref) override {
    if (rel.unwrap(from, ref) != nullptr) ++delivered;
  }
};

TEST(ObsTracer, RetransmissionAnnotationsUnderLinkFault) {
  sim::Engine engine;
  sim::Network net{Duration::us(500), 42};
  epc::Fabric fabric{engine, net};
  epc::TransportConfig t;
  t.reliable = true;
  fabric.set_transport(t);

  obs::Tracer tr;
  obs::Tracer* prev = obs::Tracer::install(&tr);
  TracedRelNode a(fabric), b(fabric);
  net.schedule_link_down(a.node(), b.node(), Time::zero(), Time::from_sec(1.0));
  proto::CreateSessionRequest req;
  req.imsi = 77;
  a.rel.send(b.node(), proto::box(req));
  engine.run_until(Time::from_sec(30.0));
  obs::Tracer::install(prev);

  EXPECT_EQ(b.delivered, 1);
  EXPECT_GE(tr.count_named("rto_retransmit"), 1u);
  EXPECT_GE(tr.count_named("fault"), 1u);  // the link-down drops themselves
  // The trace document parses and is a flat event array.
  std::string error;
  const auto doc = obs::Json::parse(tr.dump(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_TRUE(doc->find("traceEvents")->is_array());
}

// ---------------------------------------------------------------- Report

TEST(ObsReport, JsonValidatesAgainstSchema) {
  obs::Report rep("unit_bench", "schema round trip");
  auto& sec = rep.section("numbers");
  sec.columns({"x", "y"});
  sec.row({1.0, 2.0});
  sec.row("labeled", {std::nan("")});
  PercentileSampler s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  sec.cdf("delays", s, 4);
  sec.note("a note");
  rep.note("top-level note");
  obs::MetricsRegistry reg;
  reg.inc("c", 3);
  rep.attach_metrics(reg);

  const obs::Json doc = rep.to_json();
  EXPECT_TRUE(obs::validate_bench_json(doc).empty());
  // NaN cells serialize as null and still validate.
  const auto reparsed = obs::Json::parse(doc.pretty());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_TRUE(obs::validate_bench_json(*reparsed).empty());
}

TEST(ObsReport, ValidatorFlagsBrokenDocuments) {
  const auto bad = obs::Json::parse(R"({"schema":"scale-bench-v1",
      "bench":"", "title":"t", "sections":[{"name":1}]})");
  ASSERT_TRUE(bad.has_value());
  const auto problems = obs::validate_bench_json(*bad);
  EXPECT_GE(problems.size(), 2u);  // empty bench + non-string section name
}

// ----------------------------------------------------- determinism golden

struct GoldenRun {
  std::string metrics_json;
  std::string trace_json;
};

// A small end-to-end scenario: faulty links + reliable transport + real
// UE attaches, with both the tracer and the registry active.
GoldenRun golden_run() {
  testbed::Testbed::Config cfg;
  cfg.seed = 7;
  cfg.transport.reliable = true;
  obs::Tracer tr;
  obs::Tracer* prev = obs::Tracer::install(&tr);
  testbed::Testbed tb(cfg);
  auto& site = tb.add_site(2);
  mme::MmePool::Config pool_cfg;
  pool_cfg.node_template.sgw = site.sgw->node();
  pool_cfg.node_template.hss = tb.hss().node();
  mme::MmePool pool(tb.fabric(), pool_cfg);
  for (auto& enb : site.enbs) pool.connect_enb(*enb);
  sim::LinkFaults f;
  f.drop_prob = 0.1;
  tb.network().set_global_faults(f);
  tb.make_ues(site, 40, {0.5});
  tb.register_all(site, Duration::sec(5.0), Duration::sec(5.0));
  obs::Tracer::install(prev);

  obs::MetricsRegistry reg;
  tb.export_metrics(reg);
  pool.export_metrics(reg, "mme");
  GoldenRun out;
  out.metrics_json = reg.to_json().pretty();
  out.trace_json = tr.dump();
  return out;
}

TEST(ObsDeterminism, SameSeedRunsAreByteIdentical) {
  const GoldenRun first = golden_run();
  const GoldenRun second = golden_run();
  EXPECT_EQ(first.metrics_json, second.metrics_json);
  EXPECT_EQ(first.trace_json, second.trace_json);
  // The run actually exercised the instrumented paths.
  EXPECT_NE(first.trace_json.find("\"attach\""), std::string::npos);
  EXPECT_NE(first.metrics_json.find("ue.delay_ms.attach"), std::string::npos);
}

// Typed DelayRecorder call sites land in the same buckets as the legacy
// string path (the fingerprint depends on it).
TEST(ObsDeterminism, TypedDelayRecorderSharesStringBuckets) {
  sim::DelayRecorder rec;
  rec.record(proto::ProcedureType::kAttach, Duration::ms(5.0));
  rec.record("attach", Duration::ms(7.0));
  ASSERT_TRUE(rec.has("attach"));
  ASSERT_TRUE(rec.has(proto::ProcedureType::kAttach));
  EXPECT_EQ(rec.bucket("attach").count(), 2u);
  EXPECT_EQ(proto::parse_procedure_name("attach"),
            proto::ProcedureType::kAttach);
  EXPECT_FALSE(proto::parse_procedure_name("bogus").has_value());
}

}  // namespace
}  // namespace scale
