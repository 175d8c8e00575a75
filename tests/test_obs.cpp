// Observability layer: metric correctness, span nesting and exception
// unwinding, event JSONL round-trips, sink behavior, and the two
// contracts the attack code depends on:
//  - fixed-seed runs emit deterministic telemetry (wall-clock fields
//    excepted, by the _us/_ms/_per_s key convention);
//  - instrumentation never perturbs attack results: rankings and
//    correlations are bit-identical with and without a sink installed.
// When built with FD_OBS=OFF the recording tests skip and the no-op
// stubs plus the always-compiled jsonl/sink core are exercised instead.

#include <gtest/gtest.h>

#ifdef FD_REPORT_BIN
#include <sys/wait.h>
#endif

#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attack/extend_prune.h"
#include "attack/hypothesis.h"
#include "attack/key_recovery.h"
#include "attack/recovery_pipeline.h"
#include "attack/streaming_cpa.h"
#include "common/rng.h"
#include "falcon/falcon.h"
#include "obs/obs.h"
#include "sca/campaign.h"

using namespace fd;

namespace {

class TempFile {
 public:
  explicit TempFile(const char* name) : path_(std::string("obs_test_") + name) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return lines;
  std::string line;
  int ch;
  while ((ch = std::fgetc(f)) != EOF) {
    if (ch == '\n') {
      lines.push_back(line);
      line.clear();
    } else {
      line.push_back(static_cast<char>(ch));
    }
  }
  if (!line.empty()) lines.push_back(line);
  std::fclose(f);
  return lines;
}

bool is_wallclock_key(std::string_view key) {
  const auto ends_with = [&](std::string_view suffix) {
    return key.size() >= suffix.size() &&
           key.substr(key.size() - suffix.size()) == suffix;
  };
  return ends_with("_us") || ends_with("_ms") || ends_with("_per_s");
}

// Serialized event with wall-clock fields dropped: the deterministic
// residue two identical fixed-seed runs must agree on byte for byte.
std::string deterministic_view(const obs::Event& ev) {
  obs::Event filtered;
  filtered.name = ev.name;
  for (const auto& [key, value] : ev.fields) {
    if (!is_wallclock_key(key)) filtered.fields.emplace_back(key, value);
  }
  return obs::to_jsonl(filtered);
}

}  // namespace

// ---- always-compiled core: jsonl + event serialization -------------------

TEST(ObsJsonl, EventRoundTripsThroughParser) {
  obs::Event ev;
  ev.name = "unit.test";
  ev.add("count", obs::FieldValue::of(std::uint64_t{12345678901234ULL}));
  ev.add("delta", obs::FieldValue::of(std::int64_t{-42}));
  ev.add("ratio", obs::FieldValue::of(0.625));
  ev.add("flag", obs::FieldValue::of(true));
  ev.add("label", obs::FieldValue::of(std::string_view("slot7.im \"q\"\n")));

  const std::string line = obs::to_jsonl(ev);
  obs::jsonl::Object obj;
  std::string err;
  ASSERT_TRUE(obs::jsonl::parse_object(line, obj, &err)) << err << " in " << line;

  EXPECT_EQ(obj.str("ev"), "unit.test");
  EXPECT_EQ(obj.num("count"), 12345678901234.0);
  EXPECT_EQ(obj.num("delta"), -42.0);
  EXPECT_EQ(obj.num("ratio"), 0.625);
  ASSERT_NE(obj.find("flag"), nullptr);
  EXPECT_EQ(obj.find("flag")->kind, obs::jsonl::Value::Kind::kBool);
  EXPECT_TRUE(obj.find("flag")->b);
  EXPECT_EQ(obj.str("label"), "slot7.im \"q\"\n");

  // Insertion order is preserved ("ev" leads).
  ASSERT_EQ(obj.fields.size(), 6u);
  EXPECT_EQ(obj.fields[0].first, "ev");
  EXPECT_EQ(obj.fields[1].first, "count");
  EXPECT_EQ(obj.fields[5].first, "label");
}

TEST(ObsJsonl, NumberRenderingIsCanonical) {
  std::string out;
  obs::jsonl::append_number(out, 300.0);
  EXPECT_EQ(out, "300");  // integral -> no decimal point
  out.clear();
  obs::jsonl::append_number(out, 0.5);
  EXPECT_EQ(out, "0.5");
}

TEST(ObsJsonl, ParserRejectsNestedObjects) {
  obs::jsonl::Object obj;
  EXPECT_FALSE(obs::jsonl::parse_object(R"({"a":{"b":1}})", obj));
  EXPECT_FALSE(obs::jsonl::parse_object("not json", obj));
}

// ---- StreamReader: tolerant incremental reads over live streams ----------

TEST(ObsJsonl, StreamReaderRecordsMidRecordCutAsTruncatedTail) {
  // The stream a SIGKILLed worker leaves behind: complete lines, then a
  // record cut mid-write with no trailing newline.
  obs::jsonl::StreamReader reader;
  reader.feed("{\"ev\":\"a\",\"n\":1}\n{\"ev\":\"b\",\"n\":2}\n{\"ev\":\"c\",\"n\"");

  obs::jsonl::Object obj;
  ASSERT_TRUE(reader.next(obj));
  EXPECT_EQ(obj.str("ev"), "a");
  ASSERT_TRUE(reader.next(obj));
  EXPECT_EQ(obj.str("ev"), "b");
  // The cut record is buffered, not delivered: more bytes could arrive.
  EXPECT_FALSE(reader.next(obj));

  reader.finish();
  EXPECT_FALSE(reader.next(obj));  // unparseable tail is never delivered
  EXPECT_EQ(reader.lines_delivered(), 2u);
  EXPECT_EQ(reader.malformed_lines(), 0u);  // a cut is not "malformed"
  EXPECT_TRUE(reader.had_truncated_tail());
  EXPECT_EQ(reader.truncated_tail(), "{\"ev\":\"c\",\"n\"");
}

TEST(ObsJsonl, StreamReaderPromotesParseableUnterminatedTail) {
  // A writer that died between write() and the newline: the final line
  // is complete JSON, just unterminated. finish() promotes it.
  obs::jsonl::StreamReader reader;
  reader.feed("{\"ev\":\"a\"}\n{\"ev\":\"b\",\"n\":2}");
  obs::jsonl::Object obj;
  ASSERT_TRUE(reader.next(obj));
  EXPECT_FALSE(reader.next(obj));  // tail still pending
  reader.finish();
  ASSERT_TRUE(reader.next(obj));
  EXPECT_EQ(obj.str("ev"), "b");
  EXPECT_EQ(obj.num("n"), 2.0);
  EXPECT_EQ(reader.lines_delivered(), 2u);
  EXPECT_FALSE(reader.had_truncated_tail());
}

TEST(ObsJsonl, StreamReaderSkipsInterleavedGarbageLines) {
  // Two writers appending without line atomicity interleave torn
  // records; the good lines around them must still flow.
  obs::jsonl::StreamReader reader;
  reader.feed("{\"ev\":\"good1\"}\n");
  reader.feed("{\"ev\":\"tor{\"ev\":\"n\"}\n");  // two writes fused mid-line
  reader.feed("\n");                             // blank: ignored, not malformed
  reader.feed("{\"ev\":\"good2\"}\n");
  reader.finish();

  std::vector<std::string> seen;
  obs::jsonl::Object obj;
  while (reader.next(obj)) seen.emplace_back(obj.str("ev"));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "good1");
  EXPECT_EQ(seen[1], "good2");
  EXPECT_EQ(reader.lines_delivered(), 2u);
  EXPECT_EQ(reader.malformed_lines(), 1u);
  EXPECT_FALSE(reader.had_truncated_tail());
}

TEST(ObsJsonl, StreamReaderIsFramingIndependent) {
  // Byte-at-a-time delivery (the worst pipe fragmentation) must match
  // one whole-buffer feed exactly.
  const std::string stream =
      "{\"ev\":\"x\",\"n\":1}\njunk line\n{\"ev\":\"y\",\"n\":2}\n{\"ev\":\"z\"";

  obs::jsonl::StreamReader whole;
  whole.feed(stream);
  whole.finish();

  obs::jsonl::StreamReader bytewise;
  for (const char c : stream) bytewise.feed(std::string_view(&c, 1));
  bytewise.finish();

  for (auto* r : {&whole, &bytewise}) {
    obs::jsonl::Object obj;
    ASSERT_TRUE(r->next(obj));
    EXPECT_EQ(obj.str("ev"), "x");
    ASSERT_TRUE(r->next(obj));
    EXPECT_EQ(obj.str("ev"), "y");
    EXPECT_FALSE(r->next(obj));
    EXPECT_EQ(r->lines_delivered(), 2u);
    EXPECT_EQ(r->malformed_lines(), 1u);
    EXPECT_TRUE(r->had_truncated_tail());
    EXPECT_EQ(r->truncated_tail(), "{\"ev\":\"z\"");
  }
}

TEST(ObsSink, JsonLinesSinkWritesParseableLines) {
  TempFile tmp("jsonl_sink.jsonl");
  {
    obs::JsonLinesSink sink(tmp.path());
    ASSERT_TRUE(sink.ok()) << sink.error();
    obs::Event ev;
    ev.name = "first";
    ev.add("x", obs::FieldValue::of(std::uint64_t{1}));
    sink.record(ev);
    ev.name = "second";
    sink.record(ev);
    sink.flush();
  }
  const auto lines = read_lines(tmp.path());
  ASSERT_EQ(lines.size(), 2u);
  obs::jsonl::Object obj;
  ASSERT_TRUE(obs::jsonl::parse_object(lines[0], obj));
  EXPECT_EQ(obj.str("ev"), "first");
  ASSERT_TRUE(obs::jsonl::parse_object(lines[1], obj));
  EXPECT_EQ(obj.str("ev"), "second");
}

// ---- metrics --------------------------------------------------------------

TEST(ObsMetrics, HistogramBucketGeometry) {
  if (!FD_OBS_ENABLED) GTEST_SKIP() << "built with FD_OBS=OFF";
  // Bucket 0 is [0,1); bucket i >= 1 is [2^(i-1), 2^i).
  EXPECT_EQ(obs::histogram_bucket_index(0.0), 0u);
  EXPECT_EQ(obs::histogram_bucket_index(0.99), 0u);
  EXPECT_EQ(obs::histogram_bucket_index(1.0), 1u);
  EXPECT_EQ(obs::histogram_bucket_index(2.0), 2u);
  EXPECT_EQ(obs::histogram_bucket_index(3.0), 2u);
  EXPECT_EQ(obs::histogram_bucket_index(4.0), 3u);
  EXPECT_EQ(obs::histogram_bucket_index(1e300), obs::kHistogramBuckets - 1);
  for (std::size_t b = 1; b + 1 < obs::kHistogramBuckets; ++b) {
    const double lo = obs::histogram_bucket_lower_bound(b);
    EXPECT_EQ(obs::histogram_bucket_index(lo), b);
    EXPECT_EQ(obs::histogram_bucket_index(std::nextafter(lo, 0.0)), b - 1);
  }
}

TEST(ObsMetrics, CounterGaugeHistogramAndIdentity) {
  if (!FD_OBS_ENABLED) GTEST_SKIP() << "built with FD_OBS=OFF";
  auto& reg = obs::MetricsRegistry::global();

  auto& c = reg.counter("test.obs.counter");
  c.reset();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Lookup-or-create returns the same object for the same name.
  EXPECT_EQ(&c, &reg.counter("test.obs.counter"));
  EXPECT_NE(&c, &reg.counter("test.obs.counter2"));

  auto& g = reg.gauge("test.obs.gauge");
  g.set(2.5);
  EXPECT_EQ(g.value(), 2.5);

  auto& h = reg.histogram("test.obs.hist");
  h.reset();
  h.record(0.5);
  h.record(3.0);
  h.record(100.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 103.5);
  EXPECT_EQ(h.min(), 0.5);
  EXPECT_EQ(h.max(), 100.0);
  EXPECT_EQ(h.bucket_count(0), 1u);                                  // 0.5
  EXPECT_EQ(h.bucket_count(obs::histogram_bucket_index(3.0)), 1u);   // 3
  EXPECT_EQ(h.bucket_count(obs::histogram_bucket_index(100.0)), 1u); // 100

  const auto snap = reg.snapshot();
  bool found = false;
  for (const auto& cv : snap.counters) {
    if (cv.name == "test.obs.counter") {
      found = true;
      EXPECT_EQ(cv.value, 42u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(ObsMetrics, ExportToSinkEmitsMetricEvents) {
  if (!FD_OBS_ENABLED) GTEST_SKIP() << "built with FD_OBS=OFF";
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("test.obs.export").reset();
  reg.counter("test.obs.export").add(7);
  obs::CollectingSink sink;
  reg.export_to(sink);
  bool found = false;
  for (const auto& ev : sink.events()) {
    if (ev.name != "metric") continue;
    const auto* name = ev.find("name");
    if (name == nullptr || name->s != "test.obs.export") continue;
    found = true;
    const auto* value = ev.find("value");
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(value->as_double(), 7.0);
  }
  EXPECT_TRUE(found);
}

TEST(ObsMetrics, PercentileOverHandBuiltView) {
  // Always compiled: fd-report runs this estimator over parsed
  // telemetry even in FD_OBS=OFF builds.
  obs::HistogramView v;
  EXPECT_EQ(obs::histogram_percentile(v, 50.0), 0.0);  // empty

  // 100 identical samples of 3.0: every percentile is exactly 3.0
  // (interpolation inside bucket [2,4) is clamped to [min,max]).
  v.count = 100;
  v.sum = 300.0;
  v.min = v.max = 3.0;
  v.buckets[obs::histogram_bucket_index(3.0)] = 100;
  EXPECT_EQ(obs::histogram_percentile(v, 50.0), 3.0);
  EXPECT_EQ(obs::histogram_percentile(v, 95.0), 3.0);
  EXPECT_EQ(obs::histogram_percentile(v, 99.0), 3.0);

  // Bimodal 50x1.5 + 50x8.0: p50 interpolates to the top of the low
  // bucket [1,2); the tail percentiles clamp to the observed max.
  obs::HistogramView w;
  w.count = 100;
  w.sum = 50 * 1.5 + 50 * 8.0;
  w.min = 1.5;
  w.max = 8.0;
  w.buckets[obs::histogram_bucket_index(1.5)] = 50;
  w.buckets[obs::histogram_bucket_index(8.0)] = 50;
  EXPECT_EQ(obs::histogram_percentile(w, 50.0), 2.0);
  EXPECT_EQ(obs::histogram_percentile(w, 95.0), 8.0);
  EXPECT_EQ(obs::histogram_percentile(w, 99.0), 8.0);
  EXPECT_EQ(obs::histogram_percentile(w, 0.0), 1.5);  // rank clamps to 1
}

TEST(ObsMetrics, HistogramPercentileMatchesFreeFunction) {
  if (!FD_OBS_ENABLED) GTEST_SKIP() << "built with FD_OBS=OFF";
  auto& h = obs::MetricsRegistry::global().histogram("test.obs.pct");
  h.reset();
  for (int i = 0; i < 100; ++i) h.record(3.0);
  EXPECT_EQ(h.percentile(50.0), 3.0);
  EXPECT_EQ(h.percentile(99.0), 3.0);
  h.reset();
  for (int i = 0; i < 50; ++i) h.record(1.5);
  for (int i = 0; i < 50; ++i) h.record(8.0);
  EXPECT_EQ(h.percentile(50.0), 2.0);
  EXPECT_EQ(h.percentile(95.0), 8.0);
}

// ---- spans ----------------------------------------------------------------

TEST(ObsSpan, SpanIdHexRoundTrip) {
  // Always compiled (wire form of span IDs in JSONL).
  EXPECT_EQ(obs::span_id_hex(0x0123456789ABCDEFULL), "0123456789abcdef");
  EXPECT_EQ(obs::span_id_hex(0), "0000000000000000");
  EXPECT_EQ(obs::parse_span_id_hex("0123456789abcdef"), 0x0123456789ABCDEFULL);
  EXPECT_EQ(obs::parse_span_id_hex(obs::span_id_hex(0xDEADBEEFCAFEF00DULL)),
            0xDEADBEEFCAFEF00DULL);
  // Malformed inputs degrade to 0 ("no parent").
  EXPECT_EQ(obs::parse_span_id_hex(""), 0u);
  EXPECT_EQ(obs::parse_span_id_hex("abc"), 0u);
  EXPECT_EQ(obs::parse_span_id_hex("0123456789abcde"), 0u);    // 15 chars
  EXPECT_EQ(obs::parse_span_id_hex("0123456789abcdefg"), 0u);  // 17 chars
  EXPECT_EQ(obs::parse_span_id_hex("0123456789abcdzz"), 0u);   // non-hex
}

TEST(ObsSpan, ContextDerivationIsReplayStable) {
  if (!FD_OBS_ENABLED) GTEST_SKIP() << "built with FD_OBS=OFF";
  const auto capture_tree = [] {
    std::vector<obs::SpanContext> out;
    obs::Span root("ctx.root", obs::Span::Root::kAdopt);
    out.push_back(root.context());
    {
      obs::Span a("ctx.a");
      out.push_back(a.context());
      obs::Span aa("ctx.aa");
      out.push_back(aa.context());
    }
    obs::Span b("ctx.b");
    out.push_back(b.context());
    return out;
  };

  obs::set_trace_root(0xABCDEF);
  const auto first = capture_tree();
  obs::set_trace_root(0xABCDEF);  // resets the child sequence too
  const auto second = capture_tree();

  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].trace_id, second[i].trace_id) << i;
    EXPECT_EQ(first[i].span_id, second[i].span_id) << i;
    EXPECT_EQ(first[i].parent_span_id, second[i].parent_span_id) << i;
  }
  // Structure: the adopted root IS the ambient root context; children
  // are parented under it; siblings get distinct IDs.
  obs::set_trace_root(0xABCDEF);
  EXPECT_EQ(first[0].span_id, obs::ambient_span_context().span_id);
  EXPECT_EQ(first[0].parent_span_id, 0u);
  EXPECT_EQ(first[1].parent_span_id, first[0].span_id);
  EXPECT_EQ(first[2].parent_span_id, first[1].span_id);
  EXPECT_EQ(first[3].parent_span_id, first[0].span_id);
  EXPECT_NE(first[1].span_id, first[3].span_id);
  for (const auto& ctx : first) EXPECT_EQ(ctx.trace_id, 0xABCDEFu);
}

TEST(ObsSpan, ScopedSpanParentReparentsUnderRemoteContext) {
  if (!FD_OBS_ENABLED) GTEST_SKIP() << "built with FD_OBS=OFF";
  obs::set_trace_root(0x111);
  const obs::SpanContext remote{0x222, 0x9999, 0};
  {
    // What a fleet worker does with the TaskSpec's propagated parent.
    obs::ScopedSpanParent reparent(remote);
    obs::Span task("reparent.task");
    EXPECT_EQ(task.context().trace_id, 0x222u);
    EXPECT_EQ(task.context().parent_span_id, 0x9999u);
  }
  // The previous ambient context is restored on scope exit.
  obs::Span local("reparent.local");
  EXPECT_EQ(local.context().trace_id, 0x111u);
}

TEST(ObsSpan, NestingDepthAndCurrentName) {
  if (!FD_OBS_ENABLED) GTEST_SKIP() << "built with FD_OBS=OFF";
  EXPECT_EQ(obs::Span::depth(), 0u);
  {
    obs::Span outer("outer");
    EXPECT_EQ(obs::Span::depth(), 1u);
    EXPECT_EQ(obs::Span::current_name(), "outer");
    {
      obs::Span inner("inner");
      EXPECT_EQ(obs::Span::depth(), 2u);
      EXPECT_EQ(obs::Span::current_name(), "inner");
      EXPECT_GE(inner.elapsed_us(), 0.0);
    }
    EXPECT_EQ(obs::Span::depth(), 1u);
    EXPECT_EQ(obs::Span::current_name(), "outer");
  }
  EXPECT_EQ(obs::Span::depth(), 0u);
  EXPECT_EQ(obs::Span::current_name(), "");
}

TEST(ObsSpan, ExceptionUnwindingClosesSpansInOrder) {
  if (!FD_OBS_ENABLED) GTEST_SKIP() << "built with FD_OBS=OFF";
  obs::CollectingSink sink;
  obs::ScopedTelemetrySink scope(&sink);
  try {
    obs::Span outer("unwind.outer");
    obs::Span inner("unwind.inner");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(obs::Span::depth(), 0u);
  // Both spans closed, inner first.
  std::vector<std::string> names;
  for (const auto& ev : sink.events()) {
    if (ev.name != "span") continue;
    const auto* n = ev.find("name");
    ASSERT_NE(n, nullptr);
    names.push_back(n->s);
  }
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "unwind.inner");
  EXPECT_EQ(names[1], "unwind.outer");
  // The span histograms got their samples too.
  EXPECT_GE(obs::MetricsRegistry::global().histogram("span.unwind.inner.us").count(), 1u);
}

TEST(ObsSpan, NoSinkMeansNoEventsButHistogramStillRecords) {
  if (!FD_OBS_ENABLED) GTEST_SKIP() << "built with FD_OBS=OFF";
  auto& hist = obs::MetricsRegistry::global().histogram("span.quiet.us");
  hist.reset();
  ASSERT_EQ(obs::sink(), nullptr);
  { obs::Span span("quiet"); }
  EXPECT_EQ(hist.count(), 1u);
}

// ---- event builder front end ----------------------------------------------

TEST(ObsEventBuilder, EmitsOnlyWithSinkInstalled) {
  obs::CollectingSink sink;
  {
    obs::ScopedTelemetrySink scope(&sink);
    obs::event("builder.test")
        .with("traces", std::size_t{300})
        .with("rank", -1)
        .with("r", 0.25)
        .with("exact", true)
        .with("label", "slot0.re")
        .emit();
  }
  obs::event("builder.dropped").with("x", 1).emit();  // no sink installed

  if (!FD_OBS_ENABLED) {
    EXPECT_TRUE(sink.events().empty());  // OFF: the front end is a no-op
    return;
  }
  ASSERT_EQ(sink.events().size(), 1u);
  const auto& ev = sink.events()[0];
  EXPECT_EQ(ev.name, "builder.test");
  ASSERT_NE(ev.find("traces"), nullptr);
  EXPECT_EQ(ev.find("traces")->u, 300u);
  ASSERT_NE(ev.find("rank"), nullptr);
  EXPECT_EQ(ev.find("rank")->i, -1);
  ASSERT_NE(ev.find("label"), nullptr);
  EXPECT_EQ(ev.find("label")->s, "slot0.re");
}

// ---- attack-level contracts -------------------------------------------------

namespace {

sca::CampaignConfig mini_config(std::uint64_t seed) {
  sca::CampaignConfig cfg;
  cfg.num_traces = 120;
  cfg.device.noise_sigma = 2.0;
  cfg.seed = seed;
  return cfg;
}

attack::StreamingCpaSpec snapshot_spec(const falcon::SecretKey& sk, std::size_t slot) {
  attack::StreamingCpaSpec spec;
  spec.sample_offsets = {sca::window::kOffExpSum};
  for (std::uint32_t e = 1005; e <= 1053; ++e) spec.guesses.push_back(e);
  spec.model = [](std::uint32_t guess, const attack::KnownOperand& k) {
    return attack::hyp_exponent(guess, k);
  };
  spec.snapshot_every = 40;
  spec.truth_guess = sk.b01[slot].biased_exponent();
  spec.label = "slot" + std::to_string(slot);
  return spec;
}

}  // namespace

TEST(ObsDeterminism, FixedSeedCampaignTelemetryIsReproducible) {
  if (!FD_OBS_ENABLED) GTEST_SKIP() << "built with FD_OBS=OFF";
  ChaCha20Prng rng("obs determinism key");
  const auto kp = falcon::keygen(3, rng);

  std::vector<std::string> runs[2];
  for (auto& run : runs) {
    // Same trace root per run: span IDs are derived from it plus child
    // ordinals, so resetting it makes the whole ID tree replay-stable.
    obs::set_trace_root(0x0B5F00D);
    obs::CollectingSink sink;
    obs::ScopedTelemetrySink scope(&sink);
    const auto sets = sca::run_full_campaign(kp.sk, mini_config(0x0B5));
    const auto spec = snapshot_spec(kp.sk, 1);
    (void)attack::run_cpa_inmemory(sets[1], spec);
    for (const auto& ev : sink.events()) run.push_back(deterministic_view(ev));
  }
  ASSERT_FALSE(runs[0].empty());
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    EXPECT_EQ(runs[0][i], runs[1][i]) << "event " << i;
  }
  // The stream contains both campaign telemetry and rank snapshots.
  bool saw_campaign = false;
  bool saw_snapshot = false;
  for (const auto& line : runs[0]) {
    saw_campaign = saw_campaign || line.find("\"ev\":\"sca.campaign\"") != std::string::npos;
    saw_snapshot = saw_snapshot || line.find("\"ev\":\"cpa.snapshot\"") != std::string::npos;
  }
  EXPECT_TRUE(saw_campaign);
  EXPECT_TRUE(saw_snapshot);
}

TEST(ObsCampaign, ArchiveCampaignReportsCaptureLayerTimes) {
  // One sca.campaign event per campaign carries the per-layer times:
  // signing and synthesis-plus-append inside the campaign's wall time,
  // and the writer's chunk flushes; the counters carry the same sums.
  if (!FD_OBS_ENABLED) GTEST_SKIP() << "built with FD_OBS=OFF";
  ChaCha20Prng rng("obs capture layers key");
  const auto kp = falcon::keygen(3, rng);
  auto& reg = obs::MetricsRegistry::global();
  const std::uint64_t sign_before = reg.counter("sca.campaign.sign_us").value();
  obs::CollectingSink sink;
  obs::ScopedTelemetrySink scope(&sink);
  const std::string path = "obs_capture_layers.fdtrace";
  const auto r = sca::run_campaign_to_archive(kp.sk, mini_config(0x0B7), path);
  std::remove(path.c_str());
  ASSERT_TRUE(r.ok) << r.error;
  const obs::Event* campaign = nullptr;
  for (const auto& ev : sink.events()) {
    if (ev.name == "sca.campaign") campaign = &ev;
  }
  ASSERT_NE(campaign, nullptr);
  const auto field = [&](std::string_view key) {
    for (const auto& [k, v] : campaign->fields) {
      if (k == key) return v.as_double();
    }
    ADD_FAILURE() << "no field " << key;
    return -1.0;
  };
  const double sign_us = field("sign_us");
  const double synth_us = field("synth_us");
  const double flush_us = field("flush_us");
  EXPECT_GT(sign_us, 0.0);
  EXPECT_GT(synth_us, 0.0);
  EXPECT_GT(flush_us, 0.0);
  EXPECT_LE(sign_us + synth_us, field("wall_us"));
  EXPECT_GE(reg.counter("sca.campaign.sign_us").value(), sign_before + 1);
}

TEST(ObsAttack, ComponentReportsPerPhaseTimes) {
  // One ep.phase event per extend-and-prune phase, each with its wall
  // time; the phases run inside the component, so their times sum to no
  // more than ep.component's, and the attack.ep.<phase>_us counters
  // advance.
  if (!FD_OBS_ENABLED) GTEST_SKIP() << "built with FD_OBS=OFF";
  ChaCha20Prng rng("obs phase times key");
  const auto kp = falcon::keygen(3, rng);
  const auto sets = sca::run_full_campaign(kp.sk, mini_config(0x0B8));
  const auto ds = attack::build_component_dataset(sets[1], /*imag_part=*/false);
  auto cfg = attack::component_attack_config(kp.sk, attack::KeyRecoveryConfig{}, /*row=*/0,
                                             /*slot=*/1, /*imag=*/false);
  cfg.obs_label = "slot1.re";
  auto& reg = obs::MetricsRegistry::global();
  const std::uint64_t extend_before = reg.counter("attack.ep.low_extend_us").value();
  obs::CollectingSink sink;
  {
    obs::ScopedTelemetrySink scope(&sink);
    (void)attack::attack_component(ds, cfg);
  }
  const auto field = [](const obs::Event& ev, std::string_view key) {
    const auto* v = ev.find(key);
    EXPECT_NE(v, nullptr) << ev.name << " has no " << key;
    return v == nullptr ? -1.0 : v->as_double();
  };
  std::vector<std::string> phases;
  double phase_us = 0.0;
  double component_us = -1.0;
  for (const auto& ev : sink.events()) {
    if (ev.name == "ep.phase") {
      phases.push_back(ev.find("phase")->s);
      phase_us += field(ev, "wall_us");
    } else if (ev.name == "ep.component") {
      component_us = field(ev, "wall_us");
    }
  }
  const std::vector<std::string> want = {"sign",      "exponent",    "low_extend",
                                         "low_prune", "high_extend", "high_prune"};
  EXPECT_EQ(phases, want);
  EXPECT_GT(phase_us, 0.0);
  EXPECT_LE(phase_us, component_us);
  EXPECT_GT(reg.counter("attack.ep.low_extend_us").value(), extend_before);
}

TEST(ObsDeterminism, InstrumentationDoesNotPerturbRankings) {
  // Valid in both FD_OBS modes: with the layer off this pins that the
  // no-op stubs leave the math untouched, which together with the ON run
  // of the same test pins FD_OBS=ON vs OFF bit-identical rankings.
  ChaCha20Prng rng("obs perturbation key");
  const auto kp = falcon::keygen(3, rng);
  const auto sets = sca::run_full_campaign(kp.sk, mini_config(0x0B6));

  auto spec_quiet = snapshot_spec(kp.sk, 1);
  spec_quiet.snapshot_every = 0;  // telemetry fully disabled
  spec_quiet.truth_guess = -1;
  spec_quiet.label.clear();
  const auto quiet = attack::run_cpa_inmemory(sets[1], spec_quiet);

  obs::CollectingSink sink;
  obs::ScopedTelemetrySink scope(&sink);
  const auto spec_loud = snapshot_spec(kp.sk, 1);
  const auto loud = attack::run_cpa_inmemory(sets[1], spec_loud);

  ASSERT_EQ(quiet.ranking(), loud.ranking());
  for (std::size_t g = 0; g < spec_loud.guesses.size(); ++g) {
    EXPECT_EQ(quiet.peak(g), loud.peak(g)) << "guess " << g;  // bit-exact
  }
}

// --- concurrency hammer ----------------------------------------------------
//
// The exec pool (src/exec) drives the obs layer from worker threads:
// every shard/component task opens spans, bumps campaign counters, and
// emits events into whatever sink is installed. This test hammers all
// of those surfaces from many threads at once and then checks the
// arithmetic: atomics and mutexes make the totals exact, not
// approximate. Run it under FD_SANITIZE=thread to turn any missing
// synchronization into a hard failure.
TEST(ObsConcurrency, HammerCountersSpansAndSinkFromManyThreads) {
  if (!FD_OBS_ENABLED) GTEST_SKIP() << "built with FD_OBS=OFF";
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIters = 400;

  obs::CollectingSink sink;
  obs::ScopedTelemetrySink scope(&sink);
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("hammer.count").reset();
  reg.histogram("hammer.hist").reset();

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &reg, &sink] {
      for (std::size_t i = 0; i < kIters; ++i) {
        obs::Span outer("hammer.outer");
        // Per-thread span stacks: depth reflects only this thread.
        EXPECT_EQ(obs::Span::depth(), 1u);
        {
          obs::Span inner("hammer.inner");
          EXPECT_EQ(obs::Span::current_name(), "hammer.inner");
          reg.counter("hammer.count").add(1);
          reg.gauge("hammer.gauge").set(static_cast<double>(t));
          reg.histogram("hammer.hist").record(static_cast<double>(i));
        }
        obs::event("hammer.ev").with("thread", t).with("iter", i).emit();
        if (i % 16 == 0) (void)reg.snapshot();  // readers race writers
        if (i % 64 == 0) sink.clear();          // clear races record
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(reg.counter("hammer.count").value(), kThreads * kIters);
  EXPECT_EQ(reg.histogram("hammer.hist").count(), kThreads * kIters);
  // Torn-view check: a single-lock histogram snapshot is internally
  // consistent -- bucket totals match the count taken in the same lock.
  obs::HistogramView view;
  reg.histogram("hammer.hist").snapshot_into(view);
  std::uint64_t bucket_total = 0;
  for (const auto b : view.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, view.count);
  // The final span depth on the main thread is untouched by workers.
  EXPECT_EQ(obs::Span::depth(), 0u);
  // Events survive the clear() races structurally intact (no torn
  // vectors): every surviving record is complete. The stream holds the
  // explicit "hammer.ev" emissions (2 fields) interleaved with the
  // "span" events the Span destructors emit
  // (name/trace/span/parent/tid/depth/ts_us/wall_us).
  for (const auto& ev : sink.snapshot()) {
    if (ev.name == "hammer.ev") {
      ASSERT_EQ(ev.fields.size(), 2u);
    } else {
      ASSERT_EQ(ev.name, "span");
      ASSERT_EQ(ev.fields.size(), 8u);
    }
  }
}

#ifdef FD_REPORT_BIN

// `fd-report --follow` must survive log rotation: when the tailed path
// is renamed away and a fresh file created in its place (the logrotate
// rename+recreate scheme), the tail reopens the new generation and the
// final summary counts events from both sides of the boundary.
TEST(ObsFollow, ReopensAfterRotation) {
  const std::string path = ::testing::TempDir() + "fd_follow_rotate.jsonl";
  const std::string rotated = path + ".1";
  std::remove(path.c_str());
  std::remove(rotated.c_str());

  const auto append = [](const std::string& p, int n, const char* tag) {
    std::FILE* f = std::fopen(p.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    for (int i = 0; i < n; ++i) {
      std::fprintf(f, "{\"event\":\"%s.ev\",\"i\":%d}\n", tag, i);
    }
    std::fclose(f);
  };
  append(path, 3, "gen1");

  const std::string cmd = std::string(FD_REPORT_BIN) + " " + path +
                          " --follow --poll-ms 10 --exit-after-idle-ms 800 2>&1";
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);

  // Let the tail consume generation 1, then rotate under it. The race
  // where the follower hits EOF between the rename and the recreate is
  // benign: stat() fails, the poll retries, the new file appears.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ASSERT_EQ(std::rename(path.c_str(), rotated.c_str()), 0);
  append(path, 2, "gen2");

  std::string out;
  char buf[512];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
  const int status = ::pclose(pipe);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << out;

  // 3 events before the rotation + 2 after, one reopen.
  EXPECT_NE(out.find("5 events"), std::string::npos) << out;
  EXPECT_NE(out.find("1 rotations"), std::string::npos) << out;
  std::remove(path.c_str());
  std::remove(rotated.c_str());
}

std::string run_report(const std::string& path) {
  const std::string cmd = std::string(FD_REPORT_BIN) + " " + path + " 2>&1";
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {};
  std::string out;
  char buf[512];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
  ::pclose(pipe);
  return out;
}

// The recovery driver emits one attack.remeasure line per round, in
// single-process and fleet runs alike; fd-report counts both kinds of
// stream. The single-process stream is a real adaptive pipeline run
// that re-measures twice; the fleet stream carries the same lines as
// the coordinator writes them, tagged "worker":"coord" beside its own
// fleet.* lines.
TEST(ObsReport, CountsRemeasureRoundsInBothModes) {
  if (!FD_OBS_ENABLED) GTEST_SKIP() << "built with FD_OBS=OFF";
  TempFile single("remeasure_single.jsonl");
  TempFile fleet("remeasure_fleet.jsonl");
  TempFile archive("remeasure.fdtrace");
  {
    ChaCha20Prng rng("victim key seed");
    const auto victim = falcon::keygen(3, rng);
    attack::RecoveryPipelineConfig cfg;
    cfg.attack.num_traces = 120;
    cfg.attack.device.noise_sigma = 2.0;
    cfg.attack.adversarial_random = 100;
    cfg.attack.seed = 0xFD06;
    cfg.archive_path = archive.path();
    cfg.capture_shards = 2;
    cfg.faults.drop_rate = 0.10;
    cfg.faults.desync_rate = 0.05;
    cfg.faults.saturate_rate = 0.02;
    cfg.faults.chunk_corrupt_rate = 0.05;
    cfg.faults.capture_fail_rate = 0.5;
    cfg.remeasure.max_capture_attempts = 8;
    cfg.quality.enabled = true;
    cfg.adaptive = true;
    obs::JsonLinesSink sink(single.path());
    const obs::ScopedTelemetrySink scope(&sink);
    const auto res = attack::run_recovery_pipeline(victim, cfg);
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(res.remeasure_rounds, 2u);
  }
  {
    std::FILE* f = std::fopen(fleet.path().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs(R"({"ev":"fleet.worker.spawn","worker":0,"pid":1})"
               "\n",
               f);
    for (std::string line : read_lines(single.path())) {
      const std::size_t brace = line.rfind('}');
      ASSERT_NE(brace, std::string::npos);
      line.insert(brace, R"(,"worker":"coord")");
      std::fprintf(f, "%s\n", line.c_str());
    }
    std::fclose(f);
  }
  for (const std::string& path : {single.path(), fleet.path()}) {
    const std::string out = run_report(path);
    EXPECT_NE(out.find("re-measurement rounds: 2"), std::string::npos) << path << "\n" << out;
  }
}

#endif  // FD_REPORT_BIN
