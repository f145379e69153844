#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/run_manifest.h"
#include "obs/sampler.h"
#include "obs/session.h"
#include "obs/trace.h"
#include "obs/train_log.h"
#include "util/thread_pool.h"

namespace spectra::obs {
namespace {

// One parsed JSON value. Numbers are doubles; a \uXXXX escape keeps its
// six characters of text.
struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  double number = 0.0;                                // kBool (0/1), kNumber
  std::string text;                                   // kString
  std::vector<Json> items;                            // kArray
  std::vector<std::pair<std::string, Json>> members;  // kObject, in order

  // Member `key` of an object, or nullptr.
  const Json* get(const std::string& key) const {
    for (const auto& [name, value] : members) {
      if (name == key) return &value;
    }
    return nullptr;
  }
};

// Strict recursive-descent JSON parser: truncated or mis-nested text,
// trailing garbage, raw control characters in strings and non-JSON
// numbers such as `nan` all fail.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  std::optional<Json> parse() {
    Json value;
    if (!parse_value(value, 0)) return std::nullopt;
    skip_space();
    if (pos_ != text_.size()) return std::nullopt;
    return value;
  }

 private:
  void skip_space() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  bool consume(char c) {
    skip_space();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool consume_word(const std::string& word) {
    if (text_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char escaped = text_[pos_++];
      const std::string simple = "\"\\/bfnrt";
      const std::string decoded = "\"\\/\b\f\n\r\t";
      if (escaped == 'u') {
        if (pos_ + 4 > text_.size()) return false;
        for (std::size_t i = 0; i < 4; ++i) {
          if (!std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) return false;
        }
        out += text_.substr(pos_ - 2, 6);
        pos_ += 4;
      } else if (simple.find(escaped) != std::string::npos) {
        out += decoded[simple.find(escaped)];
      } else {
        return false;
      }
    }
    return false;
  }

  bool parse_value(Json& value, int depth) {
    skip_space();
    if (pos_ >= text_.size() || depth > 64) return false;
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      ++pos_;
      const char close = c == '{' ? '}' : ']';
      value.kind = c == '{' ? Json::Kind::kObject : Json::Kind::kArray;
      if (consume(close)) return true;
      do {
        Json item;
        if (c == '{') {
          std::string key;
          if (!parse_string(key) || !consume(':') || !parse_value(item, depth + 1)) return false;
          value.members.emplace_back(std::move(key), std::move(item));
        } else {
          if (!parse_value(item, depth + 1)) return false;
          value.items.push_back(std::move(item));
        }
      } while (consume(','));
      return consume(close);
    }
    if (c == '"') {
      value.kind = Json::Kind::kString;
      return parse_string(value.text);
    }
    if (consume_word("true") || consume_word("false")) {
      value.kind = Json::Kind::kBool;
      value.number = c == 't' ? 1.0 : 0.0;
      return true;
    }
    if (consume_word("null")) return true;
    if (c != '-' && !std::isdigit(static_cast<unsigned char>(c))) return false;
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    value.number = std::strtod(start, &end);
    if (end == start) return false;
    value.kind = Json::Kind::kNumber;
    pos_ += static_cast<std::size_t>(end - start);
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

std::optional<Json> parse_json(const std::string& text) { return JsonParser(text).parse(); }

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool file_exists(const std::string& path) { return static_cast<bool>(std::ifstream(path)); }

TEST(CounterTest, IncrementAndReset) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.inc();
  counter.inc(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(CounterTest, ConcurrentIncrementsAreLossless) {
  Counter counter;
  ThreadPool pool(4);
  pool.parallel_for(64, [&counter](std::size_t) {
    for (int i = 0; i < 1000; ++i) counter.inc();
  });
  EXPECT_EQ(counter.value(), 64000u);
}

TEST(GaugeTest, SetAddReset) {
  Gauge gauge;
  gauge.set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.add(1.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 4.0);
  gauge.add(-6.0);
  EXPECT_DOUBLE_EQ(gauge.value(), -2.0);
  gauge.reset();
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
}

TEST(RegistryTest, SameNameReturnsSameInstrument) {
  Registry& registry = Registry::instance();
  Counter& a = registry.counter("obs_test.same_counter");
  Counter& b = registry.counter("obs_test.same_counter");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = registry.gauge("obs_test.same_gauge");
  Gauge& g2 = registry.gauge("obs_test.same_gauge");
  EXPECT_EQ(&g1, &g2);
  Histogram& h1 = registry.histogram("obs_test.same_hist");
  Histogram& h2 = registry.histogram("obs_test.same_hist");
  EXPECT_EQ(&h1, &h2);
}

TEST(RegistryTest, SnapshotsContainInstruments) {
  Registry& registry = Registry::instance();
  registry.counter("obs_test.snap_counter").inc(7);
  registry.gauge("obs_test.snap_gauge").set(3.5);
  registry.histogram("obs_test.snap_hist").observe(0.25);

  const std::string json = registry.json_snapshot();
  const std::optional<Json> snapshot = parse_json(json);
  ASSERT_TRUE(snapshot.has_value()) << json;
  ASSERT_NE(snapshot->get("counters"), nullptr);
  ASSERT_NE(snapshot->get("gauges"), nullptr);
  ASSERT_NE(snapshot->get("histograms"), nullptr);
  const Json* counter = snapshot->get("counters")->get("obs_test.snap_counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_GE(counter->number, 7.0);
  EXPECT_NE(snapshot->get("gauges")->get("obs_test.snap_gauge"), nullptr);
  const Json* hist = snapshot->get("histograms")->get("obs_test.snap_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_NE(hist->get("count"), nullptr);
  EXPECT_NE(hist->get("sum"), nullptr);
}

TEST(RegistryTest, DumpMetricsWritesJsonFile) {
  Registry::instance().counter("obs_test.dump_counter").inc();
  const std::string path = testing::TempDir() + "/sg_metrics_dump.json";
  dump_metrics(path);
  std::ifstream in(path);
  ASSERT_TRUE(static_cast<bool>(in));
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(parse_json(buffer.str()).has_value()) << buffer.str();
  EXPECT_NE(buffer.str().find("obs_test.dump_counter"), std::string::npos);
  std::remove(path.c_str());
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace_reset();
    trace_set_enabled(true);
  }
  void TearDown() override {
    trace_set_enabled(false);
    trace_reset();
  }
};

TEST_F(TraceTest, NestedSpansProduceWellFormedTraceJson) {
  {
    SG_PROFILE_SCOPE("outer");
    {
      SG_PROFILE_SCOPE("inner");
      SG_PROFILE_SCOPE("sibling");
    }
  }
  const std::string json = trace_json();
  const std::optional<Json> events = parse_json(json);
  ASSERT_TRUE(events.has_value()) << json;
  EXPECT_EQ(events->kind, Json::Kind::kArray);  // the stream's bare event array
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"sibling\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
}

TEST_F(TraceTest, SpansFromPoolThreadsAreRecorded) {
  ThreadPool pool(3);
  pool.parallel_for(8, [](std::size_t) { SG_PROFILE_SCOPE("pool_span"); });
  const std::string json = trace_json();
  EXPECT_TRUE(parse_json(json).has_value()) << json;
  std::size_t occurrences = 0;
  for (std::size_t pos = json.find("pool_span"); pos != std::string::npos;
       pos = json.find("pool_span", pos + 1)) {
    ++occurrences;
  }
  EXPECT_EQ(occurrences, 8u);
}

TEST(TraceDisabledTest, DisabledSpansRecordNothing) {
  trace_set_enabled(false);
  trace_reset();
  { SG_PROFILE_SCOPE("ghost"); }
  const std::string json = trace_json();
  EXPECT_EQ(json.find("ghost"), std::string::npos);
  EXPECT_TRUE(parse_json(json).has_value());
}

// A TrainIterRecord back from one to_jsonl line; nullopt when the line is
// not JSON or a field is missing or not a number.
std::optional<TrainIterRecord> parse_jsonl(const std::string& line) {
  const std::optional<Json> json = parse_json(line);
  if (!json.has_value()) return std::nullopt;
  const char* const names[] = {"iter",        "d_loss",      "g_adv_loss", "l1_loss",
                               "grad_norm_d", "grad_norm_g", "seconds"};
  double fields[std::size(names)];
  for (std::size_t i = 0; i < std::size(names); ++i) {
    const Json* field = json->get(names[i]);
    if (field == nullptr || field->kind != Json::Kind::kNumber) return std::nullopt;
    fields[i] = field->number;
  }
  TrainIterRecord record;
  record.iteration = static_cast<long>(fields[0]);
  record.d_loss = fields[1];
  record.g_adv_loss = fields[2];
  record.l1_loss = fields[3];
  record.grad_norm_d = fields[4];
  record.grad_norm_g = fields[5];
  record.seconds = fields[6];
  return record;
}

TEST(TrainLogTest, JsonlRoundTrip) {
  TrainIterRecord record;
  record.iteration = 123;
  record.d_loss = 1.25;
  record.g_adv_loss = 0.0625;
  record.l1_loss = 3.0e-7;
  record.grad_norm_d = 17.5;
  record.grad_norm_g = 0.0;
  record.seconds = 0.001953125;

  const std::string line = to_jsonl(record);
  EXPECT_TRUE(parse_json(line).has_value()) << line;
  const auto parsed = parse_jsonl(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->iteration, record.iteration);
  EXPECT_DOUBLE_EQ(parsed->d_loss, record.d_loss);
  EXPECT_DOUBLE_EQ(parsed->g_adv_loss, record.g_adv_loss);
  EXPECT_DOUBLE_EQ(parsed->l1_loss, record.l1_loss);
  EXPECT_DOUBLE_EQ(parsed->grad_norm_d, record.grad_norm_d);
  EXPECT_DOUBLE_EQ(parsed->grad_norm_g, record.grad_norm_g);
  EXPECT_DOUBLE_EQ(parsed->seconds, record.seconds);
}

TEST(TrainLogTest, ParseRejectsMalformedLines) {
  EXPECT_FALSE(parse_jsonl("").has_value());
  EXPECT_FALSE(parse_jsonl("{}").has_value());
  EXPECT_FALSE(parse_jsonl("{\"iter\":1,\"d_loss\":0.5}").has_value());
}

TEST(TrainLogTest, DisabledSinkIsNoop) {
  TrainLogSink sink{std::string()};
  EXPECT_FALSE(sink.enabled());
  sink.write({});  // must not crash or create files
}

TEST(TrainLogTest, SinkWritesOneLinePerRecord) {
  const std::string path = testing::TempDir() + "/sg_train_log.jsonl";
  std::remove(path.c_str());
  {
    TrainLogSink sink(path);
    ASSERT_TRUE(sink.enabled());
    for (long it = 0; it < 3; ++it) {
      TrainIterRecord record;
      record.iteration = it;
      record.d_loss = 0.5 * static_cast<double>(it);
      sink.write(record);
    }
  }
  std::ifstream in(path);
  ASSERT_TRUE(static_cast<bool>(in));
  std::string line;
  long count = 0;
  while (std::getline(in, line)) {
    const auto parsed = parse_jsonl(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(parsed->iteration, count);
    ++count;
  }
  EXPECT_EQ(count, 3);
  std::remove(path.c_str());
}

TEST(MaxGaugeTest, KeepsHighWaterMark) {
  MaxGauge gauge;
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  gauge.update(3.0);
  gauge.update(1.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 3.0);
  gauge.update(7.25);
  EXPECT_DOUBLE_EQ(gauge.value(), 7.25);
  gauge.reset();
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
}

TEST(MaxGaugeTest, ConcurrentUpdatesKeepGlobalMax) {
  MaxGauge gauge;
  ThreadPool pool(4);
  pool.parallel_for(64, [&gauge](std::size_t i) {
    gauge.update(static_cast<double>(i));
  });
  EXPECT_DOUBLE_EQ(gauge.value(), 63.0);
}

// Deterministic uniform stream in [0, 1) for the quantile tests (LCG —
// no std RNG so the stream is identical on every platform).
std::vector<double> uniform_stream(std::size_t n) {
  std::vector<double> values;
  values.reserve(n);
  std::uint64_t x = 1;
  for (std::size_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    values.push_back(static_cast<double>(x >> 11) * (1.0 / 9007199254740992.0));
  }
  return values;
}

// Reference implementation the reservoir must match while unsaturated:
// sorted sample, linear interpolation between order statistics.
double reference_quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

TEST(HistogramQuantileTest, ExactWhileReservoirUnsaturated) {
  ASSERT_LT(400u, Histogram::kReservoirSize);
  Histogram hist;
  const std::vector<double> values = uniform_stream(400);
  for (double v : values) hist.observe(v);
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_NEAR(hist.quantile(q), reference_quantile(values, q), 1e-12) << "q=" << q;
  }
}

TEST(HistogramQuantileTest, ApproximateOnceSaturated) {
  Histogram hist;
  const std::vector<double> values = uniform_stream(5000);
  for (double v : values) hist.observe(v);
  // The reservoir holds 512 of 5000; a uniform sample bounds the rank
  // error near 1/sqrt(512) ~ 4.4%. The stream and the replacement hash
  // are both deterministic, so this is a fixed comparison, not a flake.
  EXPECT_NEAR(hist.quantile(0.50), reference_quantile(values, 0.50), 0.08);
  EXPECT_NEAR(hist.quantile(0.95), reference_quantile(values, 0.95), 0.08);
  EXPECT_NEAR(hist.quantile(0.99), reference_quantile(values, 0.99), 0.08);
}

TEST(HistogramQuantileTest, EmptyHistogramQuantilesAreNaN) {
  Histogram hist;
  EXPECT_TRUE(std::isnan(hist.quantile(0.5)));
}

TEST(HistogramQuantileTest, SnapshotsRenderQuantiles) {
  Registry& registry = Registry::instance();
  Histogram& hist = registry.histogram("obs_test.quant_hist");
  for (int i = 1; i <= 9; ++i) hist.observe(static_cast<double>(i));
  registry.max_gauge("obs_test.quant_max").update(17.0);

  const std::string json = registry.json_snapshot();
  const std::optional<Json> snapshot = parse_json(json);
  ASSERT_TRUE(snapshot.has_value()) << json;
  const Json* rendered = snapshot->get("histograms")->get("obs_test.quant_hist");
  ASSERT_NE(rendered, nullptr);
  for (const char* q : {"p50", "p95", "p99"}) EXPECT_NE(rendered->get(q), nullptr) << q;
  EXPECT_DOUBLE_EQ(rendered->get("p50")->number, 5.0);
  const Json* peak = snapshot->get("max_gauges")->get("obs_test.quant_max");
  ASSERT_NE(peak, nullptr);
  EXPECT_DOUBLE_EQ(peak->number, 17.0);
}

// --- hierarchical profiler ----------------------------------------------

// Parse the first numeric `field` appearing after `anchor` in `json`.
double json_number_after(const std::string& json, const std::string& anchor,
                         const std::string& field) {
  std::size_t pos = json.find(anchor);
  if (pos == std::string::npos) return std::nan("");
  pos = json.find("\"" + field + "\":", pos);
  if (pos == std::string::npos) return std::nan("");
  return std::strtod(json.c_str() + pos + field.size() + 3, nullptr);
}

// Saves and restores the global enabled flag so the suite behaves the
// same whether or not CI exported SPECTRA_PROFILE for the binary.
class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = profile_enabled();
    profile_reset();
    profile_set_enabled(true);
  }
  void TearDown() override {
    profile_set_enabled(was_enabled_);
    profile_reset();
  }

 private:
  bool was_enabled_ = false;
};

TEST_F(ProfileTest, NestedScopesBuildTreeWithCallCounts) {
  {
    SG_PROFILE_SCOPE("prof_outer");
    { SG_PROFILE_SCOPE("prof_inner"); }
    { SG_PROFILE_SCOPE("prof_inner"); }
  }
  const std::string text = profile_report_text();
  EXPECT_NE(text.find("prof_outer"), std::string::npos);
  EXPECT_NE(text.find("  prof_inner"), std::string::npos);  // indented child

  const std::string json = profile_report_json();
  EXPECT_TRUE(parse_json(json).has_value()) << json;
  EXPECT_DOUBLE_EQ(json_number_after(json, "prof_outer", "calls"), 1.0);
  EXPECT_DOUBLE_EQ(json_number_after(json, "prof_inner", "calls"), 2.0);
}

TEST_F(ProfileTest, ExclusiveTimeIsInclusiveMinusChildren) {
  {
    SG_PROFILE_SCOPE("prof_excl_outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      SG_PROFILE_SCOPE("prof_excl_inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(4));
    }
  }
  const std::string json = profile_report_json();
  const double outer_incl = json_number_after(json, "prof_excl_outer", "incl_seconds");
  const double outer_excl = json_number_after(json, "prof_excl_outer", "excl_seconds");
  const double inner_incl = json_number_after(json, "prof_excl_inner", "incl_seconds");
  ASSERT_FALSE(std::isnan(outer_incl));
  ASSERT_FALSE(std::isnan(inner_incl));
  EXPECT_GE(outer_incl, inner_incl);
  EXPECT_GE(inner_incl, 0.004);
  // excl is derived as incl - sum(children incl) from the same counters,
  // so the identity holds to JSON round-trip precision.
  EXPECT_NEAR(outer_excl, outer_incl - inner_incl, 1e-6);
}

TEST_F(ProfileTest, WorkIsAttributedToReportingNodeOnly) {
  {
    SG_PROFILE_SCOPE("prof_work_parent");
    {
      SG_PROFILE_SCOPE("prof_work_child");
      profile_add_work(2.0e9, 5.0e8);
    }
  }
  const std::string json = profile_report_json();
  EXPECT_DOUBLE_EQ(json_number_after(json, "prof_work_parent", "flops"), 0.0);
  EXPECT_DOUBLE_EQ(json_number_after(json, "prof_work_child", "flops"), 2.0e9);
  EXPECT_DOUBLE_EQ(json_number_after(json, "prof_work_child", "bytes"), 5.0e8);
  // A node with work gets a derived GFLOP/s figure.
  const std::size_t child = json.find("prof_work_child");
  ASSERT_NE(child, std::string::npos);
  EXPECT_NE(json.find("\"gflops\":", child), std::string::npos);
}

TEST_F(ProfileTest, DisabledScopesRecordNothing) {
  profile_set_enabled(false);
  {
    SG_PROFILE_SCOPE("prof_ghost");
    profile_add_work(1.0, 1.0);
  }
  EXPECT_EQ(profile_report_text().find("prof_ghost"), std::string::npos);
}

TEST_F(ProfileTest, ResetClearsTree) {
  { SG_PROFILE_SCOPE("prof_reset_me"); }
  EXPECT_NE(profile_report_text().find("prof_reset_me"), std::string::npos);
  profile_reset();
  EXPECT_EQ(profile_report_text().find("prof_reset_me"), std::string::npos);
}

TEST_F(ProfileTest, PoolThreadScopesMergeByPath) {
  ThreadPool pool(3);
  pool.parallel_for(8, [](std::size_t) { SG_PROFILE_SCOPE("prof_pool_scope"); });
  const std::string json = profile_report_json();
  EXPECT_TRUE(parse_json(json).has_value());
  // The same path on different threads merges into one node whose call
  // count is the total across threads.
  EXPECT_DOUBLE_EQ(json_number_after(json, "prof_pool_scope", "calls"), 8.0);
  const std::size_t first = json.find("prof_pool_scope");
  EXPECT_EQ(json.find("prof_pool_scope", first + 1), std::string::npos);
}

TEST_F(ProfileTest, DumpWritesWellFormedJsonFile) {
  { SG_PROFILE_SCOPE("prof_dumped"); }
  const std::string path = testing::TempDir() + "/sg_profile_dump.json";
  profile_dump(path);
  std::ifstream in(path);
  ASSERT_TRUE(static_cast<bool>(in));
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(parse_json(buffer.str()).has_value());
  EXPECT_NE(buffer.str().find("prof_dumped"), std::string::npos);
  EXPECT_NE(buffer.str().find("\"wall_seconds\":"), std::string::npos);
  std::remove(path.c_str());
}

// --- the one probe: profile tree and trace from one scope ----------------

struct TraceEventView {
  std::uint64_t ts = 0;
  std::uint64_t dur = 0;
};

// Every event named exactly `name` in a trace_json() document.
std::vector<TraceEventView> trace_events(const std::string& json, const std::string& name) {
  std::vector<TraceEventView> events;
  const std::string key = "\"name\":\"" + name + "\"";
  for (std::size_t pos = json.find(key); pos != std::string::npos; pos = json.find(key, pos + 1)) {
    const std::size_t ts = json.find("\"ts\":", pos);
    const std::size_t dur = json.find("\"dur\":", pos);
    if (ts == std::string::npos || dur == std::string::npos) break;
    events.push_back({std::strtoull(json.c_str() + ts + 5, nullptr, 10),
                      std::strtoull(json.c_str() + dur + 6, nullptr, 10)});
  }
  return events;
}

// Sets both enable bits per case and restores the profiler's at the end,
// so the suite behaves the same under SPECTRA_PROFILE. The global
// SPECTRA_TRACE stream would take events out of trace_json(), so the
// suite skips under it.
class ProbeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!session_knobs().trace.empty()) {
      GTEST_SKIP() << "global trace stream owned by SPECTRA_TRACE";
    }
    was_profiling_ = profile_enabled();
  }
  void TearDown() override {
    trace_set_enabled(false);
    trace_reset();
    profile_set_enabled(was_profiling_);
    profile_reset();
  }

  static void set_probes(bool profile, bool trace) {
    profile_set_enabled(profile);
    trace_set_enabled(trace);
    profile_reset();
    trace_reset();
  }

 private:
  bool was_profiling_ = false;
};

TEST_F(ProbeTest, EachEnableStateRecordsExactlyWhatIsOn) {
  ThreadPool pool(3);
  for (const bool profile : {false, true}) {
    for (const bool trace : {false, true}) {
      SCOPED_TRACE(std::string("profile=") + (profile ? "on" : "off") +
                   " trace=" + (trace ? "on" : "off"));
      set_probes(profile, trace);
      { SG_PROFILE_SCOPE("probe_state_caller"); }
      pool.parallel_for(4, [](std::size_t) { SG_PROFILE_SCOPE("probe_state_worker"); });

      const std::string tree = profile_report_json();
      if (profile) {
        EXPECT_DOUBLE_EQ(json_number_after(tree, "\"probe_state_caller\"", "calls"), 1.0);
        EXPECT_DOUBLE_EQ(json_number_after(tree, "\"probe_state_worker\"", "calls"), 4.0);
      } else {
        EXPECT_EQ(tree.find("probe_state_"), std::string::npos) << tree;
      }
      const std::string events = trace_json();
      EXPECT_EQ(trace_events(events, "probe_state_caller").size(), trace ? 1u : 0u);
      EXPECT_EQ(trace_events(events, "probe_state_worker").size(), trace ? 4u : 0u);
    }
  }
}

TEST_F(ProbeTest, EventDurationsAgreeWithInclusiveTime) {
  set_probes(true, true);
  constexpr std::size_t kCalls = 16;
  const auto work = [] { std::this_thread::sleep_for(std::chrono::microseconds(150)); };
  for (std::size_t i = 0; i < kCalls; ++i) {
    SG_PROFILE_SCOPE("probe_timed_caller");
    work();
  }
  ThreadPool pool(2);
  pool.parallel_for(kCalls, [&](std::size_t) {
    SG_PROFILE_SCOPE("probe_timed_worker");
    work();
  });

  const std::string tree = profile_report_json();
  const std::string events = trace_json();
  for (const char* name : {"probe_timed_caller", "probe_timed_worker"}) {
    SCOPED_TRACE(name);
    const std::vector<TraceEventView> recorded = trace_events(events, name);
    ASSERT_EQ(recorded.size(), kCalls);
    double dur_us = 0.0;
    for (const TraceEventView& event : recorded) dur_us += static_cast<double>(event.dur);
    const double incl_us =
        json_number_after(tree, "\"" + std::string(name) + "\"", "incl_seconds") * 1e6;
    ASSERT_GE(incl_us, 150.0 * kCalls);
    // Both come from the same two clock reads per call; the event
    // truncates each end to whole microseconds.
    EXPECT_NEAR(dur_us, incl_us, 1.0 * kCalls);
  }
}

// A start measured from an origin taken after the scope opened is
// negative and wraps to a huge unsigned timestamp; no test process runs
// for a day.
constexpr std::uint64_t kOneDayUs = 86'400'000'000ULL;

TEST_F(ProbeTest, NestedEventsNestAndCountFromAFixedOrigin) {
  set_probes(false, true);
  {
    SG_PROFILE_SCOPE("probe_ts_outer");
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    {
      SG_PROFILE_SCOPE("probe_ts_inner");
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
  const std::string events = trace_json();
  const std::vector<TraceEventView> outer = trace_events(events, "probe_ts_outer");
  const std::vector<TraceEventView> inner = trace_events(events, "probe_ts_inner");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_LT(outer[0].ts, kOneDayUs);
  // Both ends of every event truncate from one origin, so truncation
  // cannot push a child past its parent.
  EXPECT_GE(inner[0].ts, outer[0].ts);
  EXPECT_LE(inner[0].ts + inner[0].dur, outer[0].ts + outer[0].dur);
}

// Switches death tests to the threadsafe style for one scope: it
// re-executes this binary, so the statement runs in a fresh process whose
// session read the environment the parent set.
class FreshProcessDeathTests {
 public:
  FreshProcessDeathTests() : style_(::testing::GTEST_FLAG(death_test_style)) {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  }
  ~FreshProcessDeathTests() { ::testing::GTEST_FLAG(death_test_style) = style_; }
  FreshProcessDeathTests(const FreshProcessDeathTests&) = delete;
  FreshProcessDeathTests& operator=(const FreshProcessDeathTests&) = delete;

 private:
  std::string style_;
};

// The same check where it can actually fail: the first traced scope of a
// fresh process that never set SPECTRA_TRACE, so nothing has touched the
// trace state before the statement runs.
TEST(ProbeOriginTest, FirstTracedScopeOfAFreshProcessHasASmallTimestamp) {
  if (!session_knobs().trace.empty()) {
    GTEST_SKIP() << "global trace stream owned by SPECTRA_TRACE";
  }
  const FreshProcessDeathTests fresh;
  EXPECT_EXIT(
      {
        trace_set_enabled(true);
        {
          // Long enough that an origin taken at the scope's exit lies
          // a whole microsecond past its start.
          SG_PROFILE_SCOPE("probe_fresh");
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        const std::vector<TraceEventView> events = trace_events(trace_json(), "probe_fresh");
        std::exit(events.size() == 1 && events[0].ts < kOneDayUs ? 0 : 1);
      },
      testing::ExitedWithCode(0), "");
}

// --- resource sampler ---------------------------------------------------

TEST(SamplerTest, ReadProcSampleReportsProcessFacts) {
#ifdef __linux__
  const ProcSample sample = read_proc_sample();
  EXPECT_GT(sample.rss_bytes, 0.0);
  EXPECT_GE(sample.peak_rss_bytes, sample.rss_bytes);
  EXPECT_GE(sample.cpu_utime_seconds, 0.0);
  EXPECT_GE(sample.cpu_stime_seconds, 0.0);
#else
  GTEST_SKIP() << "no /proc on this platform";
#endif
}

TEST(SamplerTest, SampleOnceUpdatesRegistry) {
  Registry& registry = Registry::instance();
  const std::uint64_t before = registry.counter("proc.sampler_ticks").value();
  sample_once();
  EXPECT_GE(registry.counter("proc.sampler_ticks").value(), before + 1);
#ifdef __linux__
  EXPECT_GT(registry.gauge("proc.rss_bytes").value(), 0.0);
  EXPECT_GT(registry.max_gauge("proc.peak_rss_bytes").value(), 0.0);
#endif
}

TEST(SamplerTest, StartStopLifecycle) {
  ResourceSampler& sampler = ResourceSampler::instance();
  const bool was_running = sampler.running();  // CI may have env-started it
  sampler.stop();
  EXPECT_FALSE(sampler.running());

  const std::uint64_t before = Registry::instance().counter("proc.sampler_ticks").value();
  sampler.start(1);
  EXPECT_TRUE(sampler.running());
  sampler.start(1);  // second start is a no-op, not a second thread
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  sampler.stop();  // idempotent
  EXPECT_GT(Registry::instance().counter("proc.sampler_ticks").value(), before);

  if (was_running) sampler.start(5);  // hand the env-started sampler back
}

// Pins the contract the thread safety annotations now make checkable:
// stop() joins the tick thread, so once it returns the tick counter is
// frozen — no straggler tick can land after stop(), no matter how the
// stop races the 1 ms tick loop. Hammering the start/stop edge makes the
// race window real instead of theoretical.
TEST(SamplerTest, StopFreezesTickCounter) {
  ResourceSampler& sampler = ResourceSampler::instance();
  const bool was_running = sampler.running();  // CI may have env-started it
  sampler.stop();

  Counter& ticks = Registry::instance().counter("proc.sampler_ticks");
  for (int round = 0; round < 5; ++round) {
    sampler.start(1);
    // Spin until at least one tick lands so the loop is really in flight
    // (first tick fires immediately on start, so this is quick).
    const std::uint64_t entered = ticks.value();
    while (ticks.value() == entered) std::this_thread::yield();
    sampler.stop();
    const std::uint64_t frozen = ticks.value();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(ticks.value(), frozen)
        << "tick landed after stop() returned (round " << round << ")";
  }

  if (was_running) sampler.start(5);
}

// --- run manifest -------------------------------------------------------

TEST(RunManifestTest, ManifestCarriesProvenanceAndExtras) {
  run_manifest_set("obs_test_extra", "42");
  run_manifest_set_string("obs_test_str", "hello \"quoted\"");
  const std::string json = run_manifest_json("obs-test-run");
  EXPECT_TRUE(parse_json(json).has_value()) << json;
  EXPECT_NE(json.find("\"name\":\"obs-test-run\""), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\":"), std::string::npos);
  EXPECT_NE(json.find("\"build_type\":"), std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds\":"), std::string::npos);
  EXPECT_NE(json.find("\"env\":"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\":"), std::string::npos);
  EXPECT_NE(json.find("\"profile\":"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test_extra\":42"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test_str\":\"hello \\\"quoted\\\"\""), std::string::npos);
}

// JSON strings may not hold raw control characters (json.load rejects
// them): a run name or metric name with a tab, a newline or \x01 comes
// out escaped as \u00XX.
TEST(RunManifestTest, ControlCharactersInNamesAreEscaped) {
  const std::string run_name = "tab\there\nnext\x01";
  Registry::instance().counter("obs_test.ctl\t\n\x01").inc();
  const std::string manifest = run_manifest_json(run_name);
  const std::string snapshot = Registry::instance().json_snapshot();
  for (const std::string& json : {manifest, snapshot}) {
    EXPECT_TRUE(std::none_of(json.begin(), json.end(),
                             [](char c) { return static_cast<unsigned char>(c) < 0x20; }))
        << json;
    EXPECT_TRUE(parse_json(json).has_value()) << json;
  }
  EXPECT_NE(manifest.find("\"name\":\"tab\\u0009here\\u000anext\\u0001\""), std::string::npos);
  EXPECT_NE(snapshot.find("\"obs_test.ctl\\u0009\\u000a\\u0001\":"), std::string::npos);
}

TEST(RunManifestTest, WriteRunManifestWritesFile) {
  const std::string path = testing::TempDir() + "/sg_run_manifest.json";
  std::remove(path.c_str());
  write_run_manifest(path, "obs-test-file");
  std::ifstream in(path);
  ASSERT_TRUE(static_cast<bool>(in));
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(parse_json(buffer.str()).has_value());
  EXPECT_NE(buffer.str().find("\"name\":\"obs-test-file\""), std::string::npos);
  std::remove(path.c_str());
}

// --- streaming trace export ---------------------------------------------

// The stream sink is process-global; when the binary was launched with
// SPECTRA_TRACE set, the session already owns it.
class TraceStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!session_knobs().trace.empty()) {
      GTEST_SKIP() << "global trace stream owned by SPECTRA_TRACE";
    }
    trace_reset();
    trace_set_enabled(true);
  }
  void TearDown() override {
    trace_stream_close();
    trace_set_enabled(false);
    trace_reset();
  }
};

TEST_F(TraceStreamTest, DrainStreamsEventsBeforeCloseFinalizes) {
  const std::string path = testing::TempDir() + "/sg_trace_stream.json";
  std::remove(path.c_str());
  const std::uint64_t flushes_before =
      Registry::instance().counter("trace.stream_flushes").value();

  trace_stream_open(path);
  { SG_PROFILE_SCOPE("stream_span_a"); }
  { SG_PROFILE_SCOPE("stream_span_b"); }
  trace_stream_drain();

  // Events are on disk before process exit (the SIGKILL-safety claim)...
  const std::string partial = slurp(path);
  EXPECT_NE(partial.find("stream_span_a"), std::string::npos);
  EXPECT_NE(partial.find("stream_span_b"), std::string::npos);
  EXPECT_GE(Registry::instance().counter("trace.stream_flushes").value(),
            flushes_before + 1);

  // ...and close turns the stream into a complete JSON array.
  trace_stream_close();
  const std::string full = slurp(path);
  EXPECT_EQ(full.front(), '[');
  EXPECT_TRUE(parse_json(full).has_value()) << full;
  std::remove(path.c_str());
}

TEST_F(TraceStreamTest, RecordingPastThresholdDrainsWithoutExplicitFlush) {
  const std::string path = testing::TempDir() + "/sg_trace_autodrain.json";
  std::remove(path.c_str());
  trace_stream_open(path);
  for (std::uint64_t i = 0; i < kStreamFlushEvents + 8; ++i) {
    SG_PROFILE_SCOPE("auto_drain_span");
  }
  // The recording thread itself crossed the threshold and drained.
  EXPECT_NE(slurp(path).find("auto_drain_span"), std::string::npos);
  trace_stream_close();
  EXPECT_TRUE(parse_json(slurp(path)).has_value());
  std::remove(path.c_str());
}

TEST(TraceRecoverTest, PartialStreamIsFinalizedAndRenamed) {
  const std::string path = testing::TempDir() + "/sg_trace_partial.json";
  const std::string recovered = path + ".recovered";
  std::remove(path.c_str());
  std::remove(recovered.c_str());
  {
    std::ofstream out(path);
    out << "[\n{\"name\":\"cut_short\",\"ph\":\"X\",\"ts\":1,\"dur\":2},";
  }
  EXPECT_TRUE(trace_recover_partial(path));
  EXPECT_FALSE(static_cast<bool>(std::ifstream(path)));  // renamed away
  const std::string contents = slurp(recovered);
  EXPECT_TRUE(parse_json(contents).has_value()) << contents;
  EXPECT_NE(contents.find("cut_short"), std::string::npos);
  std::remove(recovered.c_str());
}

// A SIGKILL between drains leaves the file ending exactly at an event's
// closing brace — the common case, since drains flush whole events. The
// leading '[' (never present in one-shot dumps) must mark it as a cut
// stream.
TEST(TraceRecoverTest, KillAtEventBoundaryIsStillRecovered) {
  const std::string path = testing::TempDir() + "/sg_trace_boundary.json";
  const std::string recovered = path + ".recovered";
  std::remove(path.c_str());
  std::remove(recovered.c_str());
  {
    std::ofstream out(path);
    out << "[\n{\"name\":\"a\",\"ph\":\"X\",\"ts\":1,\"dur\":2},\n"
        << "{\"name\":\"b\",\"ph\":\"X\",\"ts\":3,\"dur\":4}";
  }
  EXPECT_TRUE(trace_recover_partial(path));
  const std::string contents = slurp(recovered);
  EXPECT_TRUE(parse_json(contents).has_value()) << contents;
  EXPECT_NE(contents.find("\"b\""), std::string::npos);
  std::remove(recovered.c_str());
}

// A kill mid-write leaves a half-serialized record; recovery must drop
// it and close the array after the last complete event.
TEST(TraceRecoverTest, MidRecordCutIsTruncatedToLastCompleteEvent) {
  const std::string path = testing::TempDir() + "/sg_trace_midcut.json";
  const std::string recovered = path + ".recovered";
  std::remove(path.c_str());
  std::remove(recovered.c_str());
  {
    std::ofstream out(path);
    out << "[\n{\"name\":\"whole\",\"ph\":\"X\",\"ts\":1,\"dur\":2},\n"
        << "{\"name\":\"torn\",\"ph\":\"X\",\"ts\":47";
  }
  EXPECT_TRUE(trace_recover_partial(path));
  const std::string contents = slurp(recovered);
  EXPECT_TRUE(parse_json(contents).has_value()) << contents;
  EXPECT_NE(contents.find("whole"), std::string::npos);
  EXPECT_EQ(contents.find("torn"), std::string::npos);
  std::remove(recovered.c_str());
}

TEST(TraceRecoverTest, CompleteFileIsLeftAlone) {
  const std::string path = testing::TempDir() + "/sg_trace_complete.json";
  {
    std::ofstream out(path);
    out << "[\n{\"name\":\"done\",\"ph\":\"X\",\"ts\":1,\"dur\":2}\n]\n";
  }
  EXPECT_FALSE(trace_recover_partial(path));
  EXPECT_TRUE(static_cast<bool>(std::ifstream(path)));
  EXPECT_FALSE(static_cast<bool>(std::ifstream((path + ".recovered").c_str())));
  std::remove(path.c_str());
}

// --- the obs session ----------------------------------------------------

// Sets (or, for a null value, unsets) environment variables for one scope
// and restores them after; a re-executed child inherits them.
class ScopedEnv {
 public:
  explicit ScopedEnv(const std::vector<std::pair<std::string, const char*>>& vars) {
    for (const auto& [name, value] : vars) {
      const char* old = std::getenv(name.c_str());
      saved_.push_back({name, old != nullptr, old != nullptr ? old : ""});
      if (value != nullptr) {
        setenv(name.c_str(), value, 1);
      } else {
        unsetenv(name.c_str());
      }
    }
  }
  ~ScopedEnv() {
    for (auto it = saved_.rbegin(); it != saved_.rend(); ++it) {
      if (it->was_set) {
        setenv(it->name.c_str(), it->value.c_str(), 1);
      } else {
        unsetenv(it->name.c_str());
      }
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  struct Saved {
    std::string name;
    bool was_set;
    std::string value;
  };
  std::vector<Saved> saved_;
};

// The path the variable `knob` names for a re-executed child's output,
// under the test temp dir. The child runs the test body again before its
// statement; there the variable already names this path and the child's
// session owns the file, so only the parent clears a stale one.
std::string child_output(const char* knob, const std::string& name) {
  const std::string path = testing::TempDir() + "sg_session_" + name;
  const char* current = std::getenv(knob);
  if (current == nullptr || path != current) std::remove(path.c_str());
  return path;
}

// Member name -> number for a flat JSON object of numbers.
std::map<std::string, double> numbers(const Json* object) {
  std::map<std::string, double> out;
  if (object == nullptr) return out;
  for (const auto& [name, value] : object->members) out[name] = value.number;
  return out;
}

// Histogram name -> {count, sum}: what a snapshot taken later may not
// disagree on (the reservoir quantiles are recomputed per snapshot).
std::map<std::string, std::pair<double, double>> histogram_totals(const Json* object) {
  std::map<std::string, std::pair<double, double>> out;
  if (object == nullptr) return out;
  for (const auto& [name, value] : object->members) {
    const Json* count = value.get("count");
    const Json* sum = value.get("sum");
    out[name] = {count != nullptr ? count->number : -1.0, sum != nullptr ? sum->number : -1.0};
  }
  return out;
}

// Profile tree path ("a/b" for child b of a) -> call count.
void tree_calls(const Json* nodes, const std::string& prefix, std::map<std::string, double>& out) {
  if (nodes == nullptr) return;
  for (const Json& node : nodes->items) {
    const Json* name = node.get("name");
    const Json* calls = node.get("calls");
    const std::string path = prefix + (name != nullptr ? name->text : "?");
    out[path] = calls != nullptr ? calls->number : -1.0;
    tree_calls(node.get("children"), path + "/", out);
  }
}

std::map<std::string, double> tree_calls(const Json* profile) {
  std::map<std::string, double> out;
  if (profile != nullptr) tree_calls(profile->get("tree"), "", out);
  return out;
}

// The session's whole lifecycle in a fresh process: all five knobs set,
// more events than one stream batch, a clean exit. The outputs agree
// only when the exit writer stops the sampler and closes the trace before
// it writes the profile, the metrics and then the manifest.
TEST(SessionTest, ExitWriterFinishesEveryOutputInOrder) {
  const std::string trace = child_output("SPECTRA_TRACE", "trace.json");
  const std::string profile = child_output("SPECTRA_PROFILE", "profile.json");
  const std::string metrics = child_output("SPECTRA_METRICS", "metrics.json");
  const std::string manifest = child_output("SPECTRA_RUNMETA", "run.json");
  const ScopedEnv env({{"SPECTRA_TRACE", trace.c_str()},
                       {"SPECTRA_PROFILE", profile.c_str()},
                       {"SPECTRA_METRICS", metrics.c_str()},
                       {"SPECTRA_RUNMETA", manifest.c_str()},
                       {"SPECTRA_SAMPLE_MS", "1"}});
  constexpr std::uint64_t kInner = kStreamFlushEvents + 100;
  {
    const FreshProcessDeathTests fresh;
    EXPECT_EXIT(
        {
          {
            SG_PROFILE_SCOPE("session_outer");
            for (std::uint64_t i = 0; i < kInner; ++i) {
              SG_PROFILE_SCOPE("session_inner");
            }
          }
          Registry::instance().histogram("obs_test.session_hist").observe(0.25);
          const std::uint64_t flushes =
              Registry::instance().counter("trace.stream_flushes").value();
          run_manifest_set("flushes_before_exit", std::to_string(flushes));
          std::exit(0);
        },
        testing::ExitedWithCode(0), "");
  }

  std::map<std::string, std::optional<Json>> docs;
  for (const std::string& path : {trace, profile, metrics, manifest}) {
    docs[path] = parse_json(slurp(path));
    EXPECT_TRUE(docs[path].has_value()) << path << ":\n" << slurp(path);
    std::remove(path.c_str());
  }
  for (const auto& [path, doc] : docs) {
    if (!doc.has_value()) return;
  }
  const Json& trace_doc = *docs[trace];
  const Json& profile_doc = *docs[profile];
  const Json& metrics_doc = *docs[metrics];
  const Json& manifest_doc = *docs[manifest];

  // The trace is a closed array holding every event.
  ASSERT_EQ(trace_doc.kind, Json::Kind::kArray);
  std::map<std::string, std::uint64_t> events;
  for (const Json& event : trace_doc.items) {
    const Json* name = event.get("name");
    if (name != nullptr) ++events[name->text];
  }
  EXPECT_EQ(events["session_outer"], 1u);
  EXPECT_EQ(events["session_inner"], kInner);

  // The manifest embeds the same metrics the metrics file holds.
  const Json* embedded = manifest_doc.get("metrics");
  ASSERT_NE(embedded, nullptr);
  for (const char* section : {"counters", "gauges", "max_gauges"}) {
    SCOPED_TRACE(section);
    EXPECT_FALSE(numbers(metrics_doc.get(section)).empty());
    EXPECT_EQ(numbers(metrics_doc.get(section)), numbers(embedded->get(section)));
  }
  EXPECT_EQ(histogram_totals(metrics_doc.get("histograms")),
            histogram_totals(embedded->get("histograms")));
  EXPECT_GT(numbers(metrics_doc.get("counters"))["proc.sampler_ticks"], 0.0);

  // Both count the stream's closing drain.
  const Json* extra = manifest_doc.get("extra");
  ASSERT_NE(extra, nullptr);
  ASSERT_NE(extra->get("flushes_before_exit"), nullptr);
  const double flushes = extra->get("flushes_before_exit")->number + 1.0;
  EXPECT_GE(flushes, 2.0);  // one batch drain while recording, one at close
  EXPECT_EQ(numbers(metrics_doc.get("counters"))["trace.stream_flushes"], flushes);
  EXPECT_EQ(numbers(embedded->get("counters"))["trace.stream_flushes"], flushes);

  // The manifest embeds the profile file's tree.
  const std::map<std::string, double> calls = tree_calls(&profile_doc);
  EXPECT_EQ(calls.at("session_outer"), 1.0);
  EXPECT_EQ(calls.at("session_outer/session_inner"), static_cast<double>(kInner));
  EXPECT_EQ(tree_calls(manifest_doc.get("profile")), calls);
}

// Matches a child's stderr that holds, or lacks, the profile tree.
class ProfileTreeOnStderr : public testing::MatcherInterface<const std::string&> {
 public:
  explicit ProfileTreeOnStderr(bool printed) : printed_(printed) {}
  bool MatchAndExplain(const std::string& err, testing::MatchResultListener*) const override {
    return (err.find("# profile tree") != std::string::npos) == printed_;
  }
  void DescribeTo(std::ostream* os) const override {
    *os << (printed_ ? "holds" : "lacks") << " the profile tree";
  }

 private:
  bool printed_;
};

// One SPECTRA_PROFILE value and what the session makes of it.
struct ProfileKnobRow {
  const char* name;  // the row's test name
  const char* value;  // nullptr: a fresh JSON path
  bool on;
};

void PrintTo(const ProfileKnobRow& row, std::ostream* os) {
  *os << "SPECTRA_PROFILE=" << (row.value != nullptr ? row.value : "<path>");
}

class SessionProfileKnobTest : public testing::TestWithParam<ProfileKnobRow> {};

// An unset or empty knob is off; `0` and `false` are off; `1` and `true`
// turn the profiler on with no file; any other value is the JSON path.
TEST_P(SessionProfileKnobTest, ValueRule) {
  const ProfileKnobRow& row = GetParam();
  const std::string json_path = child_output("SPECTRA_PROFILE", "knob_profile.json");
  const std::string value = row.value != nullptr ? row.value : json_path;
  // A flag value must not become a file of that name in the working
  // directory (checked only when none was there before).
  const bool flag_file_existed = !value.empty() && file_exists(value);
  const ScopedEnv env({{"SPECTRA_PROFILE", value.c_str()},
                       {"SPECTRA_TRACE", nullptr},
                       {"SPECTRA_METRICS", nullptr},
                       {"SPECTRA_RUNMETA", nullptr},
                       {"SPECTRA_SAMPLE_MS", nullptr}});
  const bool on = row.on;
  {
    const FreshProcessDeathTests fresh;
    EXPECT_EXIT(
        {
          { SG_PROFILE_SCOPE("knob_row_scope"); }
          std::exit(profile_enabled() == on ? 0 : 1);
        },
        testing::ExitedWithCode(0),
        testing::Matcher<const std::string&>(new ProfileTreeOnStderr(on)));
  }
  if (row.value == nullptr) {
    const std::optional<Json> tree = parse_json(slurp(json_path));
    ASSERT_TRUE(tree.has_value()) << slurp(json_path);
    EXPECT_EQ(tree_calls(&*tree)["knob_row_scope"], 1.0);
    std::remove(json_path.c_str());
  } else if (!value.empty() && !flag_file_existed) {
    EXPECT_FALSE(file_exists(value)) << "SPECTRA_PROFILE=" << value << " wrote a file";
    std::remove(value.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rows, SessionProfileKnobTest,
    testing::Values(ProfileKnobRow{"Empty", "", false}, ProfileKnobRow{"Zero", "0", false},
                    ProfileKnobRow{"False", "false", false}, ProfileKnobRow{"One", "1", true},
                    ProfileKnobRow{"True", "true", true}, ProfileKnobRow{"Path", nullptr, true}),
    [](const testing::TestParamInfo<ProfileKnobRow>& row) { return std::string(row.param.name); });

}  // namespace
}  // namespace spectra::obs
