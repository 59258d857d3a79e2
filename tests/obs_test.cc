// The observability layer (src/obs): metrics registry semantics, export
// determinism, and span tracing. The load-bearing assertions are the
// docs/OBSERVABILITY.md contract checks — per-span AccessStats attribution
// sums *exactly* to the database-wide counters at every thread count, and
// the emitted Chrome trace JSON stays schema-valid.

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/compose.h"
#include "src/core/maintainer.h"
#include "src/core/modification_log.h"
#include "src/core/view_manager.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/workload/devices_parts.h"

namespace idivm {
namespace {

using obs::Counter;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::TraceRecorder;
using obs::TraceSpan;

// ---- Metrics registry ----------------------------------------------------

TEST(ObsMetricsTest, CounterIncrementsAndResets) {
  MetricsRegistry registry;
  Counter& c = registry.counter("test_total");
  EXPECT_EQ(c.value(), 0);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42);
  EXPECT_EQ(registry.CounterValue("test_total"), 42);
  // Same name must return the same counter.
  registry.counter("test_total").Increment();
  EXPECT_EQ(c.value(), 43);
  registry.Reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(ObsMetricsTest, CounterValueDoesNotCreate) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.CounterValue("never_incremented"), 0);
  EXPECT_EQ(registry.ExportText().find("never_incremented"),
            std::string::npos);
}

TEST(ObsMetricsTest, HistogramBucketsArePowersOfFour) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("test_hist");
  h.Observe(0.5);   // <= 1
  h.Observe(3.0);   // <= 4
  h.Observe(100);   // <= 256
  h.Observe(-7);    // clamps to 0, <= 1
  EXPECT_EQ(h.count(), 4);
  EXPECT_NEAR(h.sum(), 103.5, 1e-6);
  EXPECT_EQ(h.CumulativeCount(0), 2);                    // le 1
  EXPECT_EQ(h.CumulativeCount(1), 3);                    // le 4
  EXPECT_EQ(h.CumulativeCount(4), 4);                    // le 256
  EXPECT_EQ(h.CumulativeCount(Histogram::kBuckets), 4);  // +inf
  EXPECT_EQ(Histogram::BucketBound(0), 1.0);
  EXPECT_EQ(Histogram::BucketBound(3), 64.0);
}

TEST(ObsMetricsTest, ExportTextIsSortedAndVersioned) {
  MetricsRegistry registry;
  registry.counter("zebra_total").Increment(3);
  registry.counter("aardvark_total").Increment(1);
  registry.histogram("middle_hist").Observe(2);
  const std::string text = registry.ExportText();
  EXPECT_EQ(text.find("# idivm-metrics 1\n"), 0u) << text;
  const size_t a = text.find("counter aardvark_total 1");
  const size_t m = text.find("histogram middle_hist count 1");
  const size_t z = text.find("counter zebra_total 3");
  ASSERT_NE(a, std::string::npos) << text;
  ASSERT_NE(m, std::string::npos) << text;
  ASSERT_NE(z, std::string::npos) << text;
  EXPECT_LT(a, m);
  EXPECT_LT(m, z);
}

TEST(ObsMetricsTest, RuleAccessCounterNameEscapesLabels) {
  EXPECT_EQ(obs::RuleAccessCounterName("q7", "apply d3 -> v"),
            "idivm_rule_accesses_total{view=\"q7\",rule=\"apply d3 -> v\"}");
  // Quotes and backslashes in labels must stay one well-formed line.
  const std::string name = obs::RuleAccessCounterName("a\"b", "c\\d");
  EXPECT_EQ(name,
            "idivm_rule_accesses_total{view=\"a\\\"b\",rule=\"c\\\\d\"}");
  EXPECT_EQ(obs::EscapeLabelValue("tab\there"), "tab_here");
}

// ---- Export determinism --------------------------------------------------

// Strips non-deterministic lines (wall-clock histograms) from an export.
std::string StripTimingLines(const std::string& text) {
  std::istringstream in(text);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("_seconds") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

// One full maintenance round on a fresh devices/parts database, charging
// the process-global registry.
void RunOneMaintenanceRound() {
  Database db;
  DevicesPartsWorkload workload(&db, DevicesPartsConfig{});
  Maintainer m(&db, CompileView("vp", workload.AggViewPlan(), db));
  ModificationLogger logger(&db);
  workload.ApplyPriceUpdates(&logger, 50);
  MaintainResult result;
  const Status status = m.TryMaintain(logger.NetChanges(), {}, &result);
  ASSERT_TRUE(status.ok()) << status.ToString();
}

// Sets each listed part's price through `logger`, then runs `m` over the
// logged net changes.
void SetPricesAndMaintain(ModificationLogger* logger, Maintainer* m,
                          const std::vector<std::pair<Value, Value>>& prices,
                          MaintainResult* result) {
  for (const auto& [pid, price] : prices) {
    ASSERT_TRUE(logger->Update("parts", {pid}, {"price"}, {price}));
  }
  const Status status = m->TryMaintain(logger->NetChanges(), {}, result);
  logger->Clear();
  ASSERT_TRUE(status.ok()) << status.ToString();
}

TEST(ObsMetricsTest, GlobalSnapshotIsDeterministicAcrossIdenticalRuns) {
  MetricsRegistry& global = MetricsRegistry::Global();
  global.Reset();
  RunOneMaintenanceRound();
  const std::string first = StripTimingLines(global.ExportText());
  global.Reset();
  RunOneMaintenanceRound();
  const std::string second = StripTimingLines(global.ExportText());
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_GT(global.CounterValue("idivm_epochs_total"), 0);
  EXPECT_GT(global.CounterValue("idivm_apply_diff_tuples_total"), 0);

  // One maintainer kept across Reset, as benches keep theirs through
  // warmup: the handles it and the layers below bound on earlier epochs
  // must still count into the export. Each round sets 50 new prices and
  // is then undone, so every round starts from the same state.
  Database db;
  DevicesPartsWorkload workload(&db, DevicesPartsConfig{});
  Maintainer m(&db, CompileView("vp", workload.AggViewPlan(), db));
  ModificationLogger logger(&db);
  workload.ApplyPriceUpdates(&logger, 50);
  const size_t pid = db.GetTable("parts").schema().ColumnIndex("pid");
  const size_t price = db.GetTable("parts").schema().ColumnIndex("price");
  std::vector<std::pair<Value, Value>> forward;
  std::vector<std::pair<Value, Value>> undo;
  const auto net = logger.NetChanges();
  for (const Modification& mod : net.at("parts")) {
    forward.emplace_back(mod.post[pid], mod.post[price]);
    undo.emplace_back(mod.pre[pid], mod.pre[price]);
  }
  MaintainResult result;
  ASSERT_TRUE(m.TryMaintain(net, {}, &result).ok());
  logger.Clear();
  std::vector<std::string> kept;
  for (int round = 0; round < 2; ++round) {
    SetPricesAndMaintain(&logger, &m, undo, &result);
    global.Reset();
    SetPricesAndMaintain(&logger, &m, forward, &result);
    kept.push_back(StripTimingLines(global.ExportText()));
    // Counted after the Reset, not merely registered: the per-rule
    // counters sum to the epoch's step accesses.
    int64_t rule_sum = 0;
    for (const auto& [name, value] : global.Snapshot().counters) {
      if (name.rfind("idivm_rule_accesses_total{view=\"vp\"", 0) == 0) {
        rule_sum += value;
      }
    }
    EXPECT_EQ(rule_sum, result.TotalAccesses().TotalAccesses());
    EXPECT_EQ(global.CounterValue("idivm_apply_diff_tuples_total"),
              result.diff_tuples_applied);
    EXPECT_EQ(global.CounterValue("idivm_apply_rows_touched_total"),
              result.rows_touched);
  }
  EXPECT_EQ(kept[0], kept[1]);
  EXPECT_GT(result.rows_touched, 0);
  for (const char* name :
       {"idivm_epochs_total", "idivm_undo_batches_total",
        "idivm_undo_batched_bytes_total", "idivm_program_cache_hits_total"}) {
    EXPECT_GT(global.CounterValue(name), 0) << name;
  }
  EXPECT_EQ(global.CounterValue("idivm_program_cache_misses_total"), 0);
}

// ---- Span tracing --------------------------------------------------------

int64_t SumSpanAccesses(const std::vector<TraceSpan>& spans,
                        const std::string& category) {
  int64_t sum = 0;
  for (const TraceSpan& span : spans) {
    if (span.category == category) sum += span.accesses.TotalAccesses();
  }
  return sum;
}

// The acceptance check of docs/OBSERVABILITY.md: per-rule AccessStats
// deltas captured in spans sum exactly to the database-wide counters the
// epoch published, at every thread count, and spans nest (rules inside
// their epoch, applies inside their rule). "Parallel" in the name opts the
// 8-thread run into the TSan CI job.
TEST(ObsTraceTest, ParallelSpanAttributionSumsExactly) {
  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Database db;
    DevicesPartsWorkload workload(&db, DevicesPartsConfig{});
    Maintainer m(&db, CompileView("vp", workload.AggViewPlan(), db));
    ModificationLogger logger(&db);
    workload.ApplyPriceUpdates(&logger, 50);
    db.stats().Reset();

    TraceRecorder recorder;
    MaintainOptions options;
    options.threads = threads;
    options.trace = &recorder;
    MaintainResult result;
    const Status status = m.TryMaintain(logger.NetChanges(), options, &result);
    ASSERT_TRUE(status.ok()) << status.ToString();

    const std::vector<TraceSpan> spans = recorder.Snapshot();
    const int64_t global_delta = db.stats().TotalAccesses();

    // Exactly one epoch span, carrying the exact database-wide delta.
    std::vector<TraceSpan> epochs;
    for (const TraceSpan& span : spans) {
      if (span.category == "epoch") epochs.push_back(span);
    }
    ASSERT_EQ(epochs.size(), 1u);
    EXPECT_EQ(epochs[0].accesses.TotalAccesses(), global_delta);
    EXPECT_EQ(result.TotalAccesses().TotalAccesses() +
                  SumSpanAccesses(spans, "setup"),
              global_delta);

    // The rule spans partition the epoch's charges (setup holds the rest).
    EXPECT_EQ(SumSpanAccesses(spans, "rule") + SumSpanAccesses(spans, "setup"),
              global_delta);

    // One rule span per ∆-script step; every rule nests inside the epoch's
    // wall-clock window, every apply inside a rule on its own thread.
    const TraceSpan& epoch = epochs[0];
    std::set<int> tids;
    for (const TraceSpan& span : spans) {
      if (span.category == "rule" || span.category == "apply") {
        EXPECT_GE(span.start_us, epoch.start_us) << span.name;
        EXPECT_LE(span.start_us + span.dur_us, epoch.start_us + epoch.dur_us)
            << span.name;
        tids.insert(span.tid);
      }
      if (span.category == "apply") {
        bool nested = false;
        for (const TraceSpan& rule : spans) {
          if (rule.category == "rule" && rule.tid == span.tid &&
              rule.start_us <= span.start_us &&
              span.start_us + span.dur_us <= rule.start_us + rule.dur_us) {
            nested = true;
            break;
          }
        }
        EXPECT_TRUE(nested) << span.name << " not nested in any rule span";
      }
    }
    // Sequential runs stay on the calling thread; parallel runs use at most
    // the pool's workers.
    if (threads == 1) {
      EXPECT_EQ(tids.size(), 1u);
    } else {
      EXPECT_LE(tids.size(), static_cast<size_t>(threads));
    }
  }
}

TEST(ObsTraceTest, FailedEpochRecordsZeroChargeSpan) {
  Database db;
  DevicesPartsWorkload workload(&db, DevicesPartsConfig{});
  Maintainer m(&db, CompileView("vp", workload.AggViewPlan(), db));
  ModificationLogger logger(&db);
  workload.ApplyPriceUpdates(&logger, 50);
  db.stats().Reset();

  TraceRecorder recorder;
  MaintainOptions options;
  options.trace = &recorder;
  options.max_epoch_ops = 1;  // guaranteed kResourceExhausted
  MaintainResult result;
  const Status status = m.TryMaintain(logger.NetChanges(), options, &result);
  ASSERT_FALSE(status.ok());

  // The rolled-back epoch published nothing, so its span charges nothing
  // and no rule spans survive.
  ASSERT_EQ(recorder.size(), 1u);
  const TraceSpan span = recorder.Snapshot()[0];
  EXPECT_EQ(span.category, "epoch");
  EXPECT_EQ(span.accesses.TotalAccesses(), 0);
  bool failed_arg = false;
  for (const auto& [key, value] : span.args) {
    if (key == "failed" && value == 1) failed_arg = true;
  }
  EXPECT_TRUE(failed_arg);
  EXPECT_EQ(db.stats().TotalAccesses(), 0);
}

TEST(ObsTraceTest, RefreshRecordsLadderSpans) {
  Database db;
  DevicesPartsWorkload workload(&db, DevicesPartsConfig{});
  ViewManager vm(&db);
  vm.DefineView("vp", workload.AggViewPlan());
  workload.ApplyPriceUpdates(&vm.logger(), 20);

  TraceRecorder recorder;
  RefreshOptions options;
  options.trace = &recorder;
  options.max_epoch_ops = 1;  // every epoch fails -> ladder rung 2
  options.degrade = DegradePolicy::kQuarantine;
  RefreshReport report;
  const Status status = vm.TryRefresh(options, &report);
  EXPECT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(report.incidents.size(), 1u);
  EXPECT_EQ(report.incidents[0].rung, 2);

  bool saw_refresh = false;
  bool saw_ladder = false;
  for (const TraceSpan& span : recorder.Snapshot()) {
    if (span.category == "refresh") saw_refresh = true;
    if (span.category == "ladder" && span.name == "recompute vp") {
      saw_ladder = true;
      EXPECT_GT(span.accesses.TotalAccesses(), 0);
    }
  }
  EXPECT_TRUE(saw_refresh);
  EXPECT_TRUE(saw_ladder);
}

// ---- Trace JSON schema ---------------------------------------------------

// A minimal JSON reader, just rich enough to verify the Chrome trace_event
// schema the recorder promises (docs/OBSERVABILITY.md "Trace file format").
// Not a general parser: no floats beyond integers, which is exactly what
// the recorder emits.
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text) : text_(text) {}

  bool Fail(const std::string& why) {
    error_ = why + " at offset " + std::to_string(pos_);
    return false;
  }
  const std::string& error() const { return error_; }

  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(ToByte(text_[pos_]))) ++pos_;
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return Fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }

  bool Peek(char c) {
    SkipSpace();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        if (pos_ + 1 >= text_.size()) return Fail("dangling escape");
        const char esc = text_[pos_ + 1];
        if (esc == 'u') {
          if (pos_ + 5 >= text_.size()) return Fail("short \\u escape");
          for (int i = 2; i < 6; ++i) {
            if (!std::isxdigit(ToByte(text_[pos_ + i]))) {
              return Fail("bad \\u escape");
            }
          }
          out->push_back('?');
          pos_ += 6;
          continue;
        }
        if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' &&
            esc != 'f' && esc != 'n' && esc != 'r' && esc != 't') {
          return Fail("bad escape");
        }
        out->push_back(esc);
        pos_ += 2;
        continue;
      }
      if (ToByte(text_[pos_]) < 0x20) return Fail("raw control character");
      out->push_back(text_[pos_++]);
    }
    return Consume('"');
  }

  bool ParseInt(int64_t* out) {
    SkipSpace();
    const size_t start = pos_;
    if (Peek('-')) ++pos_;
    while (pos_ < text_.size() && std::isdigit(ToByte(text_[pos_]))) ++pos_;
    if (pos_ == start) return Fail("expected integer");
    *out = std::stoll(text_.substr(start, pos_ - start));
    return true;
  }

  // Parses an object of string keys whose values are strings, integers, or
  // one-level nested objects of the same shape (the "args" object).
  struct FlatValue {
    std::string string_value;
    int64_t int_value = 0;
    bool is_string = false;
  };
  using FlatObject = std::map<std::string, FlatValue>;

  bool ParseObject(FlatObject* out, FlatObject* nested_args) {
    if (!Consume('{')) return false;
    if (Peek('}')) return Consume('}');
    while (true) {
      std::string key;
      if (!ParseString(&key)) return false;
      if (!Consume(':')) return false;
      SkipSpace();
      if (Peek('"')) {
        FlatValue value;
        value.is_string = true;
        if (!ParseString(&value.string_value)) return false;
        (*out)[key] = value;
      } else if (Peek('{')) {
        if (nested_args == nullptr || key != "args") {
          return Fail("unexpected nested object under " + key);
        }
        if (!ParseObject(nested_args, nullptr)) return false;
      } else {
        FlatValue value;
        if (!ParseInt(&value.int_value)) return false;
        (*out)[key] = value;
      }
      if (Peek(',')) {
        Consume(',');
        continue;
      }
      return Consume('}');
    }
  }

  size_t pos() const { return pos_; }

 private:
  static unsigned char ToByte(char c) { return static_cast<unsigned char>(c); }

  const std::string& text_;
  size_t pos_ = 0;
  std::string error_;
};

TEST(ObsTraceTest, ChromeTraceJsonStaysSchemaValid) {
  Database db;
  DevicesPartsWorkload workload(&db, DevicesPartsConfig{});
  Maintainer m(&db, CompileView("vp", workload.AggViewPlan(), db));
  ModificationLogger logger(&db);
  workload.ApplyPriceUpdates(&logger, 20);

  TraceRecorder recorder;
  MaintainOptions options;
  options.threads = 2;
  options.trace = &recorder;
  MaintainResult result;
  ASSERT_TRUE(m.TryMaintain(logger.NetChanges(), options, &result).ok());
  // A span name with JSON-hostile characters must survive escaping.
  TraceSpan hostile;
  hostile.name = "quote\" backslash\\ newline\n tab\t";
  hostile.category = "rule";
  recorder.Record(hostile);

  const std::string json = recorder.ToChromeTraceJson();

  JsonCursor cursor(json);
  JsonCursor::FlatObject top;
  ASSERT_TRUE(cursor.Consume('{')) << cursor.error();
  std::string key;
  ASSERT_TRUE(cursor.ParseString(&key)) << cursor.error();
  ASSERT_EQ(key, "traceEvents");
  ASSERT_TRUE(cursor.Consume(':')) << cursor.error();
  ASSERT_TRUE(cursor.Consume('[')) << cursor.error();

  size_t events = 0;
  size_t complete_events = 0;
  while (!cursor.Peek(']')) {
    JsonCursor::FlatObject event;
    JsonCursor::FlatObject args;
    ASSERT_TRUE(cursor.ParseObject(&event, &args)) << cursor.error();
    ++events;
    ASSERT_TRUE(event.count("ph"));
    const std::string ph = event.at("ph").string_value;
    ASSERT_TRUE(ph == "X" || ph == "M") << ph;
    ASSERT_TRUE(event.count("pid"));
    ASSERT_TRUE(event.count("tid"));
    ASSERT_TRUE(event.count("name"));
    if (ph == "X") {
      ++complete_events;
      ASSERT_TRUE(event.count("cat"));
      ASSERT_TRUE(event.count("ts"));
      ASSERT_TRUE(event.count("dur"));
      // Every complete event carries the cost-model args.
      ASSERT_TRUE(args.count("index_lookups"));
      ASSERT_TRUE(args.count("tuple_reads"));
      ASSERT_TRUE(args.count("tuple_writes"));
      ASSERT_TRUE(args.count("total_accesses"));
      EXPECT_EQ(args.at("total_accesses").int_value,
                args.at("index_lookups").int_value +
                    args.at("tuple_reads").int_value +
                    args.at("tuple_writes").int_value);
    }
    if (cursor.Peek(',')) cursor.Consume(',');
  }
  ASSERT_TRUE(cursor.Consume(']')) << cursor.error();
  EXPECT_EQ(complete_events, recorder.size());
  EXPECT_GT(events, complete_events);  // thread_name metadata present
}

}  // namespace
}  // namespace idivm
