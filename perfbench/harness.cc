#include "perfbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/obs/metrics.h"

namespace perfbench {

using idivm::Database;
using idivm::Relation;
using idivm::Row;
using idivm::Value;
using idivm::ViewManager;

double SecondsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

Clock::time_point Plus(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

double Ratio(double numerator, double denominator) {
  return denominator != 0 ? numerator / denominator : 0;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Median(const std::vector<double>& samples) {
  return Percentile(samples, 0.5);
}

// ---- Sheet ----

void Sheet::Set(const std::string& name, double value,
                const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Sheet::SetTail(const std::string& name,
                    const std::vector<double>& samples, double p,
                    const std::string& unit) {
  if (static_cast<double>(samples.size()) * (1 - p) >= 10) {
    Set(name, Percentile(samples, p), unit);
  }
}

double Sheet::Get(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0 : it->second.first;
}

void Sheet::GateFailed(const std::string& why) {
  std::fprintf(stderr, "GATE FAILED: %s\n", why.c_str());
  correct_ = false;
}

namespace {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::string Sheet::Json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    if (!first) out << ", ";
    first = false;
    out << JsonString(name) << ": {\"value\": " << JsonNumber(entry.first)
        << ", \"unit\": " << JsonString(entry.second) << "}";
  }
  out << "}}";
  return out.str();
}

// ---- Spans ----

void SpanLog::Record(uint64_t id, const char* name, const char* layer,
                     Clock::time_point start, Clock::time_point end,
                     uint64_t parent, uint64_t request) {
  spans_.push_back(Span{name, layer, start, end, id, parent, request});
}

std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<const SpanLog*>& logs) {
  std::map<uint64_t, std::vector<const Span*>> children;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      if (span.parent != 0) children[span.parent].push_back(&span);
    }
  }
  std::map<std::string, double> self;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      double covered = 0;
      const auto it = children.find(span.id);
      if (it != children.end()) {
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<Clock::time_point, Clock::time_point>> spans;
        for (const Span* child : it->second) {
          spans.emplace_back(std::max(child->start, span.start),
                             std::min(child->end, span.end));
        }
        std::sort(spans.begin(), spans.end());
        Clock::time_point reach = span.start;
        for (const auto& [start, end] : spans) {
          const Clock::time_point from = std::max(start, reach);
          if (end > from) {
            covered += SecondsBetween(from, end);
            reach = end;
          }
        }
      }
      self[span.layer] +=
          std::max(0.0, SecondsBetween(span.start, span.end) - covered);
    }
  }
  return self;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs,
                Clock::time_point origin) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  bool first = true;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      const double ts =
          std::chrono::duration<double, std::micro>(span.start - origin)
              .count();
      const double dur =
          std::chrono::duration<double, std::micro>(span.end - span.start)
              .count();
      out << (first ? "" : ",\n") << "{\"name\": " << JsonString(span.name)
          << ", \"cat\": " << JsonString(span.layer)
          << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << log->lane()
          << ", \"ts\": " << JsonNumber(ts) << ", \"dur\": "
          << JsonNumber(dur) << ", \"args\": {\"id\": " << span.id
          << ", \"parent\": " << span.parent
          << ", \"request\": " << span.request
          << ", \"layer\": " << JsonString(span.layer) << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void FinishTrace(const RunOptions& options,
                 const std::vector<const SpanLog*>& logs,
                 Clock::time_point origin, Sheet* sheet) {
  const std::map<std::string, double> self = SelfSecondsByLayer(logs);
  double total = 0;
  for (const auto& [layer, seconds] : self) total += seconds;
  for (const char* layer :
       {"workload", "core", "mvcc", "serve", "persist"}) {
    const auto it = self.find(layer);
    const double seconds = it == self.end() ? 0 : it->second;
    sheet->Set(std::string("trace.self_share.") + layer,
               total > 0 ? seconds / total : 0, "fraction");
  }
  size_t spans = 0;
  for (const SpanLog* log : logs) spans += log->spans().size();
  sheet->Set("trace.spans", static_cast<double>(spans), "count");
  if (!options.spans_path.empty() &&
      !WriteSpans(options.spans_path, logs, origin)) {
    std::fprintf(stderr, "warning: cannot write spans to %s\n",
                 options.spans_path.c_str());
  }
}

// ---- Machine speed ----

namespace {

// 2^18 keys: about 30 MB of nodes and rows, well past the private caches.
constexpr uint64_t kLargeKeys = uint64_t{1} << 18;
// 2^14 keys: under 2 MB, within a core's private cache.
constexpr uint64_t kSmallKeys = uint64_t{1} << 14;
constexpr int kProbeSteps = 1000;
constexpr double kProbeShare = 0.05;

uint64_t ProbeKey(uint64_t index) { return index * 0x9e3779b97f4a7c15ULL; }

}  // namespace

SpeedProbe::SpeedProbe() {
  for (const auto& [table, keys] : {std::pair{&large_, kLargeKeys},
                                    std::pair{&small_, kSmallKeys}}) {
    table->reserve(keys);
    for (uint64_t index = 0; index < keys; ++index) {
      (*table)[ProbeKey(index)] = {index, index + 1, index + 2, index + 3};
    }
  }
}

double SpeedProbe::Unit() {
  const Clock::time_point start = Clock::now();
  uint64_t sum = 0;
  auto probe = [&sum](const auto& table, uint64_t index) {
    const std::vector<uint64_t> copy = table.find(ProbeKey(index))->second;
    for (const uint64_t value : copy) sum += value;
  };
  for (int step = 0; step < kProbeSteps; ++step) {
    // A full-period walk over the key indices, scattered by an odd
    // multiplier: no key recurs within kLargeKeys steps, so a run of
    // units reads as cold as a single one.
    large_state_ = (large_state_ * 5 + 1) % kLargeKeys;
    probe(large_, large_state_ * 0x2545f4914f6cdd1dULL % kLargeKeys);
  }
  for (int step = 0; step < kProbeSteps; ++step) {
    small_state_ ^= small_state_ << 13;
    small_state_ ^= small_state_ >> 7;
    small_state_ ^= small_state_ << 17;
    probe(small_, small_state_ % kSmallKeys);
  }
  sink_ += sum;
  const Clock::time_point end = Clock::now();
  const double seconds = SecondsBetween(start, end);
  readings_.emplace_back(end, seconds);
  return seconds;
}

void SpeedProbe::After(double op_seconds) {
  double spent = Unit();
  while (spent < kProbeShare * op_seconds) spent += Unit();
}

double SpeedProbe::AtReference(double value, Clock::time_point start,
                               Clock::time_point end) const {
  const auto before = [](const std::pair<Clock::time_point, double>& reading,
                         Clock::time_point at) { return reading.first < at; };
  const auto first =
      std::lower_bound(readings_.begin(), readings_.end(),
                       Plus(start, -kProbeWindowSeconds), before);
  const auto last = std::lower_bound(first, readings_.end(),
                                     Plus(end, kProbeWindowSeconds), before);
  std::vector<double> units;
  for (auto it = first; it != last; ++it) units.push_back(it->second);
  if (units.empty()) return value;
  return value * kReferenceUnitSeconds / Median(units);
}

double SpeedProbe::AtReference(double value) const {
  const double unit = MedianUnitSeconds();
  return unit > 0 ? value * kReferenceUnitSeconds / unit : value;
}

double SpeedProbe::MedianUnitSeconds() const {
  std::vector<double> units;
  for (const auto& reading : readings_) units.push_back(reading.second);
  return Median(units);
}

// ---- Process resources ----

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// ---- Engine ----

Engine BuildEngine(SpanLog* log) {
  Engine engine;
  const uint64_t root = log != nullptr ? log->NewId() : 0;
  const Clock::time_point start = Clock::now();
  engine.db = std::make_unique<Database>();
  const idivm::BsmaWorkload workload(engine.db.get(), idivm::BsmaConfig{});
  const Clock::time_point generated = Clock::now();
  engine.vm = std::make_unique<ViewManager>(engine.db.get());
  for (const std::string& view : idivm::BsmaWorkload::ViewNames()) {
    const Clock::time_point define_start = Clock::now();
    engine.vm->DefineView(view, workload.ViewPlan(view));
    if (log != nullptr) {
      log->Add(view.c_str(), "core", define_start, Clock::now(), root, 0);
    }
  }
  const Clock::time_point end = Clock::now();
  engine.generate_seconds = SecondsBetween(start, generated);
  engine.define_seconds = SecondsBetween(generated, end);
  if (log != nullptr) {
    log->Add("BsmaWorkload", "workload", start, generated, root, 0);
    log->Record(root, "setup", "workload", start, end, 0, 0);
  }
  return engine;
}

void ResetEngine(Engine* engine) {
  engine->vm.reset();
  engine->db.reset();
}

// ---- Update stream ----

UserUpdate UpdateStream::Next() {
  UserUpdate update;
  update.uid = rng_.UniformInt(0, users_ - 1);
  update.tweetsnum = rng_.UniformInt(0, 2000);
  update.favornum = rng_.UniformInt(0, 5000);
  return update;
}

Row UserKey(const UserUpdate& update) { return {Value(update.uid)}; }

Row UserValues(const UserUpdate& update) {
  return {Value(update.tweetsnum), Value(update.favornum)};
}

const std::vector<std::string>& UserSetColumns() {
  static const std::vector<std::string> columns = {"tweetsnum", "favornum"};
  return columns;
}

namespace {

// Share of hits in hits + misses, 0 when neither happened.
double HitShare(int64_t hits, int64_t misses) {
  return Ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
}

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return Mix(Mix(seed) ^ (stream * 0x632be59bd9b4e019ULL));
}

// ---- Correctness ----

uint64_t RowHash(const Row& row) {
  uint64_t h = 0x84222325cbf29ce4ULL;
  for (const Value& value : row) h = Mix(h ^ value.Hash());
  return h;
}

uint64_t Fingerprint(const Relation& relation) {
  uint64_t sum = 0;
  for (const Row& row : relation.rows()) sum += RowHash(row);
  return sum;
}

uint64_t TableFingerprint(const idivm::Table& table) {
  uint64_t sum = 0;
  table.ForEachRowUncounted([&](const Row& row) { sum += RowHash(row); });
  return sum;
}

std::string DamageOneView(Database* db, ViewManager* vm) {
  for (const std::string& view : vm->ViewNames()) {
    idivm::Table& table = db->GetTable(view);
    const Relation rows = table.SnapshotUncounted();
    if (rows.empty() || table.key_indices().empty()) continue;
    Row key;
    for (const size_t index : table.key_indices()) {
      key.push_back(rows.rows().front()[index]);
    }
    if (table.DeleteByKey(key)) return view;
  }
  return "";
}

bool ViewsMatchRecompute(Database* db, ViewManager* vm, Sheet* sheet) {
  std::vector<std::pair<std::string, Relation>> maintained;
  for (const std::string& view : vm->ViewNames()) {
    maintained.emplace_back(view, db->GetTable(view).SnapshotUncounted());
  }
  vm->RecomputeAllViews();
  bool match = true;
  for (const auto& [view, contents] : maintained) {
    if (!contents.BagEquals(db->GetTable(view).SnapshotUncounted())) {
      sheet->GateFailed("view " + view + " diverges from recompute");
      match = false;
    }
  }
  return match;
}

// ---- Registry ----

int64_t RegistryReading::Counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double RegistryReading::HistogramSum(const std::string& name) const {
  const auto it = histogram_sums.find(name);
  return it == histogram_sums.end() ? 0 : it->second;
}

RegistryReading ReadRegistry() {
  const idivm::obs::MetricsSnapshot snapshot =
      idivm::obs::MetricsRegistry::Global().Snapshot();
  RegistryReading reading;
  for (const auto& [name, value] : snapshot.counters) {
    reading.counters[name] = value;
  }
  for (const auto& histogram : snapshot.histograms) {
    reading.histogram_sums[histogram.name] = histogram.sum;
  }
  return reading;
}

void ReportAccesses(const idivm::AccessStats& accesses, double updates,
                    Sheet* sheet) {
  sheet->Set("accesses_per_update",
             Ratio(static_cast<double>(accesses.TotalAccesses()), updates),
             "count");
  sheet->Set("storage.index_lookups_per_update",
             Ratio(static_cast<double>(accesses.index_lookups), updates),
             "count");
  sheet->Set("storage.tuple_reads_per_update",
             Ratio(static_cast<double>(accesses.tuple_reads), updates),
             "count");
  sheet->Set("storage.tuple_writes_per_update",
             Ratio(static_cast<double>(accesses.tuple_writes), updates),
             "count");
}

void ReportLadder(const idivm::AccessStats& delta, Sheet* sheet) {
  sheet->Set("robust.rollbacks", static_cast<double>(delta.epoch_rollbacks),
             "count");
  sheet->Set("robust.retries", static_cast<double>(delta.degraded_retries),
             "count");
  sheet->Set("robust.recomputes",
             static_cast<double>(delta.recompute_fallbacks), "count");
  sheet->Set("robust.quarantines", static_cast<double>(delta.quarantines),
             "count");
}

void ReportUndoAndExec(const RegistryReading& before,
                       const RegistryReading& after, int64_t refreshes,
                       int64_t updates, Sheet* sheet) {
  auto delta = [&](const char* name) {
    return static_cast<double>(after.Counter(name) - before.Counter(name));
  };
  sheet->Set("robust.undo_batches_per_refresh",
             Ratio(delta("idivm_undo_batches_total"),
                   static_cast<double>(refreshes)),
             "count");
  sheet->Set("robust.undo_bytes_per_update",
             Ratio(delta("idivm_undo_batched_bytes_total"),
                   static_cast<double>(updates)),
             "B");
  // The executor counters cover the whole process: compilation happens at
  // set-up or on first use, not only inside the measured phase.
  sheet->Set("exec.compile_s", after.HistogramSum("idivm_compile_seconds"),
             "s");
  sheet->Set("exec.program_cache_hit_share",
             HitShare(after.Counter("idivm_program_cache_hits_total"),
                      after.Counter("idivm_program_cache_misses_total")),
             "fraction");
  sheet->Set("exec.agg_kernel_hit_share",
             HitShare(after.Counter("idivm_agg_kernel_hits_total"),
                      after.Counter("idivm_agg_kernel_misses_total")),
             "fraction");
}

}  // namespace perfbench
