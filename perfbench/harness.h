// Shared pieces of the benchmark program: clocks and percentiles, the
// result sheet every workload fills, the span log of a traced run, the BSMA
// engine set-up, the seeded update stream, and the correctness gates'
// helpers. Everything here calls the library only through the API the
// workloads exercise (ViewManager, MaintenanceService, persist, mvcc and
// the metrics registry's Snapshot()).

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/view_manager.h"
#include "src/storage/database.h"
#include "src/workload/bsma.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point start, Clock::time_point end);
Clock::time_point Plus(Clock::time_point start, double seconds);

// numerator / denominator, or 0 when the denominator is 0.
double Ratio(double numerator, double denominator);

// Nearest-rank percentile (p in [0, 1]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double p);
double Median(const std::vector<double>& samples);

// Command line of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Deliberate damage for the gates' self-test: "view" edits a maintained
  // view row behind the engine's back before the recompute gate, "reads"
  // does the same to the serve_stream read verifier's engine, "no-tear"
  // skips crash_recover's WAL tear. Empty for a normal run.
  std::string damage;
  // Where a traced run writes its spans (Chrome trace_event JSON).
  std::string spans_path;
  // Scratch directory for WAL segments and snapshots (serve_stream,
  // crash_recover).
  std::string work_dir;
};

// Everything one run reports. Metrics are name -> (value, unit); the
// caller (run.py) picks the end-to-end or per-layer set named in
// BENCHMARK.json. `correct` is false once any correctness gate failed.
class Sheet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  // Sets the p-th percentile of `samples` only when at least ten samples
  // lie beyond it; a tail the sample cannot support is left unreported.
  void SetTail(const std::string& name, const std::vector<double>& samples,
               double p, const std::string& unit);
  // The value of a metric already set (0 if it was not).
  double Get(const std::string& name) const;
  void Attempt(int64_t n = 1) { attempted_ += n; }
  void Fail(int64_t n = 1) { failed_ += n; }
  void GateFailed(const std::string& why);

  bool correct() const { return correct_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  // One JSON object: {"correct", "attempted", "failed", "metrics"}.
  std::string Json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool correct_ = true;
};

// ---- Spans of the traced run ----
//
// One span per call the benchmark makes into a library layer. Spans are
// kept in memory (one log per thread, no locking) and written out when the
// run ends. `request` ties together the spans of one refresh round,
// submitted op, read or recovery repetition.
struct Span {
  const char* name = "";
  const char* layer = "";
  Clock::time_point start;
  Clock::time_point end;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: a root span
  uint64_t request = 0;
};

class SpanLog {
 public:
  // `lane` distinguishes the threads of one run; span ids are unique
  // across lanes.
  explicit SpanLog(int lane) : lane_(lane) {}

  // Reserves an id so children can name their parent before it ends.
  uint64_t NewId() { return (static_cast<uint64_t>(lane_) << 48) | ++next_; }
  void Record(uint64_t id, const char* name, const char* layer,
              Clock::time_point start, Clock::time_point end,
              uint64_t parent, uint64_t request);
  uint64_t Add(const char* name, const char* layer, Clock::time_point start,
               Clock::time_point end, uint64_t parent, uint64_t request) {
    const uint64_t id = NewId();
    Record(id, name, layer, start, end, parent, request);
    return id;
  }

  int lane() const { return lane_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int lane_;
  uint64_t next_ = 0;
  std::vector<Span> spans_;
};

// Self time per layer, in seconds: each span's duration minus the part of
// it its children cover.
std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<const SpanLog*>& logs);

// Writes every span as Chrome trace_event JSON ("X" events; args carry id,
// parent, request and layer). Returns false on I/O error.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs,
                Clock::time_point origin);

// Reports the per-layer self-time shares and writes the span file.
void FinishTrace(const RunOptions& options,
                 const std::vector<const SpanLog*>& logs,
                 Clock::time_point origin, Sheet* sheet);

// ---- Machine speed ----
//
// A shared machine's speed drifts by tens of percent over seconds to
// minutes as other tenants come and go, and every time figure drifts with
// it. The gated time figures are therefore stated at a reference speed:
// between its operations a run times a fixed unit of work that does not
// touch the library, and scales each operation's time by the reference
// unit time over the median unit time measured around that operation. A
// change to the program moves the operations and not the unit, so it moves
// the scaled figures as it moves the raw ones.
//
// The unit is hash probes, each with a small allocation and copy, into two
// node-based tables: one far larger than the private caches, walked so no
// key recurs within a unit, and one that fits them. That is the access
// pattern of the engine's own tables, so contention for caches and memory
// slows both alike. (Pure arithmetic does not: the machine's drift is in
// its memory system, and a compute-only unit left the spread as it was.)
class SpeedProbe {
 public:
  SpeedProbe();

  // Runs units for about 5% of `op_seconds` (at least one), the time of
  // the operation that just ended.
  void After(double op_seconds);

  // The time `value` (in any unit) of an operation that ran over
  // [start, end], at the reference speed: scaled by the reference unit time
  // over the median unit time within kProbeWindowSeconds of the operation.
  // With no unit there, `value` unscaled.
  double AtReference(double value, Clock::time_point start,
                     Clock::time_point end) const;
  // `value` scaled by the median of every unit the run timed.
  double AtReference(double value) const;

  // Median unit time over the run, in seconds (0 before the first unit).
  double MedianUnitSeconds() const;

 private:
  double Unit();

  std::unordered_map<uint64_t, std::vector<uint64_t>> large_;
  std::unordered_map<uint64_t, std::vector<uint64_t>> small_;
  uint64_t large_state_ = 0;
  uint64_t small_state_ = 0x9e3779b97f4a7c15ULL;
  uint64_t sink_ = 0;
  // (end of the unit, its wall time in seconds), in time order.
  std::vector<std::pair<Clock::time_point, double>> readings_;
};

// The unit's reference time, a round figure near its median on the 4-core
// VM the benchmark was sized on. Scaled figures compare runs of one
// workload: how warm the unit's tables are differs between workloads, so
// they are not that machine's milliseconds either.
inline constexpr double kReferenceUnitSeconds = 600e-6;
// How far either side of an operation its speed reading reaches: the
// machine switches speed within seconds, and over ten trickle_refresh runs
// windows of 0.1, 0.25, 0.5, 1 and 2 s left the scaled median spread 4.7%,
// 6.0%, 6.6%, 7.3% and 8.4% (bulk_refresh: 3.0–5.7%, least at 0.25-0.5 s).
// Units run right after every refresh round and right before every
// recovery, so no window is empty.
inline constexpr double kProbeWindowSeconds = 0.1;

// ---- Process resources ----
double PeakRssMiB();
double CpuSeconds();

// ---- Engine set-up ----
//
// BSMA at the BsmaConfig defaults (users = 2000) with the eight Fig. 9b
// views defined in one ViewManager, definition order as in Fig. 10.
struct Engine {
  std::unique_ptr<idivm::Database> db;
  std::unique_ptr<idivm::ViewManager> vm;
  double generate_seconds = 0;
  double define_seconds = 0;
};

// Builds one engine; a non-null `log` gets the set-up's spans (data
// generation, then one span per DefineView under a root "setup" span).
Engine BuildEngine(SpanLog* log);

// Destroys the engine in dependency order (manager before database).
void ResetEngine(Engine* engine);

// ---- The paper's update stream ----
//
// Seeded user.tweetsnum / user.favornum updates. The benchmark draws every
// update itself; the engine only ever sees the resulting calls.
struct UserUpdate {
  int64_t uid = 0;
  int64_t tweetsnum = 0;
  int64_t favornum = 0;
};

class UpdateStream {
 public:
  UpdateStream(uint64_t seed, int64_t users) : rng_(seed), users_(users) {}
  UserUpdate Next();

 private:
  idivm::Rng rng_;
  int64_t users_;
};

// The arguments of ViewManager::Update / MaintenanceService::SubmitUpdate
// for one update.
idivm::Row UserKey(const UserUpdate& update);
idivm::Row UserValues(const UserUpdate& update);
const std::vector<std::string>& UserSetColumns();

// Derives independent seeds for the streams of one run.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

// ---- Correctness ----

// Order-insensitive fingerprint of a row set (sum of mixed row hashes).
uint64_t RowHash(const idivm::Row& row);
uint64_t Fingerprint(const idivm::Relation& relation);
uint64_t TableFingerprint(const idivm::Table& table);

// Deletes one row of the first non-empty view straight from its table —
// damage the engine cannot see. Returns the view it damaged.
std::string DamageOneView(idivm::Database* db, idivm::ViewManager* vm);

// The recompute gate: every maintained view must equal its recomputation
// from the base tables (ViewManager::RecomputeAllViews). Reports the first
// divergence on the sheet.
bool ViewsMatchRecompute(idivm::Database* db, idivm::ViewManager* vm,
                         Sheet* sheet);

// Deltas of the engine-wide metrics the per-layer sheet reads, taken from
// MetricsRegistry::Global().Snapshot().
struct RegistryReading {
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> histogram_sums;
  int64_t Counter(const std::string& name) const;
  double HistogramSum(const std::string& name) const;
};
RegistryReading ReadRegistry();

// accesses_per_update and its storage.* split: `accesses` charged for
// `updates` updates.
void ReportAccesses(const idivm::AccessStats& accesses, double updates,
                    Sheet* sheet);

// Per-layer robust/exec metrics every workload reports the same way:
// ladder counters from AccessStats, undo batching and executor counters
// from the registry.
void ReportLadder(const idivm::AccessStats& delta, Sheet* sheet);
void ReportUndoAndExec(const RegistryReading& before,
                       const RegistryReading& after, int64_t refreshes,
                       int64_t updates, Sheet* sheet);

// Entry points of the four workloads (one file each).
struct LoopShape {
  int batch = 10;         // updates per TryRefresh
  int count_rounds = 0;   // rounds whose counts are reported (exact)
  int min_rounds = 0;     // rounds made even when --seconds is shorter
};
void RunRefreshLoop(const RunOptions& options, const LoopShape& shape,
                    Clock::time_point process_start, Sheet* sheet);
void RunServeStream(const RunOptions& options,
                    Clock::time_point process_start, Sheet* sheet);
void RunCrashRecover(const RunOptions& options,
                     Clock::time_point process_start, Sheet* sheet);

// Set-up repetitions per run: set-up time is the median of these, each
// timed from its own start (the first from process start).
inline constexpr int kSetupRepetitions = 3;

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
