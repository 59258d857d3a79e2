// Maintenance observability, half 1: the metrics registry. A flat namespace
// of named monotone counters and fixed-bucket histograms covering the
// maintenance path — epochs, degradation-ladder rungs, WAL traffic, APPLY
// volume, per-rule access charges. Counters are always on: every increment
// is one relaxed atomic add, so the hot path pays nanoseconds whether or
// not anybody ever exports a snapshot.
//
// The metric *names* are a frozen, versioned contract (docs/OBSERVABILITY.md
// lists every name of contract v1 with its meaning); benches export them
// via --metrics-out and tests parse the text format, so renaming a metric
// is a breaking change that must bump kMetricsContractVersion.

#ifndef IDIVM_OBS_METRICS_H_
#define IDIVM_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace idivm::obs {

// Version of the metric-name contract emitted in the export header. Bump
// only when a published metric is renamed or its meaning changes.
inline constexpr int kMetricsContractVersion = 1;

// A monotone counter. Increment from any thread; never decremented.
class Counter {
 public:
  // Adds `delta` (relaxed: counters impose no ordering on anything).
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  // Current value.
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

  // Zeroes the counter (registry Reset; tests and benches only).
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// A gauge: a value that moves both ways (queue depth, health state).
// Same relaxed-atomic cost model as Counter.
class Gauge {
 public:
  // Sets the gauge to `value`.
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }

  // Adds `delta` (may be negative).
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  // Current value.
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

  // Zeroes the gauge (registry Reset; tests and benches only).
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// A histogram over non-negative values with fixed power-of-4 bucket
// boundaries 1, 4, 16, … (12 buckets + overflow): coarse, but stable across
// runs and cheap to record (one atomic add, no allocation).
class Histogram {
 public:
  static constexpr int kBuckets = 12;

  // Records one observation. Negative values clamp to zero.
  void Observe(double value);

  // Observations recorded so far.
  int64_t count() const { return count_.load(std::memory_order_relaxed); }

  // Sum of all observed values (as recorded, not bucketed).
  double sum() const;

  // Cumulative count of observations <= the bucket's upper bound; index
  // kBuckets is the overflow (+inf) bucket and equals count().
  int64_t CumulativeCount(int bucket) const;

  // Upper bound of bucket `i` (4^i).
  static double BucketBound(int i);

  // Zeroes the histogram (registry Reset; tests and benches only).
  void Reset();

 private:
  std::atomic<int64_t> buckets_[kBuckets + 1] = {};
  std::atomic<int64_t> count_{0};
  // Sum in micro-units to keep the accumulation atomic without a CAS loop.
  std::atomic<int64_t> sum_micros_{0};
};

// A point-in-time copy of a registry's metrics (see
// MetricsRegistry::Snapshot), each kind sorted by name.
struct MetricsSnapshot {
  struct HistogramData {
    std::string name;
    int64_t count = 0;
    double sum = 0;
    // Cumulative counts, index i <= bound 4^i; the last entry is +inf.
    std::vector<int64_t> cumulative;
  };
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramData> histograms;
};

// The registry: name -> counter/gauge/histogram, created on first use. Lookup
// takes a mutex and a map search, so it stays off the per-epoch path: the
// engine's fixed-name increment sites look a metric up once, on first use,
// and hold the reference in a function-local static, and each Maintainer
// binds its per-rule counters once, next to its compiled program. Held
// references stay valid for the registry's lifetime because a metric is
// never erased — Reset() only zeroes it — and their increments are
// lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The counter / gauge / histogram named `name`, created zeroed on first
  // use.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  // The counter's / gauge's current value, or 0 if it was never created
  // (does not create it — keeps test snapshots free of read side effects).
  int64_t CounterValue(const std::string& name) const;
  int64_t GaugeValue(const std::string& name) const;

  // The stable text export (docs/OBSERVABILITY.md "Metrics text format"):
  //   # idivm-metrics <contract-version>
  //   counter <name> <value>
  //   gauge <name> <value>
  //   histogram <name> count <n> sum <s> le1 <c0> le4 <c1> ... inf <cN>
  // one line per metric, sorted by name — two registries holding the same
  // values export byte-identical text.
  std::string ExportText() const;

  // A point-in-time copy of every registered metric, for exporters that
  // render a different wire format (src/obs/prometheus.h). Values are read
  // under the registry mutex but individually relaxed, like ExportText.
  MetricsSnapshot Snapshot() const;

  // Writes ExportText to `path`. Returns false on I/O error.
  bool WriteText(const std::string& path) const;

  // Zeroes every registered metric (names stay registered). Benches call
  // this after warmup so --metrics-out covers only the measured region.
  void Reset();

  // The process-wide registry every engine-internal increment targets.
  static MetricsRegistry& Global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// Shorthand for MetricsRegistry::Global().counter(name) — the engine's
// internal increment sites all funnel through this.
Counter& GlobalCounter(const std::string& name);

// Shorthand for MetricsRegistry::Global().gauge(name).
Gauge& GlobalGauge(const std::string& name);

// Shorthand for MetricsRegistry::Global().histogram(name).
Histogram& GlobalHistogram(const std::string& name);

// Escapes a value for use inside a metric-name label: backslash-escapes
// '\' and '"' and replaces control characters with '_', so labelled names
// like idivm_rule_accesses_total{view="q7",rule="apply d3 -> v"} stay one
// well-formed line in the text export.
std::string EscapeLabelValue(const std::string& value);

// Builds the labelled per-rule counter name of contract v1:
//   idivm_rule_accesses_total{view="<view>",rule="<rule>"}
std::string RuleAccessCounterName(const std::string& view,
                                  const std::string& rule);

}  // namespace idivm::obs

#endif  // IDIVM_OBS_METRICS_H_
