// Shared bench harness: runs one maintenance experiment per engine
// (ID-based idIVM, tuple-based IVM, SDBT variants) on fresh database copies
// and prints paper-style rows. Costs are reported both in the Section 6
// cost-model unit (tuple accesses + index lookups) and wall-clock seconds.

#ifndef IDIVM_BENCH_BENCH_UTIL_H_
#define IDIVM_BENCH_BENCH_UTIL_H_

#include <ftw.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/compose.h"
#include "src/core/maintainer.h"
#include "src/core/modification_log.h"
#include "src/core/view_manager.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sdbt/sdbt.h"
#include "src/tivm/tuple_ivm.h"
#include "src/workload/devices_parts.h"

namespace idivm::bench {

// ---- Strict flag parsing -------------------------------------------------
// The benches feed these values into thread pools and file paths; a typo'd
// "--threads 0" or "--threads fast" must fail loudly (exit 2), not be
// silently clamped to something runnable.

[[noreturn]] inline void FlagError(const char* flag, const char* detail) {
  std::fprintf(stderr, "error: flag %s %s\n", flag, detail);
  std::exit(2);
}

// `argv[*i]` is `flag`; returns its value argument and advances *i.
inline const char* FlagValue(const char* flag, int argc, char** argv,
                             int* i) {
  if (*i + 1 >= argc) FlagError(flag, "requires a value");
  return argv[++*i];
}

// Parses a strictly positive integer (rejects garbage, 0, negatives,
// trailing junk like "4x", and absurd values).
inline int ParsePositiveIntFlag(const char* flag, const char* text) {
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value <= 0 || value > (1 << 24)) {
    std::fprintf(stderr,
                 "error: flag %s expects a positive integer, got \"%s\"\n",
                 flag, text);
    std::exit(2);
  }
  return static_cast<int>(value);
}

// Parses a non-negative integer (0 is allowed: "unlimited" for budgets
// like --max-epoch-ops).
inline int64_t ParseNonNegativeInt64Flag(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < 0) {
    std::fprintf(
        stderr, "error: flag %s expects a non-negative integer, got \"%s\"\n",
        flag, text);
    std::exit(2);
  }
  return static_cast<int64_t>(value);
}

// Parses a probability in [0, 1] (e.g. --inject-fault-rate 0.05).
inline double ParseRateFlag(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE ||
      !(value >= 0.0 && value <= 1.0)) {
    std::fprintf(stderr,
                 "error: flag %s expects a rate in [0, 1], got \"%s\"\n",
                 flag, text);
    std::exit(2);
  }
  return value;
}

// Parses a degradation-ladder policy name (--degrade-policy).
inline DegradePolicy ParseDegradePolicyFlag(const char* flag,
                                            const char* text) {
  const std::optional<DegradePolicy> policy = ParseDegradePolicy(text);
  if (!policy.has_value()) {
    std::fprintf(stderr,
                 "error: flag %s expects one of fail-fast, retry, recompute, "
                 "quarantine; got \"%s\"\n",
                 flag, text);
    std::exit(2);
  }
  return *policy;
}

// ---- Observability flags (docs/OBSERVABILITY.md) -------------------------
// Every bench main() accepts --trace-out PATH and --metrics-out PATH, in
// both "--flag PATH" and "--flag=PATH" spellings. --trace-out installs a
// process-global TraceRecorder so the whole run is captured; the outputs
// are written by WriteOutputs() on every exit path.

// If argv[*i] is `flag` (either spelling), stores its value in *out and
// returns true, advancing *i past a separate value argument.
inline bool MatchStringFlag(const char* flag, int argc, char** argv, int* i,
                            std::string* out) {
  const std::string arg = argv[*i];
  if (arg == flag) {
    *out = FlagValue(flag, argc, argv, i);
    return true;
  }
  const std::string prefix = std::string(flag) + "=";
  if (arg.compare(0, prefix.size(), prefix) == 0) {
    *out = arg.substr(prefix.size());
    if (out->empty()) FlagError(flag, "requires a value");
    return true;
  }
  return false;
}

// ---- Scratch directories -------------------------------------------------

// An RAII mkdtemp directory under /tmp: created in the constructor, removed
// (recursively) in the destructor, so early exits — FlagError, a failed
// smoke check returning 1 — no longer leak bench scratch state. Benches
// that accept an explicit --wal-dir style flag skip constructing one.
class ScratchDir {
 public:
  // `tag` names the bench in the path: /tmp/idivm-<tag>-XXXXXX.
  explicit ScratchDir(const std::string& tag) {
    std::string pattern = "/tmp/idivm-" + tag + "-XXXXXX";
    std::vector<char> buf(pattern.begin(), pattern.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) == nullptr) {
      std::fprintf(stderr, "error: cannot create scratch dir %s\n",
                   pattern.c_str());
      std::exit(1);
    }
    path_ = buf.data();
  }

  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  ~ScratchDir() {
    if (path_.empty()) return;
    // Depth-first so files go before their directory; FTW_PHYS keeps the
    // walk inside the scratch tree even if a test dropped a symlink in it.
    nftw(path_.c_str(), RemoveEntry, 16, FTW_DEPTH | FTW_PHYS);
  }

  const std::string& path() const { return path_; }

 private:
  static int RemoveEntry(const char* path, const struct stat* /*st*/,
                         int /*type*/, struct FTW* /*ftw*/) {
    return std::remove(path);
  }

  std::string path_;
};

class ObsFlags {
 public:
  // Consumes --trace-out / --metrics-out at argv[*i]; returns false for
  // any other flag (caller handles it).
  bool Match(int argc, char** argv, int* i) {
    return MatchStringFlag("--trace-out", argc, argv, i, &trace_out_) ||
           MatchStringFlag("--metrics-out", argc, argv, i, &metrics_out_);
  }

  // Call once after flag parsing, before the measured work: installs the
  // process-global recorder when --trace-out was given.
  void Install() {
    if (trace_out_.empty()) return;
    recorder_ = std::make_unique<obs::TraceRecorder>();
    obs::TraceRecorder::SetCurrentThreadName("main");
    obs::SetGlobalTrace(recorder_.get());
  }

  // Writes the requested outputs; call before every successful exit. Exits
  // with status 1 on I/O failure so CI catches an unwritable path.
  void WriteOutputs() {
    if (recorder_ != nullptr) {
      obs::SetGlobalTrace(nullptr);
      if (!recorder_->WriteChromeTrace(trace_out_)) {
        std::fprintf(stderr, "error: cannot write trace to %s\n",
                     trace_out_.c_str());
        std::exit(1);
      }
      std::fprintf(stderr, "trace: %zu spans -> %s\n", recorder_->size(),
                   trace_out_.c_str());
    }
    if (!metrics_out_.empty()) {
      if (!obs::MetricsRegistry::Global().WriteText(metrics_out_)) {
        std::fprintf(stderr, "error: cannot write metrics to %s\n",
                     metrics_out_.c_str());
        std::exit(1);
      }
      std::fprintf(stderr, "metrics -> %s\n", metrics_out_.c_str());
    }
  }

 private:
  std::string trace_out_;
  std::string metrics_out_;
  std::unique_ptr<obs::TraceRecorder> recorder_;
};

// ---- Shared bench flags --------------------------------------------------
// The flags every bench re-declared by hand: --threads N (∆-script / replay
// workers), optionally --readers N (concurrent snapshot readers), and the
// observability pair. A bench's flag loop delegates to Match() first and
// handles only its own flags; unrecognized flags still fail loudly in the
// bench's own error message.

class BenchFlags {
 public:
  // `with_readers` enables --readers (only the concurrent-read bench has
  // reader threads; elsewhere the flag stays unrecognized).
  // `with_streaming` enables --duration-s / --rate (the streaming bench's
  // pacing flags) — strictly validated, so "--duration-s forever" or
  // "--rate 0" fails loudly instead of pacing a run that never ends.
  explicit BenchFlags(bool with_readers = false, bool with_streaming = false)
      : with_readers_(with_readers), with_streaming_(with_streaming) {}

  // Consumes --threads / --readers / --duration-s / --rate / --trace-out /
  // --metrics-out at argv[*i]; returns false for any other flag.
  bool Match(int argc, char** argv, int* i) {
    if (obs_.Match(argc, argv, i)) return true;
    if (std::strcmp(argv[*i], "--threads") == 0) {
      threads = ParsePositiveIntFlag("--threads",
                                     FlagValue("--threads", argc, argv, i));
      return true;
    }
    if (with_readers_ && std::strcmp(argv[*i], "--readers") == 0) {
      readers = ParsePositiveIntFlag("--readers",
                                     FlagValue("--readers", argc, argv, i));
      return true;
    }
    if (with_streaming_ && std::strcmp(argv[*i], "--duration-s") == 0) {
      duration_s = ParsePositiveIntFlag(
          "--duration-s", FlagValue("--duration-s", argc, argv, i));
      return true;
    }
    if (with_streaming_ && std::strcmp(argv[*i], "--rate") == 0) {
      rate = ParsePositiveIntFlag("--rate",
                                  FlagValue("--rate", argc, argv, i));
      return true;
    }
    return false;
  }

  // The flags Match() accepts, for the bench's "not recognized" message.
  const char* Supported() const {
    if (with_streaming_) {
      return "--threads N, --duration-s N, --rate N, --trace-out PATH, "
             "--metrics-out PATH";
    }
    return with_readers_ ? "--threads N, --readers N, --trace-out PATH, "
                           "--metrics-out PATH"
                         : "--threads N, --trace-out PATH, --metrics-out PATH";
  }

  // Call once after flag parsing (installs the global trace recorder when
  // --trace-out was given); WriteOutputs before every successful exit.
  void Install() { obs_.Install(); }
  void WriteOutputs() { obs_.WriteOutputs(); }

  int threads = 1;
  int readers = 4;
  int duration_s = 5;  // --duration-s (streaming benches)
  int rate = 1000;     // --rate, ops/second (streaming benches)

 private:
  bool with_readers_;
  bool with_streaming_;
  ObsFlags obs_;
};

// Flag loop for benches whose only flags are the observability ones.
// Calls Install() so the caller just keeps the returned object alive and
// calls WriteOutputs() before exiting.
inline ObsFlags ParseObsOnlyFlags(int argc, char** argv) {
  ObsFlags obs;
  for (int i = 1; i < argc; ++i) {
    if (!obs.Match(argc, argv, &i)) {
      FlagError(argv[i],
                "is not recognized (supported: --trace-out PATH, "
                "--metrics-out PATH)");
    }
  }
  obs.Install();
  return obs;
}

struct EngineResult {
  std::string engine;
  MaintainResult result;

  int64_t TotalAccesses() const {
    return result.TotalAccesses().TotalAccesses();
  }
  double TotalSeconds() const { return result.TotalSeconds(); }
  // Cost-model accesses amortized over the ∆-tuples the epoch applied: the
  // per-tuple price of maintenance, comparable across diff sizes the way
  // raw totals are not. 0 when the epoch applied nothing.
  double AccessesPerTuple() const {
    return result.diff_tuples_applied > 0
               ? static_cast<double>(TotalAccesses()) /
                     static_cast<double>(result.diff_tuples_applied)
               : 0.0;
  }
};

// Runs idIVM on a fresh devices/parts database.
inline EngineResult RunIdIvm(const DevicesPartsConfig& config, int64_t d,
                             bool with_selection = true,
                             const CompilerOptions& options = {}) {
  Database db;
  DevicesPartsWorkload workload(&db, config);
  Maintainer m(&db,
               CompileView("vp", workload.AggViewPlan(with_selection), db,
                           options));
  ModificationLogger logger(&db);
  workload.ApplyPriceUpdates(&logger, d);
  db.stats().Reset();
  return {"ID-based IVM", m.Maintain(logger.NetChanges())};
}

inline EngineResult RunTupleIvm(const DevicesPartsConfig& config, int64_t d,
                                bool with_selection = true) {
  Database db;
  DevicesPartsWorkload workload(&db, config);
  TupleIvm tivm(&db, "vp", workload.AggViewPlan(with_selection));
  ModificationLogger logger(&db);
  workload.ApplyPriceUpdates(&logger, d);
  db.stats().Reset();
  return {"Tuple-based IVM", tivm.Maintain(logger.NetChanges())};
}

inline EngineResult RunSdbt(const DevicesPartsConfig& config, int64_t d,
                            SdbtDevicesParts::Mode mode,
                            bool with_selection = true) {
  Database db;
  DevicesPartsWorkload workload(&db, config);
  SdbtDevicesParts sdbt(&db, config, "vp", mode, with_selection);
  ModificationLogger logger(&db);
  workload.ApplyPriceUpdates(&logger, d);
  db.stats().Reset();
  return {mode == SdbtDevicesParts::Mode::kFixed ? "SDBT-fixed"
                                                 : "SDBT-streams",
          sdbt.Maintain(logger.NetChanges())};
}

inline void PrintHeader(const std::string& title,
                        const std::string& param_name) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%s\n", std::string(title.size(), '=').c_str());
  std::printf(
      "%-8s %-16s %12s %12s %12s %12s %9s %10s\n", param_name.c_str(),
      "engine", "diff-comp", "cache-upd", "view-upd", "total-acc", "acc/tup",
      "ms");
}

inline void PrintRow(const std::string& param, const EngineResult& r) {
  std::printf("%-8s %-16s %12lld %12lld %12lld %12lld %9.2f %10.2f\n",
              param.c_str(), r.engine.c_str(),
              static_cast<long long>(
                  r.result.diff_computation.accesses.TotalAccesses()),
              static_cast<long long>(
                  r.result.cache_update.accesses.TotalAccesses()),
              static_cast<long long>(
                  r.result.view_update.accesses.TotalAccesses()),
              static_cast<long long>(r.TotalAccesses()),
              r.AccessesPerTuple(), r.TotalSeconds() * 1000.0);
}

inline void PrintSpeedupLine(const std::string& param, double accesses_ratio,
                             double time_ratio) {
  std::printf("%-8s speedup (tuple/ID): %.2fx by accesses, %.2fx by time\n",
              param.c_str(), accesses_ratio, time_ratio);
}

}  // namespace idivm::bench

#endif  // IDIVM_BENCH_BENCH_UTIL_H_
