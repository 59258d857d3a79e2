// The benchmark binary: runs one workload for one seed and prints
// a human-readable report followed by one JSON line with every metric it
// measured. perfbench/run.py builds it, runs it and selects the metrics
// BENCHMARK.json names.
//
//   perfbench --workload trickle_refresh --seed 1 --seconds 10 --trace 0
//       [--spans PATH] [--work-dir DIR] [--damage view|reads|no-tear]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/harness.h"

namespace {

[[noreturn]] void Usage(const char* problem) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "{trickle_refresh,bulk_refresh,serve_stream,crash_recover} "
               "--seed N --seconds S --trace {0,1} [--spans PATH] "
               "[--work-dir DIR] [--damage {view,reads,no-tear}]\n",
               problem);
  std::exit(2);
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  const Clock::time_point process_start = Clock::now();
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    double number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      if (!ParseNumber(value, &number) || number < 0) {
        Usage("--seed expects a non-negative integer");
      }
      options.seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds") {
      if (!ParseNumber(value, &number) || !(number > 0)) {
        Usage("--seconds expects a positive number");
      }
      options.seconds = number;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace expects 0 or 1");
      }
      options.trace = value[0] == '1';
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--damage") {
      options.damage = value;
      if (options.damage != "view" && options.damage != "reads" &&
          options.damage != "no-tear") {
        Usage("--damage expects view, reads or no-tear");
      }
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }

  Sheet sheet;
  if (options.workload == "trickle_refresh") {
    // 1000 refreshes put ten samples beyond the refresh p99.
    RunRefreshLoop(options, {.batch = 10, .count_rounds = 200,
                             .min_rounds = 1000},
                   process_start, &sheet);
  } else if (options.workload == "bulk_refresh") {
    // Counts over 20 rounds: over 5, accesses_per_update spread 2% from
    // seed to seed.
    RunRefreshLoop(options, {.batch = 1000, .count_rounds = 20,
                             .min_rounds = 20},
                   process_start, &sheet);
  } else if (options.workload == "serve_stream" ||
             options.workload == "crash_recover") {
    if (options.work_dir.empty()) Usage("--work-dir is required");
    if (options.workload == "serve_stream") {
      RunServeStream(options, process_start, &sheet);
    } else {
      RunCrashRecover(options, process_start, &sheet);
    }
  } else {
    Usage("unknown --workload");
  }
  if (options.trace) {
    sheet.Set("trace.latency_norm_ms", sheet.Get("latency_norm_ms"), "ms");
  }
  sheet.Set("e2e.error_rate",
            sheet.attempted() > 0 ? static_cast<double>(sheet.failed()) /
                                        static_cast<double>(sheet.attempted())
                                  : 0,
            "fraction");
  std::printf("%s\n", sheet.Json().c_str());
  return sheet.correct() ? 0 : 1;
}
