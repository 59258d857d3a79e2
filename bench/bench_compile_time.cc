// Contribution (c) — "An efficient algorithm that creates an IVM plan for a
// given view in four passes that are polynomial in the size of the view
// expression". This bench compiles views with a growing number of joins and
// reports view-definition time and ∆-script size: both must grow
// polynomially (roughly linearly here) in the number of operators, not
// exponentially in the schema as naive i-diff schema enumeration would
// (contribution (d): the schema space is exponential, the chosen schemas
// are few).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/compose.h"
#include "src/workload/devices_parts.h"

int main(int argc, char** argv) {
  idivm::bench::ObsFlags obs = idivm::bench::ParseObsOnlyFlags(argc, argv);
  using namespace idivm;

  std::printf("\nContribution (c): ∆-script generation cost vs. view size\n\n");
  std::printf("%-8s %10s %12s %14s %16s\n", "joins", "compile-ms",
              "script-steps", "diff-schemas", "steps/join");

  for (int64_t extra : {0, 2, 4, 8, 12, 16}) {
    Database db;
    DevicesPartsConfig config;
    config.num_parts = 500;  // small data: we measure compilation, not load
    config.num_devices = 500;
    config.extra_joins = extra;
    DevicesPartsWorkload workload(&db, config);

    const auto t0 = std::chrono::steady_clock::now();
    const CompiledView view =
        CompileView("vp", workload.AggViewPlan(), db);
    const auto t1 = std::chrono::steady_clock::now();

    // Distinct binding schemas: a table scanned twice binds each twice.
    std::vector<const DiffSchema*> schemas;
    for (const InputDiffBinding& binding : view.input_bindings) {
      const auto same = [&](const DiffSchema* s) {
        return *s == binding.schema;
      };
      if (std::none_of(schemas.begin(), schemas.end(), same)) {
        schemas.push_back(&binding.schema);
      }
    }
    const int64_t joins = 2 + extra;
    std::printf("%-8lld %10.2f %12zu %14zu %16.1f\n",
                static_cast<long long>(joins),
                std::chrono::duration<double>(t1 - t0).count() * 1000.0,
                view.script.steps.size(), schemas.size(),
                static_cast<double>(view.script.steps.size()) /
                    static_cast<double>(joins));
  }
  std::printf(
      "\nReading: script steps grow at most quadratically in the number of "
      "operators (each operator instantiates rules for every diff arriving "
      "from below) — polynomial as contribution (c) claims, never "
      "exponential; and the generated i-diff schemas stay linear despite "
      "the exponential schema space (contribution d).\n");
  obs.WriteOutputs();
  return 0;
}
