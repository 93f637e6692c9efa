// End-to-end benchmark of MiniAlphaFold training and serving.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <chrome-trace.json>]
//
// Prints notes ("# ...") and, as the last line, one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// --trace 0 reports the end-to-end metrics from untraced runs; --trace 1
// turns the tracer on and reports the per-layer metrics.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>

#include "bench.h"

int main(int argc, char** argv) {
  pb::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      opt.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      opt.trace = v == "1";
    } else if (k == "--trace-out") {
      opt.trace_out = v;
    } else {
      std::cerr << "unknown option " << k << "\n";
      return 2;
    }
  }
  static const std::map<std::string, void (*)(const pb::Options&, pb::Result&)>
      kWorkloads = {{"step_default", pb::run_step_default},
                    {"step_dap4", pb::run_step_dap4},
                    {"ddp_pipeline", pb::run_ddp_pipeline},
                    {"serve_mix", pb::run_serve_mix}};
  const auto it = kWorkloads.find(opt.workload);
  if (it == kWorkloads.end() || !(opt.seconds > 0)) {
    std::cerr << "usage: perfbench --workload "
                 "<step_default|step_dap4|ddp_pipeline|serve_mix> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>]\n";
    return 2;
  }
  pb::Result result;
  result.note(pb::host_fingerprint());
  result.note("workload " + opt.workload + " seed " +
              std::to_string(opt.seed) + (opt.trace ? " traced" : ""));
  try {
    it->second(opt, result);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  result.print();
  return 0;
}
