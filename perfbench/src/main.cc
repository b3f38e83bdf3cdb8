// The repo benchmark's binary. Usually started through
// perfbench/run.py, which builds it first:
//
//   perfbench --workload power_serial|power_staged|serve_mix
//             --seed N --seconds S --trace 0|1
//             [--golden FILE] [--trace-out FILE]
//
// Prints one metadata JSON line, then the result line
// {"correct", "attempted", "failed", "metrics"} last. Exits 1 when any
// result was not byte-identical to its serial reference (or failed),
// 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "power_serial|power_staged|serve_mix --seed N --seconds S "
               "--trace 0|1 [--golden FILE] [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opt.seconds > 0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      opt.trace = value[0] == '1';
    } else if (flag == "--golden") {
      opt.golden_path = value;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }

  perfbench::Report report;
  perfbench::Tracer tracer(opt.trace);
  perfbench::AddRunMeta(opt, &report);
  if (opt.workload == "power_serial" || opt.workload == "power_staged") {
    perfbench::RunPower(opt, opt.workload == "power_staged", &tracer,
                        &report);
  } else if (opt.workload == "serve_mix") {
    perfbench::RunServeMix(opt, &tracer, &report);
  } else {
    return Usage(("unknown workload " + opt.workload).c_str());
  }
  if (opt.trace) {
    report.Meta("trace_spans", std::to_string(tracer.span_count()));
    if (!opt.trace_out.empty() && !tracer.Write(opt.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.trace_out.c_str());
    }
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
