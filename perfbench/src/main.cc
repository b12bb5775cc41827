// perfbench: the repository benchmark's C++ runner.
//
//   perfbench --workload=<fleet_ab|socket_loop|control_wire|tax_mix>
//             --seed=N --seconds=S --trace=0|1 [--smoke]
//             [--daemon=PATH] [--run-dir=DIR] [--endpoints=N]
//
// Prints one JSON object as the last line of stdout: correctness, the
// operations attempted and failed, and the metrics (end-to-end when
// --trace=0, per-layer when --trace=1). perfbench/run.py builds this
// binary and is the intended entry point; see perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.h"

namespace {

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.run_dir = ".";
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--workload", &value)) {
      options.workload = value;
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--seconds", &value)) {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (ParseFlag(argv[i], "--trace", &value)) {
      options.trace = value == "1";
    } else if (ParseFlag(argv[i], "--daemon", &value)) {
      options.daemon_path = value;
    } else if (ParseFlag(argv[i], "--endpoints", &value)) {
      options.endpoints = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--run-dir", &value)) {
      options.run_dir = value;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      options.smoke = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  if (!(options.seconds > 0.0)) {
    std::fprintf(stderr, "perfbench: --seconds must be > 0\n");
    return 2;
  }

  perfbench::Report report;
  if (options.workload == "fleet_ab") {
    perfbench::RunFleetAb(options, report);
  } else if (options.workload == "socket_loop") {
    perfbench::RunSocketLoop(options, report);
  } else if (options.workload == "control_wire") {
    perfbench::RunControlWire(options, report);
  } else if (options.workload == "tax_mix") {
    perfbench::RunTaxMix(options, report);
  } else {
    std::fprintf(stderr, "perfbench: unknown --workload=%s\n",
                 options.workload.c_str());
    return 2;
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
