// stackbench: the full-stack benchmark's load generator.
//
//   stackbench --workload port_churn|mac_learn --seed N
//              --seconds S --trace 0|1 --work-dir DIR
//
// Prints the workload's generator parameters, notes, and its metrics as
// `name value unit` lines (end-to-end with --trace 0, per-layer with
// --trace 1), then one JSON line {correct, attempted, failed, metrics}.
// Exit code 0 means the run completed; `correct` says whether every
// correctness check passed.  See README.md for the metric definitions.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

int main(int argc, char** argv) {
  stackbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.work_dir.empty() || !(args.seconds > 0)) {
    std::fprintf(stderr, "need --work-dir and --seconds > 0\n");
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);
  if (args.workload == "port_churn") return stackbench::RunPortChurn(args);
  if (args.workload == "mac_learn") return stackbench::RunMacLearn(args);
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
