// Entry point of the end-to-end benchmark:
//   beasbench --workload <paper_mix|union_fanout|disk_served> --seed <n>
//             --seconds <s> --trace <0|1> [--workdir <dir>]
//   beasbench --selftest
// Prints progress on stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  beasbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--selftest") return beasbench::RunSelfTest() == 0 ? 0 : 1;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return 2;
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--workdir") {
      opt.workdir = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (!(opt.seconds > 0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  beasbench::RunResult result;
  if (opt.workload == "paper_mix") {
    beasbench::RunPaperMix(opt, &result);
  } else if (opt.workload == "union_fanout") {
    beasbench::RunUnionFanout(opt, &result);
  } else if (opt.workload == "disk_served") {
    beasbench::RunDiskServed(opt, &result);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  if (result.attempted == 0) result.Breach("no operation was attempted");
  beasbench::PrintResult(result);
  return 0;
}
