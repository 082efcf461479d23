// The benchmark's workloads and its self-test. Each Run* builds its
// inputs from the seed, sets the program up (timed as setup_s), computes
// references outside the timed window, then runs the untraced window or
// the traced pass and fills \p out.

#ifndef BEASBENCH_WORKLOADS_H_
#define BEASBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "bench_util.h"

namespace beasbench {

void RunPaperMix(const Options& opt, RunResult* out);
void RunUnionFanout(const Options& opt, RunResult* out);
void RunDiskServed(const Options& opt, RunResult* out);

/// Shows that every correctness check rejects a corrupted answer and
/// that the union_fanout oracle agrees with the exact engine on a small
/// instance. Returns the number of self-tests that did not behave.
int RunSelfTest();

/// disk_served's byte-identity check: "" when \p served (a
/// SerializeAnswer) may be served at \p epoch, else the breach. Answers
/// at even epochs must equal \p ref.
std::string CheckDiskAnswer(const std::string& served, uint64_t epoch, const std::string& ref);

/// Compares the union_fanout oracle with the exact engine on a small
/// instance of \p seed, and checks that the row-set comparison rejects a
/// dropped row. Returns the number of disagreements.
int CheckFanoutOracle(uint64_t seed);

}  // namespace beasbench

#endif  // BEASBENCH_WORKLOADS_H_
