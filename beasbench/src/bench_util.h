// Shared pieces of the end-to-end benchmark: command-line options, the
// closed-loop round scheduler, answer serialization and the correctness
// checks every workload applies, per-layer sample collection from the
// program's QueryTrace spans and attributes, the serving-phase RSS
// sampler, and the one-line JSON result.

#ifndef BEASBENCH_BENCH_UTIL_H_
#define BEASBENCH_BENCH_UTIL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "beas/beas.h"
#include "common/trace.h"

namespace beasbench {

using Clock = std::chrono::steady_clock;

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".";  ///< where block files go
};

double MsSince(Clock::time_point t);
double UsSince(Clock::time_point t);

/// Median (mean of the two middle values for even sizes); 0 when empty.
double Median(std::vector<double> v);
/// Nearest-rank percentile with the ceil convention; 0 when empty.
double Percentile(std::vector<double> v, double p);
double Mean(const std::vector<double>& v);

/// Byte-exact rendering of an answer: rows in order (doubles as hex
/// floats), then eta, d', accessed and exact. Two answers are
/// byte-identical iff their serializations are equal.
std::string SerializeRows(const std::vector<beas::Tuple>& rows);
std::string SerializeAnswer(const std::vector<beas::Tuple>& rows, double eta,
                            double d_prime, uint64_t accessed, bool exact);

/// The scalar observables every served answer carries.
struct AnswerFacts {
  double eta = 0;
  uint64_t accessed = 0;
  bool exact = false;
};

/// Checks the invariants every answer must satisfy: accessed <=
/// floor(alpha * db_size), 0 < eta <= 1, and eta == 1 when exact.
/// Returns "" when they hold, else a description of the first breach.
std::string CheckInvariants(const AnswerFacts& a, double alpha, size_t db_size);

/// RC accuracy must be at least eta; a relative slack of 1e-9 absorbs
/// floating-point reassociation in avg/sum aggregates.
bool RcBelowEta(double rc, double eta);

/// Closed-loop scheduler over whole rounds: operation i belongs to round
/// i / round_size. After the deadline the current round is finished and
/// no new one starts, so `claimed` is always a multiple of round_size.
class RoundScheduler {
 public:
  RoundScheduler(size_t round_size, Clock::time_point deadline)
      : round_size_(round_size), deadline_(deadline) {}
  /// Claims the next operation index; false when the run is over.
  bool Claim(uint64_t* index);
  uint64_t claimed() const;

 private:
  const size_t round_size_;
  const Clock::time_point deadline_;
  mutable std::mutex mu_;
  uint64_t next_ = 0;
  uint64_t limit_ = UINT64_MAX;
};

/// Deterministic permutation of [0, n) for round \p round of a run
/// seeded with \p seed.
std::vector<size_t> RoundOrder(size_t n, uint64_t seed, uint64_t round);

/// Samples this process's resident set size every few milliseconds
/// between Start and Stop; PeakMb is the largest sample.
class RssSampler {
 public:
  RssSampler() = default;
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  void Start();
  void Stop();
  double PeakMb() const;

 private:
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> peak_bytes_{0};
  std::thread thread_;
};

/// Returns freed heap to the OS, so the serving-phase RSS does not carry
/// the reference computation's high-water mark.
void ReleaseFreeHeap();

/// Per-query latency samples of the timed window.
struct LatencySamples {
  std::vector<double> total_ms;        ///< submit -> last row
  std::vector<double> first_rows_ms;   ///< submit -> first page in hand
  std::vector<double> eta;             ///< eta of each served answer
};

/// Thread-safe per-layer sample collection: each named metric gets one
/// sample per query (or per call), reduced to a median at the end;
/// ratio metrics are accumulated as numerator/denominator pairs.
class LayerSamples {
 public:
  void Add(const std::string& name, double value);
  void AddRatio(const std::string& name, double num, double den);
  /// Adds one query's trace: span durations, span self times, the span
  /// coverage of \p latency_us, and the layer attributes.
  void AddTrace(const std::vector<beas::TraceSpan>& spans,
                const std::map<std::string, int64_t>& attrs, double latency_us);
  void Merge(const LayerSamples& other);
  /// Medians (ratios: summed numerator over summed denominator).
  std::map<std::string, double> Reduce() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, std::pair<double, double>> ratios_;
};

/// The spans whose self time the traced pass reports (self.<name>_us).
const std::vector<std::string>& TracedSpanNames();

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run produced.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Correctness breaches (each also makes `correct` false).
  void Breach(const std::string& what);
  std::vector<std::string> breaches;
  std::mutex mu;
};

/// The nine end-to-end metrics of an untraced run.
struct EndToEnd {
  double setup_s = 0;
  double qps = 0;
  LatencySamples latency;
  double rc_accuracy_mean = 0;
  double peak_rss_mb = 0;
  double index_entries = 0;
};
void EmitEndToEnd(const EndToEnd& e, RunResult* out);

/// Per-layer metrics of a traced run: every name of PerLayerNames(),
/// missing samples reported as 0 (the layer did no work).
void EmitPerLayer(const std::map<std::string, double>& reduced, RunResult* out);
/// Name -> unit of every per-layer metric, in report order.
const std::vector<std::pair<std::string, std::string>>& PerLayerNames();

/// Prints the result object as the last line of stdout.
void PrintResult(const RunResult& r);

}  // namespace beasbench

#endif  // BEASBENCH_BENCH_UTIL_H_
