// The serving side of a benchmark run: the closed-loop client loop,
// the timed-window / traced-pass choreography every workload shares,
// and the probes that measure the layers a workload does not otherwise
// cross (the network front-end and index writes).

#ifndef BEASBENCH_SERVING_H_
#define BEASBENCH_SERVING_H_

#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "service/query_service.h"

namespace beasbench {

/// One served operation's outcome, as the client saw it.
struct Served {
  double total_ms = 0;
  double first_rows_ms = 0;
  double eta = 0;
  bool failed = false;  ///< the operation counts as failed
};

/// Serves pool entry \p query from client \p client; \p traced asks the
/// program for span timings, which the callee feeds into \p layers.
using ServeFn = std::function<Served(int client, size_t query, bool traced,
                                     LayerSamples* layers)>;

/// What one closed-loop window measured.
struct Window {
  uint64_t ops = 0;
  uint64_t failed = 0;
  double elapsed_s = 0;
  LatencySamples latency;           ///< untraced operations
  std::vector<double> traced_ms;    ///< total_ms of traced operations
  LayerSamples layers;
};

/// Runs \p clients closed-loop clients for \p seconds over whole rounds
/// of \p round_size operations (each round a seeded permutation of the
/// pool). With \p trace_odd_rounds the operations of every other round
/// are traced, so traced and untraced operations share the same stretch
/// of time and host speed.
void RunWindow(int clients, size_t round_size, uint64_t seed, double seconds,
               bool trace_odd_rounds, const ServeFn& serve, Window* out);

/// The shared choreography: a warm-up, then one measured window, either
/// untraced (end-to-end metrics) or with every other round traced (the
/// traced pass: per-layer metrics from the traced rounds, and the
/// tracing overhead as the traced rounds' p50 over the untraced
/// rounds'). \p on_window_start/\p on_window_end bracket the measured
/// window (the disk workload's writer runs between them). Fills
/// attempted, failed and the latency part of \p e2e, and, in a traced
/// pass, \p layers.
struct PassHooks {
  std::function<void()> on_window_start;
  std::function<void()> on_window_end;
};
void RunPass(const Options& opt, int clients, size_t round_size, const ServeFn& serve,
             const PassHooks& hooks, EndToEnd* e2e, LayerSamples* layers, RunResult* out);

/// Serves one whole round of \p sqls over a loopback NetServer on
/// \p service (one client, traced) and records net.query_ok_us,
/// net.fetch_rtt_us, net.bytes_per_row and the streaming attributes.
/// \p check receives (index, rows, eta, d', accessed, exact, epoch) and
/// returns whether the operation failed.
using NetCheckFn = std::function<bool(size_t, const std::vector<beas::Tuple>&, double, double,
                                      uint64_t, bool, uint64_t)>;
void NetProbe(beas::QueryService* service, const std::vector<std::string>& sqls, double alpha,
              uint32_t page_rows, const NetCheckFn& check, LayerSamples* layers,
              RunResult* out);

/// Inserts and then removes one synthetic row of \p relation through
/// \p service, recording service.write_ms and index.file_growth_mb.
void WriteProbe(beas::QueryService* service, beas::Beas* beas, const std::string& relation,
                const beas::Tuple& row, LayerSamples* layers, RunResult* out);

/// Times Beas::Parse of each of \p sqls (ra.parse_us) and records
/// \p build_s as index.build_s.
void AddParseAndBuild(const beas::Beas& beas, const std::vector<std::string>& sqls,
                      double build_s, LayerSamples* layers);

/// A copy of \p table's first row whose leading key is made unique.
beas::Tuple ProbeRow(const beas::Table& table);

}  // namespace beasbench

#endif  // BEASBENCH_SERVING_H_
