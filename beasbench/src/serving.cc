#include "serving.h"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "net/client.h"
#include "net/server.h"

namespace beasbench {

void RunWindow(int clients, size_t round_size, uint64_t seed, double seconds,
               bool trace_odd_rounds, const ServeFn& serve, Window* out) {
  auto start = Clock::now();
  RoundScheduler sched(round_size,
                       start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6)));
  std::vector<LatencySamples> per_client(static_cast<size_t>(clients));
  std::vector<std::vector<double>> traced_ms(static_cast<size_t>(clients));
  std::vector<uint64_t> failed(static_cast<size_t>(clients), 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LatencySamples& lat = per_client[static_cast<size_t>(c)];
      uint64_t index = 0;
      uint64_t cached_round = UINT64_MAX;
      std::vector<size_t> order;
      while (sched.Claim(&index)) {
        uint64_t round = index / round_size;
        if (round != cached_round) {
          order = RoundOrder(round_size, seed, round);
          cached_round = round;
        }
        bool traced = trace_odd_rounds && round % 2 == 1;
        Served s = serve(c, order[index % round_size], traced, &out->layers);
        if (s.failed) ++failed[static_cast<size_t>(c)];
        // An operation the program refused has no latency to report.
        if (s.total_ms <= 0) continue;
        if (traced) {
          traced_ms[static_cast<size_t>(c)].push_back(s.total_ms);
          continue;
        }
        lat.total_ms.push_back(s.total_ms);
        lat.first_rows_ms.push_back(s.first_rows_ms);
        lat.eta.push_back(s.eta);
      }
    });
  }
  for (auto& t : threads) t.join();
  out->elapsed_s = MsSince(start) / 1000.0;
  out->ops = sched.claimed();
  for (size_t c = 0; c < per_client.size(); ++c) {
    const LatencySamples& l = per_client[c];
    auto append = [](std::vector<double>* dst, const std::vector<double>& src) {
      dst->insert(dst->end(), src.begin(), src.end());
    };
    append(&out->latency.total_ms, l.total_ms);
    append(&out->latency.first_rows_ms, l.first_rows_ms);
    append(&out->latency.eta, l.eta);
    append(&out->traced_ms, traced_ms[c]);
    out->failed += failed[c];
  }
}

void RunPass(const Options& opt, int clients, size_t round_size, const ServeFn& serve,
             const PassHooks& hooks, EndToEnd* e2e, LayerSamples* layers, RunResult* out) {
  ReleaseFreeHeap();
  RssSampler rss;
  rss.Start();
  {
    // Warm-up: caches fill and lazy set-up finishes; nothing is counted.
    Window warm;
    RunWindow(clients, round_size, opt.seed ^ 0xA5A5A5A5ull,
              std::clamp(0.15 * opt.seconds, 0.5, 3.0), false, serve, &warm);
  }
  Window w;
  if (hooks.on_window_start) hooks.on_window_start();
  RunWindow(clients, round_size, opt.seed, opt.seconds, opt.trace, serve, &w);
  if (hooks.on_window_end) hooks.on_window_end();
  rss.Stop();
  out->attempted += w.ops;
  out->failed += w.failed;
  if (!opt.trace) {
    e2e->qps = static_cast<double>(w.ops) / w.elapsed_s;
    e2e->latency = std::move(w.latency);
    e2e->peak_rss_mb = rss.PeakMb();
    return;
  }
  double p50_plain = Percentile(w.latency.total_ms, 0.5);
  double p50_traced = Percentile(w.traced_ms, 0.5);
  layers->Merge(w.layers);
  layers->Add("trace.overhead_ratio", p50_plain > 0 ? p50_traced / p50_plain : 0);
  std::fprintf(stderr, "traced pass: p50 of untraced rounds %.3f ms, of traced rounds %.3f ms\n",
               p50_plain, p50_traced);
}

void NetProbe(beas::QueryService* service, const std::vector<std::string>& sqls, double alpha,
              uint32_t page_rows, const NetCheckFn& check, LayerSamples* layers,
              RunResult* out) {
  beas::NetServer server(service);
  beas::Status st = server.Start();
  if (!st.ok()) {
    out->Breach("net probe: server start failed: " + st.ToString());
    return;
  }
  auto client = beas::NetClient::Connect("127.0.0.1", server.port());
  if (!client.ok()) {
    out->Breach("net probe: connect failed: " + client.status().ToString());
    server.Stop();
    return;
  }
  beas::NetQueryOptions qo;
  qo.page_rows = page_rows;
  qo.trace = true;
  for (size_t i = 0; i < sqls.size(); ++i) {
    ++out->attempted;
    auto t0 = Clock::now();
    auto cursor = client->Query(sqls[i], alpha, qo);
    if (!cursor.ok()) {
      ++out->failed;
      continue;
    }
    layers->Add("net.query_ok_us", UsSince(t0));
    std::vector<beas::Tuple> rows;
    bool ok = true;
    for (;;) {
      auto tf = Clock::now();
      auto page = client->Fetch(cursor->id);
      if (!page.ok()) {
        ok = false;
        break;
      }
      layers->Add("net.fetch_rtt_us", UsSince(tf));
      for (auto& r : page->rows) rows.push_back(std::move(r));
      if (page->done) {
        std::map<std::string, int64_t> attrs(page->trace_attrs.begin(), page->trace_attrs.end());
        layers->Add("service.stream_pages", static_cast<double>(attrs["stream_pages"]));
        layers->Add("service.backpressure_us",
                    static_cast<double>(attrs["stream_backpressure_us"]));
        if (check(i, rows, page->eta, page->d_prime, page->accessed, page->exact, page->epoch)) {
          ++out->failed;
        }
        break;
      }
    }
    if (!ok) ++out->failed;
  }
  beas::NetStats ns = server.stats();
  if (ns.rows_sent > 0) {
    layers->AddRatio("net.bytes_per_row", static_cast<double>(ns.bytes_sent),
                     static_cast<double>(ns.rows_sent));
  }
  client->Close();
  server.Stop();
}

void WriteProbe(beas::QueryService* service, beas::Beas* beas, const std::string& relation,
                const beas::Tuple& row, LayerSamples* layers, RunResult* out) {
  uint64_t before = beas->store().disk_bytes();
  for (int k = 0; k < 2; ++k) {
    auto t0 = Clock::now();
    beas::Status st = k == 0 ? service->Insert(relation, row) : service->Remove(relation, row);
    layers->Add("service.write_ms", MsSince(t0));
    if (!st.ok()) out->Breach("write probe on " + relation + ": " + st.ToString());
  }
  uint64_t after = beas->store().disk_bytes();
  layers->Add("index.file_growth_mb",
              static_cast<double>(after - std::min(after, before)) / (2.0 * 1024 * 1024));
}

void AddParseAndBuild(const beas::Beas& beas, const std::vector<std::string>& sqls,
                      double build_s, LayerSamples* layers) {
  for (const std::string& sql : sqls) {
    auto t0 = Clock::now();
    auto parsed = beas.Parse(sql);
    layers->Add("ra.parse_us", UsSince(t0));
  }
  layers->Add("index.build_s", build_s);
}

beas::Tuple ProbeRow(const beas::Table& table) {
  beas::Tuple row = table.row(0);
  if (row[0].type() == beas::DataType::kInt64) {
    row[0] = beas::Value(int64_t{1} << 50);
  } else if (row[0].type() == beas::DataType::kString) {
    row[0] = beas::Value(std::string("probe"));
  }
  return row;
}

}  // namespace beasbench
