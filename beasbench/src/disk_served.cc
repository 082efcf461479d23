// disk_served: a deployed server. TFACC with 25,000 accidents (|D| ~
// 1e5) on the block-file index, built and then reopened cold with a
// 4 MiB block cache (the file is ~43 MB), served by NetServer over
// loopback to two NetClient sessions with 32-row pages, plan cache on.
// The stream repeats 24 query shapes (fewer than the plan cache's 64
// entries), each with four constant sets drawn from the data. A writer
// in the same process applies an insert/remove pair on `accidents`
// through QueryService once per round of the measured window. Answers
// at even epochs (the initial data) must be byte-identical to a solo
// reference built on the same data with the in-memory backend, no plan
// cache and no network. Seven shapes (range filters, group-bys, a
// district join) get eta = 0 on every seed; they stay in the stream and
// each serving of them counts as a failed operation.

#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "common/string_util.h"
#include "net/client.h"
#include "net/server.h"
#include "reference.h"
#include "serving.h"
#include "workload/tfacc.h"
#include "workloads.h"

namespace beasbench {

namespace {

constexpr double kAlpha = 0.01;
constexpr int64_t kAccidents = 25000;
constexpr uint64_t kCacheBytes = 4ull << 20;
constexpr uint32_t kPageRows = 32;
constexpr int kSessions = 2;
constexpr int kVariants = 4;

// Values of one random row of each relation, for a template's constants.
struct Draw {
  const beas::Tuple& acc;
  const beas::Tuple& veh;
  const beas::Tuple& cas;
  const beas::Tuple& stop;
};

int64_t I(const beas::Tuple& t, size_t col) { return t[col].as_int64(); }

std::string F(const beas::Tuple& t, size_t col) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", t[col].as_double());
  return buf;
}

// accidents(acc_id 0, district_id 1, severity 2, year 3, road_class 4,
// speed_limit 5, lat 6, lon 7, num_vehicles 8, num_casualties 9);
// vehicles(acc_id 0, veh_seq 1, veh_type 2, driver_age 3);
// casualties(acc_id 0, cas_seq 1, cas_class 2, severity 3, age 4);
// naptan(stop_id 0, stop_type 1, lat 2, lon 3).
using Template = std::function<std::string(const Draw&)>;

const std::vector<Template>& Templates() {
  using beas::StrCat;
  static const std::vector<Template> kTemplates{
      [](const Draw& d) {
        return StrCat("select a.severity, a.year, a.speed_limit from accidents as a where "
                      "a.acc_id = ", I(d.acc, 0));
      },
      [](const Draw& d) {
        return StrCat("select a.lat, a.lon from accidents as a where a.acc_id = ", I(d.acc, 0),
                      " and a.year >= ", I(d.acc, 3) - 2);
      },
      [](const Draw& d) {
        return StrCat("select v.veh_type, v.driver_age from vehicles as v where v.acc_id = ",
                      I(d.veh, 0));
      },
      [](const Draw& d) {
        return StrCat("select v.driver_age from vehicles as v where v.acc_id = ", I(d.veh, 0),
                      " and v.driver_age >= ", I(d.veh, 3) - 5);
      },
      [](const Draw& d) {
        return StrCat("select c.cas_class, c.age from casualties as c where c.acc_id = ",
                      I(d.cas, 0));
      },
      [](const Draw& d) {
        return StrCat("select c.age from casualties as c where c.acc_id = ", I(d.cas, 0),
                      " and c.severity <= ", I(d.cas, 3));
      },
      [](const Draw& d) {
        return StrCat("select a.year, v.driver_age from accidents as a, vehicles as v where "
                      "a.acc_id = ", I(d.veh, 0), " and v.acc_id = a.acc_id");
      },
      [](const Draw& d) {
        return StrCat("select a.severity, c.age from accidents as a, casualties as c where "
                      "a.acc_id = ", I(d.cas, 0), " and c.acc_id = a.acc_id");
      },
      [](const Draw& d) {
        return StrCat("select d.region, a.year from accidents as a, districts as d where "
                      "a.acc_id = ", I(d.acc, 0), " and d.district_id = a.district_id");
      },
      [](const Draw& d) {
        return StrCat("select v.veh_type, c.age from accidents as a, vehicles as v, "
                      "casualties as c where a.acc_id = ", I(d.cas, 0),
                      " and v.acc_id = a.acc_id and c.acc_id = a.acc_id");
      },
      [](const Draw& d) {
        return StrCat("select n.stop_type, n.lat from naptan as n where n.stop_id = ",
                      I(d.stop, 0));
      },
      [](const Draw& d) {
        return StrCat("select d.region from districts as d where d.district_id = ",
                      I(d.acc, 1));
      },
      [](const Draw& d) {
        return StrCat("select a.severity, v.veh_type from accidents as a, vehicles as v where "
                      "a.acc_id = ", I(d.veh, 0), " and v.acc_id = a.acc_id and v.driver_age >= ",
                      I(d.veh, 3) - 10);
      },
      [](const Draw& d) {
        return StrCat("select v.driver_age from vehicles as v where v.acc_id = ", I(d.cas, 0),
                      " union select c.age from casualties as c where c.acc_id = ", I(d.cas, 0));
      },
      [](const Draw& d) {
        return StrCat("select a.speed_limit, a.year from accidents as a where a.district_id = ",
                      I(d.acc, 1), " and a.severity = ", I(d.acc, 2));
      },
      [](const Draw& d) {
        return StrCat("select a.road_class, count(a.acc_id) from accidents as a where a.year = ",
                      I(d.acc, 3), " and a.speed_limit = ", I(d.acc, 5),
                      " group by a.road_class");
      },
      [](const Draw& d) {
        return StrCat("select a.year, avg(a.num_casualties) from accidents as a where "
                      "a.district_id = ", I(d.acc, 1), " group by a.year");
      },
      [](const Draw& d) {
        return StrCat("select v.driver_age from vehicles as v where v.veh_type = ",
                      I(d.veh, 2), " and v.driver_age <= ", I(d.veh, 3));
      },
      [](const Draw& d) {
        return StrCat("select c.age from casualties as c where c.cas_class = ", I(d.cas, 2),
                      " and c.age >= ", I(d.cas, 4));
      },
      [](const Draw& d) {
        return StrCat("select n.stop_id from naptan as n where n.stop_type = ", I(d.stop, 1),
                      " and n.lat >= ", F(d.stop, 2));
      },
      [](const Draw& d) {
        return StrCat("select a.lat, a.lon from accidents as a where a.speed_limit = ",
                      I(d.acc, 5), " and a.road_class = ", I(d.acc, 4), " and a.year >= ",
                      I(d.acc, 3));
      },
      [](const Draw& d) {
        return StrCat("select v.veh_type, count(v.acc_id) from vehicles as v where "
                      "v.driver_age >= ", I(d.veh, 3), " group by v.veh_type");
      },
      [](const Draw& d) {
        return StrCat("select a.acc_id, a.speed_limit from accidents as a, districts as d where "
                      "d.district_id = ", I(d.acc, 1), " and a.district_id = d.district_id "
                      "and a.year = ", I(d.acc, 3), " and a.severity = ", I(d.acc, 2));
      },
      [](const Draw& d) {
        return StrCat("select a.year from accidents as a where a.acc_id = ", I(d.acc, 0),
                      " except select a.year from accidents as a where a.acc_id = ",
                      I(d.veh, 0));
      },
  };
  return kTemplates;
}

std::vector<std::string> MakeQueries(const beas::Dataset& ds, uint64_t seed) {
  auto table = [&](const char* name) { return *ds.db.FindTable(name); };
  const beas::Table* acc = table("accidents");
  const beas::Table* veh = table("vehicles");
  const beas::Table* cas = table("casualties");
  const beas::Table* stop = table("naptan");
  beas::Rng rng(seed ^ 0x5EEDull);
  auto pick = [&](const beas::Table* t) -> const beas::Tuple& {
    return t->row(static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(t->size()) - 1)));
  };
  std::vector<std::string> sqls;
  for (const Template& tpl : Templates()) {
    for (int v = 0; v < kVariants; ++v) {
      Draw d{pick(acc), pick(veh), pick(cas), pick(stop)};
      sqls.push_back(tpl(d));
    }
  }
  return sqls;
}

// Removes the block file however the run ends.
struct FileGuard {
  std::string path;
  ~FileGuard() { std::remove(path.c_str()); }
};

}  // namespace

std::string CheckDiskAnswer(const std::string& served, uint64_t epoch, const std::string& ref) {
  if (epoch % 2 == 0 && served != ref) {
    return beas::StrCat("answer at even epoch ", epoch, " differs from the reference");
  }
  return "";
}

void RunDiskServed(const Options& opt, RunResult* out) {
  beas::Dataset ds = beas::MakeTfacc(kAccidents, opt.seed);
  FileGuard file{beas::StrCat(opt.workdir, "/disk_served-", getpid(), ".blk")};

  EndToEnd e2e;
  auto t0 = Clock::now();
  beas::BeasOptions bo;
  bo.constraints = ds.constraints;
  bo.plan_cache.enabled = true;
  bo.index.backend = beas::IndexBackendKind::kBlockFile;
  bo.index.path = file.path;
  uint64_t file_bytes = 0;
  {
    auto fresh = beas::Beas::Build(&ds.db, bo);
    if (!fresh.ok()) {
      out->Breach("block-file build: " + fresh.status().ToString());
      return;
    }
    file_bytes = (*fresh)->store().disk_bytes();
  }
  bo.index.open_existing = true;
  bo.index.cache_bytes = kCacheBytes;
  auto built = beas::Beas::Build(&ds.db, bo);
  double build_s = MsSince(t0) / 1000.0;
  if (!built.ok()) {
    out->Breach("cold reopen: " + built.status().ToString());
    return;
  }
  beas::Beas& beas = **built;
  beas::ServiceOptions so;
  so.workers = 4;
  beas::QueryService service(&beas, so);
  beas::NetServer server(&service);
  beas::Status started = server.Start();
  e2e.setup_s = MsSince(t0) / 1000.0;
  if (!started.ok()) {
    out->Breach("server start: " + started.ToString());
    return;
  }
  e2e.index_entries = static_cast<double>(beas.store().TotalEntries());
  const size_t db_size = beas.db_size();

  // The reference: same data, in-memory backend, no plan cache, no net.
  std::vector<std::string> sqls = MakeQueries(ds, opt.seed);
  std::vector<PoolQuery> pool;
  Admission adm;
  {
    beas::Dataset ref_ds = beas::MakeTfacc(kAccidents, opt.seed);
    beas::BeasOptions ro;
    ro.constraints = ref_ds.constraints;
    auto ref = beas::Beas::Build(&ref_ds.db, ro);
    if (!ref.ok()) {
      out->Breach("reference build: " + ref.status().ToString());
      return;
    }
    pool = AdmitPool(**ref, ref_ds.db, sqls, kAlpha, &adm);
  }
  // Faultiness is taken per shape: eta = 0 follows from a shape's plan,
  // not from its constants, so a shape with one faulty variant has all
  // of them counted as failed. The failed share then depends only on
  // which shapes are faulty, never on the constants a seed draws.
  auto shape_of = [&](const PoolQuery& pq) {
    return static_cast<size_t>(std::find(sqls.begin(), sqls.end(), pq.sql) - sqls.begin()) /
           kVariants;
  };
  std::vector<bool> faulty_shape(Templates().size(), false);
  for (const PoolQuery& pq : pool) {
    if (pq.faulty()) faulty_shape[shape_of(pq)] = true;
  }
  for (PoolQuery& pq : pool) {
    if (!pq.faulty() && faulty_shape[shape_of(pq)]) pq.fault = "a variant of its shape is faulty";
  }
  std::fprintf(stderr,
               "disk_served: |D|=%zu, index file %.1f MB, cache %.1f MB, pool of %zu queries, "
               "%zu of %zu shapes faulty (%s)\n",
               db_size, static_cast<double>(file_bytes) / 1048576.0,
               static_cast<double>(kCacheBytes) / 1048576.0, pool.size(),
               static_cast<size_t>(std::count(faulty_shape.begin(), faulty_shape.end(), true)),
               faulty_shape.size(), adm.Summary().c_str());
  if (pool.empty()) {
    out->Breach("disk_served: empty query pool");
    return;
  }
  e2e.rc_accuracy_mean = MeanRc(pool);

  std::vector<beas::NetClient> clients;
  for (int c = 0; c < kSessions; ++c) {
    auto client = beas::NetClient::Connect("127.0.0.1", server.port());
    if (!client.ok()) {
      out->Breach("connect: " + client.status().ToString());
      return;
    }
    clients.push_back(std::move(*client));
  }

  std::function<void()> wake_writer;
  ServeFn serve = [&](int c, size_t qi, bool traced, LayerSamples* layers) {
    const PoolQuery& pq = pool[qi];
    if (qi == 0) wake_writer();
    beas::NetClient& client = clients[static_cast<size_t>(c)];
    Served s;
    beas::NetQueryOptions qo;
    qo.page_rows = kPageRows;
    qo.trace = traced;
    auto start = Clock::now();
    auto cursor = client.Query(pq.sql, kAlpha, qo);
    if (!cursor.ok()) {
      s.failed = true;
      return s;
    }
    if (traced) layers->Add("net.query_ok_us", UsSince(start));
    std::vector<beas::Tuple> rows;
    for (bool first = true;; first = false) {
      auto tf = Clock::now();
      auto page = client.Fetch(cursor->id);
      if (first) s.first_rows_ms = MsSince(start);
      if (!page.ok()) {
        s.failed = true;
        return s;
      }
      if (traced) layers->Add("net.fetch_rtt_us", UsSince(tf));
      for (auto& r : page->rows) rows.push_back(std::move(r));
      if (!page->done) continue;
      s.total_ms = MsSince(start);
      s.eta = page->eta;
      s.failed = pq.faulty();
      // |D| is one larger at odd epochs (between an insert and its remove).
      std::string bad;
      if (!pq.faulty()) {
        bad = CheckInvariants({page->eta, page->accessed, page->exact}, kAlpha,
                              db_size + page->epoch % 2);
      }
      if (bad.empty()) {
        bad = CheckDiskAnswer(
            SerializeAnswer(rows, page->eta, page->d_prime, page->accessed, page->exact),
            page->epoch, pq.ref);
      }
      if (!bad.empty()) out->Breach("disk_served: " + bad + ": " + pq.sql);
      if (traced) {
        std::map<std::string, int64_t> attrs(page->trace_attrs.begin(), page->trace_attrs.end());
        layers->AddTrace(page->trace_spans, attrs, s.total_ms * 1000);
      }
      return s;
    }
  };

  // The writer: an insert/remove pair of a fresh accident once per round
  // of the measured window, started when the round serves the pool's
  // first query. Tying writes to rounds, not to the clock, fixes the
  // share of reads a write stalls whatever the host's speed.
  const beas::Table* accidents = *ds.db.FindTable("accidents");
  LayerSamples write_layers;
  std::mutex write_mu;
  std::condition_variable write_cv;
  bool writing = false;
  int pending = 0;
  std::thread writer;
  int64_t next_key = int64_t{1} << 40;
  uint64_t writes = 0;
  uint64_t bytes_before = 0;
  beas::Rng write_rng(opt.seed ^ 0xD15Cull);
  wake_writer = [&] {
    std::lock_guard<std::mutex> lock(write_mu);
    if (!writing) return;
    ++pending;
    write_cv.notify_one();
  };
  PassHooks hooks;
  hooks.on_window_start = [&] {
    writing = true;
    writer = std::thread([&] {
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(write_mu);
          write_cv.wait(lock, [&] { return pending > 0 || !writing; });
          if (!writing) return;
          --pending;
        }
        beas::Tuple row = accidents->row(static_cast<size_t>(
            write_rng.Uniform(0, static_cast<int64_t>(accidents->size()) - 1)));
        row[0] = beas::Value(next_key++);
        if (writes == 0) bytes_before = beas.store().disk_bytes();
        for (int op = 0; op < 2; ++op) {
          auto tw = Clock::now();
          beas::Status st = op == 0 ? service.Insert("accidents", row)
                                    : service.Remove("accidents", row);
          write_layers.Add("service.write_ms", MsSince(tw));
          if (!st.ok()) out->Breach("disk_served write: " + st.ToString());
          ++writes;
        }
      }
    });
  };
  hooks.on_window_end = [&] {
    {
      std::lock_guard<std::mutex> lock(write_mu);
      writing = false;
    }
    write_cv.notify_one();
    if (writer.joinable()) writer.join();
  };

  LayerSamples layers;
  RunPass(opt, kSessions, pool.size(), serve, hooks, &e2e, &layers, out);
  for (auto& c : clients) c.Close();
  beas::NetStats ns = server.stats();
  server.Stop();
  if (!opt.trace) {
    EmitEndToEnd(e2e, out);
    return;
  }
  layers.Merge(write_layers);
  if (writes > 0) {
    layers.Add("index.file_growth_mb",
               static_cast<double>(beas.store().disk_bytes() - bytes_before) /
                   (static_cast<double>(writes) * 1048576.0));
  }
  if (ns.rows_sent > 0) {
    layers.AddRatio("net.bytes_per_row", static_cast<double>(ns.bytes_sent),
                    static_cast<double>(ns.rows_sent));
  }
  AddParseAndBuild(beas, PoolSqls(pool), build_s, &layers);
  EmitPerLayer(layers.Reduce(), out);
}

}  // namespace beasbench
