// paper_mix: ad hoc analyst queries. The paper's Section 8 mix over
// TPC-H sf=0.02 (|D| ~ 1.7e5) at alpha = 0.02, in-memory indices, plan
// cache off, two closed-loop sessions on QueryService::Submit/Wait.
//
// The data, and with them the mix's constants, are drawn from the
// seed. The pool has a fixed number of sound and of faulty queries
// (answers with eta = 0, or RC accuracy below eta), so the share of
// failed operations is the same on every seed and moves only when the
// program changes. Two queries are in every pool whatever the seed:
// one that breaks eta <= RC accuracy, and a difference with an
// unsatisfiable left side whose right side costs ~15x a typical query
// and sets the p99.

#include <algorithm>
#include <cstdio>

#include "serving.h"
#include "reference.h"
#include "workload/query_gen.h"
#include "workload/tpch.h"
#include "workloads.h"

namespace beasbench {

namespace {

constexpr double kAlpha = 0.02;
constexpr double kScale = 0.02;
// The mix's structure (relations, predicates, differences, aggregates)
// is fixed; its constants are drawn from the seed's data.
constexpr uint64_t kMixSeed = 1001;
// Pool quotas and the most candidates generated to fill them. 60
// queries are filled within the mix's first ~120 candidates on every
// seed tried; a pool of 120 reached far enough into the mix to draw, on
// some seeds, differences like the pinned one below at full cost, and
// the runs' p99 and peak RSS then depended on the seed.
constexpr size_t kSoundQuota = 24;
constexpr size_t kFaultyQuota = 36;
constexpr int kMaxCandidates = 400;
// The mix's own copy of the pinned difference below (its 70th query on
// every data seed tried), which the pinned, bounded copy stands for.
// Where the quotas reached it (2 of data seeds 101-110), its ~150 ms
// servings were ~36% of the round and moved qps by ~25% with the seed.
constexpr size_t kMixCopyOfPinnedExcept = 69;
constexpr size_t kBatch = 40;
// Two sessions leave the 4-core host slack: with four, client and worker
// threads oversubscribe the cores and run-to-run spreads triple.
constexpr int kSessions = 2;

// On data seed 114 BEAS answers a weighted count of 90225 where the
// exact count is 29228, with eta = 0.5 but RC accuracy ~1.6e-5: the
// kGroupBy case of CombineBounds takes the aggregate column's resolution
// as the coverage bound, which does not bound a weighted count. The
// query is faulty on every data seed tried.
const char kRcBelowEtaQuery[] =
    "select l.l_linestatus, count(l.l_quantity) from lineitem as l where l.l_shipdate >= "
    "447 and l.l_linestatus = 'F' and l.l_quantity >= 13 and l.l_returnflag = 'A' and "
    "l.l_shipdate >= 626 and l.l_shipdate <= 1579 and l.l_shipdate <= 2110 group by "
    "l.l_linestatus";

// The left side asks for two return flags at once and is empty, yet the
// query pays for its right side: ~22k rows of a part x supplier product,
// ~50-55 ms against ~3 ms for a typical query of the mix, ~17% of the
// workload's serving time. The mix itself draws this shape (its 70th
// query) with a right side over all suppliers, ~650 ms and ~650 MB per
// serving; that one would be ~75% of the workload's time, so the pinned
// copy bounds the suppliers. With 60 suppliers (~160-220 ms, ~350 MB
// more peak RSS) the copy was ~40% of the time, and its allocation
// churn followed the host's memory speed: over repeated runs of one
// seed, qps and p99 spread 2-10x more than with 20.
const char kEmptyLeftExceptQuery[] =
    "select s.s_acctbal, p.p_retailprice from part as p, partsupp as p1, lineitem as l, "
    "supplier as s where l.l_partkey = p.p_partkey and l.l_suppkey = s.s_suppkey and "
    "p1.ps_partkey = p.p_partkey and p1.ps_suppkey = s.s_suppkey and s.s_suppkey = 19 and "
    "l.l_returnflag = 'R' and l.l_shipdate <= 1236 and p.p_retailprice <= 1752.85 and "
    "l.l_shipdate <= 1735 and l.l_returnflag = 'A' except select s.s_acctbal, "
    "p.p_retailprice from part as p, supplier as s where p.p_retailprice >= 1647.74 and "
    "s.s_suppkey <= 20";

// The Section 8 recipe: #-sel in [3,7], #-prod in [0,4], 30% aggregates,
// half of the rest with 1-3 differences.
beas::QueryGenConfig PaperQueryMix(uint64_t seed) {
  beas::QueryGenConfig cfg;
  cfg.min_sel = 3;
  cfg.max_sel = 7;
  cfg.min_prod = 0;
  cfg.max_prod = 4;
  cfg.frac_agg = 0.3;
  cfg.frac_diff = 0.5;
  cfg.max_diff = 3;
  cfg.seed = seed;
  return cfg;
}

// The pinned queries, then generated candidates in order (but for the
// mix's copy of the pinned difference) until both quotas are filled. A
// class that runs short is topped up from the other's spares, so a
// change that turns faulty answers sound lowers the failed share instead
// of shrinking the pool.
std::vector<PoolQuery> BuildPool(const beas::Beas& beas, const beas::Dataset& ds,
                                 Admission* adm) {
  std::vector<PoolQuery> pool =
      AdmitPool(beas, ds.db, {kRcBelowEtaQuery, kEmptyLeftExceptQuery}, kAlpha, adm);
  size_t faulty = CountFaulty(pool);
  size_t sound = pool.size() - faulty;
  std::vector<PoolQuery> spare;
  std::vector<std::string> candidates;
  std::vector<beas::GeneratedQuery> mix =
      beas::GenerateQueries(ds, kMaxCandidates, PaperQueryMix(kMixSeed));
  for (size_t i = 0; i < mix.size(); ++i) {
    if (i != kMixCopyOfPinnedExcept) candidates.push_back(mix[i].sql);
  }
  for (size_t at = 0; at < candidates.size() && (sound < kSoundQuota || faulty < kFaultyQuota);
       at += kBatch) {
    std::vector<std::string> batch(
        candidates.begin() + static_cast<std::ptrdiff_t>(at),
        candidates.begin() + static_cast<std::ptrdiff_t>(std::min(at + kBatch, candidates.size())));
    for (PoolQuery& pq : AdmitPool(beas, ds.db, batch, kAlpha, adm)) {
      size_t& taken = pq.faulty() ? faulty : sound;
      if (taken < (pq.faulty() ? kFaultyQuota : kSoundQuota)) {
        ++taken;
        pool.push_back(std::move(pq));
      } else {
        spare.push_back(std::move(pq));
      }
    }
  }
  for (size_t i = 0; i < spare.size() && pool.size() < kSoundQuota + kFaultyQuota; ++i) {
    pool.push_back(std::move(spare[i]));
  }
  return pool;
}

}  // namespace

void RunPaperMix(const Options& opt, RunResult* out) {
  beas::Dataset ds = beas::MakeTpch(kScale, opt.seed);

  EndToEnd e2e;
  auto t0 = Clock::now();
  beas::BeasOptions bo;
  bo.constraints = ds.constraints;
  auto built = beas::Beas::Build(&ds.db, bo);
  double build_s = MsSince(t0) / 1000.0;
  if (!built.ok()) {
    out->Breach("Beas::Build: " + built.status().ToString());
    return;
  }
  beas::Beas& beas = **built;
  beas::ServiceOptions so;
  so.workers = 4;
  beas::QueryService service(&beas, so);
  e2e.setup_s = MsSince(t0) / 1000.0;
  e2e.index_entries = static_cast<double>(beas.store().TotalEntries());
  const size_t db_size = beas.db_size();

  Admission adm;
  std::vector<PoolQuery> pool = BuildPool(beas, ds, &adm);
  std::fprintf(stderr, "paper_mix: |D|=%zu, pool of %zu queries, %zu faulty (candidates: %s)\n",
               db_size, pool.size(), CountFaulty(pool), adm.Summary().c_str());
  if (pool.empty()) {
    out->Breach("paper_mix: empty query pool");
    return;
  }
  e2e.rc_accuracy_mean = MeanRc(pool);

  ServeFn serve = [&](int, size_t qi, bool traced, LayerSamples* layers) {
    const PoolQuery& pq = pool[qi];
    Served s;
    beas::SubmitOptions sub;
    sub.trace = traced;
    auto start = Clock::now();
    auto ticket = service.Submit(pq.query, kAlpha, sub);
    if (!ticket.ok()) {
      s.failed = true;
      return s;
    }
    auto served = service.Wait(*ticket);
    s.total_ms = MsSince(start);
    s.first_rows_ms = s.total_ms;
    if (!served.ok()) {
      s.failed = true;
      return s;
    }
    const beas::BeasAnswer& a = served->answer;
    s.eta = a.eta;
    s.failed = pq.faulty();
    std::string bad = CheckInvariants({a.eta, a.accessed, a.exact}, kAlpha, db_size);
    if (!pq.faulty() && !bad.empty()) out->Breach("paper_mix: " + bad + ": " + pq.sql);
    if (SerializeAnswer(a.table.rows(), a.eta, a.d_prime, a.accessed, a.exact) != pq.ref) {
      out->Breach("paper_mix: served answer differs from the solo answer: " + pq.sql);
    }
    if (traced && served->trace != nullptr) {
      layers->AddTrace(served->trace->spans(), served->trace->attrs(), s.total_ms * 1000);
    }
    return s;
  };

  LayerSamples layers;
  RunPass(opt, kSessions, pool.size(), serve, {}, &e2e, &layers, out);
  if (!opt.trace) {
    EmitEndToEnd(e2e, out);
    return;
  }
  std::vector<std::string> sqls = PoolSqls(pool);
  AddParseAndBuild(beas, sqls, build_s, &layers);
  NetProbe(
      &service, sqls, kAlpha, 0,
      [&](size_t i, const std::vector<beas::Tuple>& rows, double eta, double d_prime,
          uint64_t accessed, bool exact, uint64_t) {
        if (SerializeAnswer(rows, eta, d_prime, accessed, exact) != pool[i].ref) {
          out->Breach("paper_mix: wire answer differs from the solo answer: " + pool[i].sql);
        }
        return pool[i].faulty();
      },
      &layers, out);
  WriteProbe(&service, &beas, "region", ProbeRow(**ds.db.FindTable("region")), &layers,
             out);
  EmitPerLayer(layers.Reduce(), out);
}

}  // namespace beasbench
