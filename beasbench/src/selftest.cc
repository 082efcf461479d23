// Self-tests of the benchmark's correctness checks: each check must
// reject a corrupted copy of a real answer (a dropped row, eta raised
// above the RC accuracy, accessed over budget, an odd-epoch answer
// labelled as even), and the union_fanout oracle must agree with the
// exact engine on a small instance.

#include <cmath>
#include <cstdio>

#include "reference.h"
#include "service/query_service.h"
#include "workload/query_gen.h"
#include "workload/tfacc.h"
#include "workload/tpch.h"
#include "workloads.h"

namespace beasbench {

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::fprintf(stderr, "selftest: %s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

// paper_mix's checks on real answers of a small TPC-H instance.
void PaperMixChecks() {
  const double alpha = 0.02;
  beas::Dataset ds = beas::MakeTpch(0.002, 7);
  beas::BeasOptions bo;
  bo.constraints = ds.constraints;
  auto beas = beas::Beas::Build(&ds.db, bo);
  if (!beas.ok()) {
    Expect(false, "small TPC-H build");
    return;
  }
  std::vector<std::string> sqls;
  beas::QueryGenConfig cfg;
  cfg.seed = 5;
  for (const auto& gq : beas::GenerateQueries(ds, 40, cfg)) sqls.push_back(gq.sql);
  Admission adm;
  std::vector<PoolQuery> pool = AdmitPool(**beas, ds.db, sqls, alpha, &adm);
  const PoolQuery* with_rows = nullptr;
  for (const PoolQuery& pq : pool) {
    if (!pq.faulty() && !pq.answer.empty()) with_rows = &pq;
  }
  if (with_rows == nullptr) {
    Expect(false, "a sound pool query with a non-empty answer");
    return;
  }
  const PoolQuery& pq = *with_rows;
  auto solo = (**beas).Answer(pq.query, alpha);
  Expect(solo.ok() && SerializeAnswer(solo->table.rows(), solo->eta, solo->d_prime,
                                      solo->accessed, solo->exact) == pq.ref,
         "an honest answer is byte-identical to its reference");
  std::vector<beas::Tuple> dropped = solo->table.rows();
  dropped.pop_back();
  Expect(SerializeAnswer(dropped, solo->eta, solo->d_prime, solo->accessed, solo->exact) !=
             pq.ref,
         "byte identity rejects a dropped row");
  Expect(!RcBelowEta(pq.rc, pq.eta), "a sound answer has RC accuracy >= eta");
  Expect(RcBelowEta(pq.rc, std::nextafter(pq.rc, 2.0) + 1e-6),
         "rc >= eta rejects an eta raised above the RC accuracy");
  const size_t d = (**beas).db_size();
  uint64_t budget = static_cast<uint64_t>(std::floor(alpha * static_cast<double>(d)));
  Expect(CheckInvariants({solo->eta, solo->accessed, solo->exact}, alpha, d).empty(),
         "an honest answer passes the invariants");
  Expect(!CheckInvariants({solo->eta, budget + 1, solo->exact}, alpha, d).empty(),
         "the invariants reject accessed over floor(alpha*|D|)");
  Expect(!CheckInvariants({0.0, solo->accessed, false}, alpha, d).empty(),
         "the invariants reject eta = 0");
  Expect(!CheckInvariants({0.5, solo->accessed, true}, alpha, d).empty(),
         "the invariants reject an exact answer with eta < 1");
}

// disk_served's epoch check: an answer served between an insert and
// its remove differs from the reference and must not pass as even.
void DiskEpochChecks() {
  const double alpha = 0.05;
  beas::Dataset ds = beas::MakeTfacc(2000, 3);
  beas::Dataset ref_ds = beas::MakeTfacc(2000, 3);
  beas::BeasOptions bo;
  bo.constraints = ds.constraints;
  auto served = beas::Beas::Build(&ds.db, bo);
  beas::BeasOptions ro;
  ro.constraints = ref_ds.constraints;
  auto ref = beas::Beas::Build(&ref_ds.db, ro);
  if (!served.ok() || !ref.ok()) {
    Expect(false, "small TFACC builds");
    return;
  }
  const std::string sql = "select v.veh_seq, v.driver_age from vehicles as v where v.acc_id = 17";
  PoolQuery pq;
  Admission adm;
  if (!AdmitQuery(**ref, ref_ds.db, sql, alpha, &pq, &adm) || pq.faulty()) {
    Expect(false, "reference answer of the epoch probe query");
    return;
  }
  beas::QueryService service(served->get());
  auto serialize = [&](uint64_t* epoch) {
    auto q = (**served).Parse(sql);
    auto a = service.Answer(*q, alpha);
    if (!a.ok()) return std::string("error");
    *epoch = a->epoch;
    return SerializeAnswer(a->answer.table.rows(), a->answer.eta, a->answer.d_prime,
                           a->answer.accessed, a->answer.exact);
  };
  beas::Tuple row{beas::Value(int64_t{17}), beas::Value(int64_t{99}), beas::Value(int64_t{1}),
                  beas::Value(int64_t{40})};
  uint64_t epoch = 0;
  Expect(service.Insert("vehicles", row).ok(), "insert of the probe row");
  std::string odd = serialize(&epoch);
  Expect(epoch % 2 == 1 && CheckDiskAnswer(odd, epoch, pq.ref).empty(),
         "an odd-epoch answer is not compared with the reference");
  Expect(!CheckDiskAnswer(odd, epoch + 1, pq.ref).empty(),
         "the epoch check rejects an odd-epoch answer labelled as even");
  Expect(service.Remove("vehicles", row).ok(), "remove of the probe row");
  std::string even = serialize(&epoch);
  Expect(epoch % 2 == 0 && CheckDiskAnswer(even, epoch, pq.ref).empty(),
         "an even-epoch answer after the remove equals the reference");
}

}  // namespace

int RunSelfTest() {
  failures = 0;
  PaperMixChecks();
  DiskEpochChecks();
  int oracle = CheckFanoutOracle(3) + CheckFanoutOracle(4);
  Expect(oracle == 0, "the union_fanout oracle agrees with the exact engine (two seeds)");
  std::fprintf(stderr, "selftest: %d failure(s)\n", failures);
  return failures;
}

}  // namespace beasbench
