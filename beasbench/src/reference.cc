#include "reference.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <sstream>
#include <thread>

#include "accuracy/measures.h"
#include "bench_util.h"

namespace beasbench {

void Admission::Add(const Admission& other) {
  sound += other.sound;
  invariant += other.invariant;
  rc_below_eta += other.rc_below_eta;
  parse += other.parse;
  answer_status += other.answer_status;
  exact_cap += other.exact_cap;
}

std::string Admission::Summary() const {
  std::ostringstream os;
  os << sound << " sound, " << invariant + rc_below_eta << " faulty (" << invariant
     << " eta/accessed invariant, " << rc_below_eta << " rc < eta); left out: " << parse
     << " parse, " << answer_status << " answer status, " << exact_cap << " reference row cap";
  return os.str();
}

namespace {

std::vector<std::string> DistinctRows(const std::vector<beas::Tuple>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const beas::Tuple& row : rows) out.push_back(SerializeRows({row}));
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

double ScoreRc(const beas::Database& db, const beas::QueryPtr& q, const beas::Table& approx) {
  // The accuracy harness's limits: relaxations beyond 64 normalized units
  // count as +inf, and the row cap bounds the exact and relaxed joins.
  beas::RcOptions rc;
  rc.max_relaxation = 64;
  rc.eval.max_intermediate_rows = 400'000;
  beas::Evaluator exact_engine(db, rc.eval);
  size_t materialized = 0;
  auto exact = exact_engine.Eval(q, &materialized);
  if (!exact.ok()) return -1;
  // An answer equal to the exact one, as a set, has relevance and
  // coverage distance 0, so RC accuracy 1; the full measure is
  // quadratic in the answer size and takes seconds on large answers.
  if (DistinctRows(approx.rows()) == DistinctRows(exact->rows())) return 1.0;
  auto report = beas::RcMeasureWithExact(db, q, approx, *exact, rc);
  if (!report.ok()) return -1;
  return report->accuracy;
}

bool AdmitQuery(const beas::Beas& beas, const beas::Database& db, const std::string& sql,
                double alpha, PoolQuery* out, Admission* adm) {
  auto q = beas.Parse(sql);
  if (!q.ok()) {
    ++adm->parse;
    return false;
  }
  auto answer = beas.Answer(*q, alpha);
  if (!answer.ok()) {
    ++adm->answer_status;
    return false;
  }
  double rc = ScoreRc(db, *q, answer->table);
  if (rc < 0) {
    ++adm->exact_cap;
    return false;
  }
  out->fault = CheckInvariants({answer->eta, answer->accessed, answer->exact}, alpha,
                               beas.db_size());
  if (!out->fault.empty()) {
    ++adm->invariant;
  } else if (RcBelowEta(rc, answer->eta)) {
    out->fault = "RC accuracy below eta";
    ++adm->rc_below_eta;
  } else {
    ++adm->sound;
  }
  out->sql = sql;
  out->query = *q;
  out->ref = SerializeAnswer(answer->table.rows(), answer->eta, answer->d_prime,
                             answer->accessed, answer->exact);
  out->answer = std::move(answer->table);
  out->eta = answer->eta;
  out->rc = rc;
  return true;
}

std::vector<PoolQuery> AdmitPool(const beas::Beas& beas, const beas::Database& db,
                                 const std::vector<std::string>& sqls, double alpha,
                                 Admission* adm) {
  std::vector<std::optional<PoolQuery>> slots(sqls.size());
  std::vector<Admission> counts(4);
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < counts.size(); ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = next++; i < sqls.size(); i = next++) {
        PoolQuery pq;
        if (AdmitQuery(beas, db, sqls[i], alpha, &pq, &counts[t])) slots[i] = std::move(pq);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const Admission& c : counts) adm->Add(c);
  std::vector<PoolQuery> pool;
  for (auto& s : slots) {
    if (s) pool.push_back(std::move(*s));
  }
  return pool;
}

size_t CountFaulty(const std::vector<PoolQuery>& pool) {
  return static_cast<size_t>(
      std::count_if(pool.begin(), pool.end(), [](const PoolQuery& pq) { return pq.faulty(); }));
}

double MeanRc(const std::vector<PoolQuery>& pool) {
  double sum = 0;
  for (const PoolQuery& pq : pool) sum += pq.rc;
  return pool.empty() ? 0 : sum / static_cast<double>(pool.size());
}

std::vector<std::string> PoolSqls(const std::vector<PoolQuery>& pool) {
  std::vector<std::string> sqls;
  for (const PoolQuery& pq : pool) sqls.push_back(pq.sql);
  return sqls;
}

}  // namespace beasbench
