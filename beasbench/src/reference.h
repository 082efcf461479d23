// Reference answers, computed outside the timed window: a solo
// single-threaded Beas::Answer per pool query (the byte-identity
// reference) and its RC accuracy, scored by src/accuracy against the
// exact engine. A query whose reference breaks an answer invariant
// (eta = 0, say) or has RC accuracy below its eta stays in the pool as
// a faulty query: every serving of it counts as a failed operation.
// Only queries the program or the reference engine cannot answer (a
// parse or answer error, the reference engine's row cap) are left out;
// the counts are reported.

#ifndef BEASBENCH_REFERENCE_H_
#define BEASBENCH_REFERENCE_H_

#include <string>
#include <vector>

#include "beas/beas.h"
#include "storage/database.h"

namespace beasbench {

/// One query of a workload's pool with its reference.
struct PoolQuery {
  std::string sql;
  beas::QueryPtr query;
  std::string ref;      ///< SerializeAnswer of the solo answer
  beas::Table answer;   ///< the solo answer's table
  double eta = 0;
  double rc = 0;        ///< RC accuracy of the solo answer
  /// What is wrong with the solo answer ("" when it is sound); every
  /// serving of a faulty query counts as a failed operation.
  std::string fault;
  bool faulty() const { return !fault.empty(); }
};

/// How a pool's candidates were classified.
struct Admission {
  int sound = 0;
  int invariant = 0;     ///< kept, faulty: an answer invariant breaks
  int rc_below_eta = 0;  ///< kept, faulty: RC accuracy below eta
  int parse = 0;         ///< left out
  int answer_status = 0; ///< left out
  int exact_cap = 0;     ///< left out
  void Add(const Admission& other);
  std::string Summary() const;
};

/// Computes \p sql's reference on \p beas (solo) and \p db (exact
/// engine) and classifies it in \p adm. Returns false when the query is
/// left out.
bool AdmitQuery(const beas::Beas& beas, const beas::Database& db, const std::string& sql,
                double alpha, PoolQuery* out, Admission* adm);

/// AdmitQuery over \p sqls on a few threads; the admitted queries keep
/// their order in \p sqls.
std::vector<PoolQuery> AdmitPool(const beas::Beas& beas, const beas::Database& db,
                                 const std::vector<std::string>& sqls, double alpha,
                                 Admission* adm);

/// Number of faulty queries in \p pool.
size_t CountFaulty(const std::vector<PoolQuery>& pool);

/// Mean RC accuracy of \p pool's queries (0 for an empty pool).
double MeanRc(const std::vector<PoolQuery>& pool);

/// \p pool's SQL texts, in pool order.
std::vector<std::string> PoolSqls(const std::vector<PoolQuery>& pool);

/// RC accuracy of \p approx for \p q on \p db; negative when the exact
/// or relaxed evaluation exceeds the reference engine's row cap.
double ScoreRc(const beas::Database& db, const beas::QueryPtr& q, const beas::Table& approx);

}  // namespace beasbench

#endif  // BEASBENCH_REFERENCE_H_
