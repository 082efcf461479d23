// union_fanout: one session pulls large exact answers (alpha = 1) over
// grouped relations r1..r4(x, y, z, w), whose access constraint
// x -> (y, z, w) has groups of 20,000 rows, plus s(u, v) with u -> v.
// The queries are single-branch scans with numeric predicate cascades,
// 2-4-way unions of such branches, joins and a difference, drained
// page by page through QueryService::SubmitStreaming. D_Q build, the
// cascades and the serial union/Distinct combine are nearly all of the
// time; single-branch scans stream as windows commit, unions
// materialize first. Answers are checked, as row sets, against an
// oracle computed here from the generator's definition.

#include <algorithm>
#include <cstdio>

#include "common/rng.h"
#include "common/string_util.h"
#include "ra/parser.h"
#include "reference.h"
#include "serving.h"
#include "workloads.h"

namespace beasbench {

namespace {

constexpr double kAlpha = 1.0;
constexpr int kRelations = 4;
constexpr int kGroups = 2;
constexpr uint32_t kPageRows = 1024;

struct GenRow {
  int group;
  int64_t y, z, w;
};

// One branch: x = 'g<group>' and z >= z_lo and w <= w_hi over r<rel>.
struct Branch {
  int rel;
  int group;
  int64_t z_lo, w_hi;
};

enum class Shape { kScan, kUnion, kJoin, kDifference };

struct FanoutQuery {
  Shape shape;
  std::vector<Branch> branches;
};

using RowSet = std::vector<std::vector<int64_t>>;

// The generated instance and the oracle computed from its definition.
struct FanoutData {
  int rows_per_group = 0;
  std::vector<std::vector<GenRow>> rels;  // r1..r4
  std::vector<int64_t> s_v;               // s(u = index, v)
  std::vector<FanoutQuery> queries;

  // One round's queries. Constants are fixed, so every seed asks for
  // the same selectivities (36-64% of a group per scan or union branch,
  // 16% per difference branch) and only the rows differ. 24 scans (three
  // constant sets over every relation and group), 4 joins, 13 unions (6
  // of 2, 4 of 3, 3 of 4 branches) and one difference: scans are over
  // half of the round, so the p50 falls among them, and the 4-way unions,
  // the slowest queries, are ~7% of it, so the p99 falls among their
  // upper samples. The difference's branches are narrow because it costs
  // ~3x a 4-way union per row: with 49% branches (~10k rows each) it
  // took 250-520 ms, its servings were the only samples past the p99,
  // and the p99 spread by 0.28 of its median over ten runs.
  static std::vector<FanoutQuery> Round() {
    const int64_t kRanges[3][2] = {{30000, 70000}, {20000, 80000}, {40000, 60000}};
    auto branch = [&](int rel, int group, int range) {
      return Branch{rel, group, kRanges[range][0], kRanges[range][1]};
    };
    std::vector<FanoutQuery> q;
    for (int range = 0; range < 3; ++range) {
      for (int rel = 0; rel < kRelations; ++rel) {
        for (int group = 0; group < kGroups; ++group) {
          q.push_back({Shape::kScan, {branch(rel, group, range)}});
        }
      }
    }
    for (int rel = 0; rel < kRelations; ++rel) {
      q.push_back({Shape::kJoin, {branch(rel, rel % kGroups, 2)}});
    }
    const int kUnionsOfWidth[3] = {6, 4, 3};  // of 2, 3 and 4 branches
    for (int width = 2, at = 0; width <= 4; ++width) {
      for (int k = 0; k < kUnionsOfWidth[width - 2]; ++k, ++at) {
        FanoutQuery u{Shape::kUnion, {}};
        for (int b = 0; b < width; ++b) {
          u.branches.push_back(branch((at + b) % kRelations, (at + b / 2) % kGroups, (at + b) % 3));
        }
        q.push_back(u);
      }
    }
    q.push_back({Shape::kDifference, {{1, 1, 60000, 40000}, {3, 1, 62000, 42000}}});
    return q;
  }

  static FanoutData Make(uint64_t seed, int rows_per_group) {
    FanoutData d;
    d.rows_per_group = rows_per_group;
    beas::Rng rng(seed);
    const int64_t keys = 2 * static_cast<int64_t>(rows_per_group);
    d.rels.resize(kRelations);
    for (auto& rel : d.rels) {
      for (int g = 0; g < kGroups; ++g) {
        for (int r = 0; r < rows_per_group; ++r) {
          rel.push_back({g, rng.Uniform(0, keys - 1), rng.Uniform(0, 99999),
                         rng.Uniform(0, 99999)});
        }
      }
    }
    for (int64_t u = 0; u < keys; ++u) d.s_v.push_back(rng.Uniform(0, 999999));
    d.queries = Round();
    return d;
  }

  beas::Database MakeDatabase() const {
    beas::Database db;
    for (int i = 0; i < kRelations; ++i) {
      beas::RelationSchema schema(beas::StrCat("r", i + 1),
                                  {beas::AttributeDef{"x", beas::DataType::kString, {}},
                                   beas::AttributeDef{"y", beas::DataType::kInt64, {}},
                                   beas::AttributeDef{"z", beas::DataType::kInt64, {}},
                                   beas::AttributeDef{"w", beas::DataType::kInt64, {}}});
      beas::Table t(schema);
      for (const GenRow& r : rels[static_cast<size_t>(i)]) {
        t.AppendUnchecked({beas::Value(beas::StrCat("g", r.group)), beas::Value(r.y),
                           beas::Value(r.z), beas::Value(r.w)});
      }
      (void)db.AddTable(std::move(t));
    }
    beas::Table s(beas::RelationSchema("s", {beas::AttributeDef{"u", beas::DataType::kInt64, {}},
                                             beas::AttributeDef{"v", beas::DataType::kInt64, {}}}));
    for (size_t u = 0; u < s_v.size(); ++u) {
      s.AppendUnchecked({beas::Value(static_cast<int64_t>(u)), beas::Value(s_v[u])});
    }
    (void)db.AddTable(std::move(s));
    return db;
  }

  std::vector<beas::ConstraintSpec> Constraints() const {
    std::vector<beas::ConstraintSpec> c;
    for (int i = 0; i < kRelations; ++i) {
      c.push_back({beas::StrCat("r", i + 1), {"x"}, {"y", "z", "w"},
                   static_cast<uint64_t>(rows_per_group)});
    }
    c.push_back({"s", {"u"}, {"v"}, 1});
    return c;
  }

  static std::string Pred(const Branch& b) {
    return beas::StrCat("x = 'g", b.group, "' and z >= ", b.z_lo, " and w <= ", b.w_hi);
  }

  static std::string Sql(const FanoutQuery& q) {
    const Branch& b = q.branches[0];
    switch (q.shape) {
      case Shape::kScan:
        return beas::StrCat("select y, z from r", b.rel + 1, " where ", Pred(b));
      case Shape::kUnion: {
        std::string sql;
        for (const Branch& u : q.branches) {
          if (!sql.empty()) sql += " union ";
          sql += beas::StrCat("select y from r", u.rel + 1, " where ", Pred(u));
        }
        return sql;
      }
      case Shape::kJoin: {
        std::string r = beas::StrCat("r", b.rel + 1);
        return beas::StrCat("select v from ", r, ", s where ", r, ".x = 'g", b.group, "' and ",
                            r, ".z >= ", b.z_lo, " and ", r, ".w <= ", b.w_hi, " and s.u = ",
                            r, ".y");
      }
      case Shape::kDifference:
        return beas::StrCat("select y from r", b.rel + 1, " where ", Pred(b),
                            " except select y from r", q.branches[1].rel + 1, " where ",
                            Pred(q.branches[1]));
    }
    return "";
  }

  // The answer as a sorted row set, from the generator's definition.
  RowSet Oracle(const FanoutQuery& q) const {
    auto matches = [&](const Branch& b, const GenRow& r) {
      return r.group == b.group && r.z >= b.z_lo && r.w <= b.w_hi;
    };
    RowSet out;
    const Branch& b = q.branches[0];
    const auto& rel = rels[static_cast<size_t>(b.rel)];
    switch (q.shape) {
      case Shape::kScan:
        for (const GenRow& r : rel) {
          if (matches(b, r)) out.push_back({r.y, r.z});
        }
        break;
      case Shape::kUnion:
        for (const Branch& u : q.branches) {
          for (const GenRow& r : rels[static_cast<size_t>(u.rel)]) {
            if (matches(u, r)) out.push_back({r.y});
          }
        }
        break;
      case Shape::kJoin:
        for (const GenRow& r : rel) {
          if (matches(b, r)) out.push_back({s_v[static_cast<size_t>(r.y)]});
        }
        break;
      case Shape::kDifference: {
        RowSet minus;
        for (const GenRow& r : rels[static_cast<size_t>(q.branches[1].rel)]) {
          if (matches(q.branches[1], r)) minus.push_back({r.y});
        }
        std::sort(minus.begin(), minus.end());
        for (const GenRow& r : rel) {
          if (matches(b, r) && !std::binary_search(minus.begin(), minus.end(),
                                                   std::vector<int64_t>{r.y})) {
            out.push_back({r.y});
          }
        }
        break;
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }
};

/// \p rows as a sorted row set; false if a value is not an integer.
bool ToRowSet(const std::vector<beas::Tuple>& rows, RowSet* out) {
  out->clear();
  out->reserve(rows.size());
  for (const beas::Tuple& t : rows) {
    std::vector<int64_t> r;
    for (const beas::Value& v : t) {
      if (v.type() != beas::DataType::kInt64) return false;
      r.push_back(v.as_int64());
    }
    out->push_back(std::move(r));
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
  return true;
}

bool SameRowSet(const std::vector<beas::Tuple>& rows, const RowSet& oracle) {
  RowSet got;
  return ToRowSet(rows, &got) && got == oracle;
}

}  // namespace

int CheckFanoutOracle(uint64_t seed) {
  FanoutData d = FanoutData::Make(seed, 400);
  beas::Database db = d.MakeDatabase();
  beas::Evaluator exact(db);
  int bad = 0;
  for (const FanoutQuery& q : d.queries) {
    auto parsed = beas::ParseSql(db.Schema(), FanoutData::Sql(q));
    if (!parsed.ok()) {
      ++bad;
      continue;
    }
    auto table = exact.Eval(*parsed);
    RowSet oracle = d.Oracle(q);
    if (!table.ok() || !SameRowSet(table->rows(), oracle)) {
      std::fprintf(stderr, "selftest: oracle disagrees with the exact engine: %s\n",
                   FanoutData::Sql(q).c_str());
      ++bad;
      continue;
    }
    // A dropped row must be caught by the same set comparison.
    if (!oracle.empty()) {
      std::vector<beas::Tuple> dropped(table->rows().begin(), table->rows().end());
      dropped.pop_back();
      if (SameRowSet(dropped, oracle)) {
        std::fprintf(stderr, "selftest: union_fanout check accepted a dropped row\n");
        ++bad;
      }
    }
  }
  return bad;
}

void RunUnionFanout(const Options& opt, RunResult* out) {
  FanoutData data = FanoutData::Make(opt.seed, 20000);
  beas::Database db = data.MakeDatabase();

  EndToEnd e2e;
  auto t0 = Clock::now();
  beas::BeasOptions bo;
  bo.constraints = data.Constraints();
  auto built = beas::Beas::Build(&db, bo);
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

  std::vector<std::string> sqls;
  for (const FanoutQuery& fq : data.queries) sqls.push_back(FanoutData::Sql(fq));
  Admission adm;
  std::vector<PoolQuery> pool = AdmitPool(beas, db, sqls, kAlpha, &adm);
  if (pool.size() != sqls.size() || CountFaulty(pool) != 0) {
    out->Breach("union_fanout: a reference answer failed");
  }
  std::vector<RowSet> oracles;
  for (PoolQuery& pq : pool) {
    size_t i = static_cast<size_t>(std::find(sqls.begin(), sqls.end(), pq.sql) - sqls.begin());
    oracles.push_back(data.Oracle(data.queries[i]));
    if (!SameRowSet(pq.answer.rows(), oracles.back())) {
      out->Breach("union_fanout: solo answer differs from the oracle: " + pq.sql);
    }
  }
  std::fprintf(stderr, "union_fanout: |D|=%zu, pool of %zu queries (%s)\n", db_size,
               pool.size(), adm.Summary().c_str());
  if (pool.empty()) return;
  e2e.rc_accuracy_mean = MeanRc(pool);

  auto check = [&](size_t qi, const std::vector<beas::Tuple>& rows, double eta,
                   uint64_t accessed, bool exact) {
    std::string bad = CheckInvariants({eta, accessed, exact}, kAlpha, db_size);
    if (!bad.empty()) out->Breach("union_fanout: " + bad + ": " + pool[qi].sql);
    if (!SameRowSet(rows, oracles[qi])) {
      out->Breach("union_fanout: answer differs from the oracle: " + pool[qi].sql);
    }
  };

  ServeFn serve = [&](int, size_t qi, bool traced, LayerSamples* layers) {
    Served s;
    beas::StreamOptions so;
    so.page_rows = kPageRows;
    so.submit.trace = traced;
    auto start = Clock::now();
    auto ticket = service.SubmitStreaming(pool[qi].query, kAlpha, so);
    if (!ticket.ok()) {
      s.failed = true;
      return s;
    }
    std::vector<beas::Tuple> rows;
    for (bool first = true;; first = false) {
      auto page = ticket->NextPage();
      if (first) s.first_rows_ms = MsSince(start);
      if (!page.ok()) {
        s.failed = true;
        return s;
      }
      for (auto& r : page->rows) rows.push_back(std::move(r));
      if (!page->last) continue;
      s.total_ms = MsSince(start);
      const beas::BeasAnswer& a = page->final.answer;
      s.eta = a.eta;
      check(qi, rows, a.eta, a.accessed, a.exact);
      if (traced && page->final.trace != nullptr) {
        layers->AddTrace(page->final.trace->spans(), page->final.trace->attrs(),
                         s.total_ms * 1000);
      }
      return s;
    }
  };

  LayerSamples layers;
  RunPass(opt, 1, pool.size(), serve, {}, &e2e, &layers, out);
  if (!opt.trace) {
    EmitEndToEnd(e2e, out);
    return;
  }
  sqls = PoolSqls(pool);
  AddParseAndBuild(beas, sqls, build_s, &layers);
  NetProbe(
      &service, sqls, kAlpha, kPageRows,
      [&](size_t i, const std::vector<beas::Tuple>& rows, double eta, double, uint64_t accessed,
          bool exact, uint64_t) {
        check(i, rows, eta, accessed, exact);
        return false;
      },
      &layers, out);
  WriteProbe(&service, &beas, "r1", ProbeRow(**db.FindTable("r1")), &layers, out);
  EmitPerLayer(layers.Reduce(), out);
}

}  // namespace beasbench
