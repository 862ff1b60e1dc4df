// The answer oracle: expected answers computed in-process from the same
// seeded Figure 4 data the server holds. Logical data independence is
// the check for er_analytic — its expected digests must agree under M1
// and M2 before they are used.
#include <functional>
#include <set>
#include <utility>

#include "erbench.h"
#include "erql/query_engine.h"
#include "workload/figure4.h"

namespace erbench {

using erbium::Result;
using erbium::Status;
using erbium::api::StatementOutcome;

size_t Digest(const erbium::erql::QueryResult& result) {
  return std::hash<std::string>{}(result.ToCanonicalString());
}

namespace {

Result<erbium::erql::QueryResult> Query(erbium::MappedDatabase* db,
                                        const std::string& text) {
  return erbium::erql::QueryEngine::Execute(db, text,
                                            erbium::ExecOptions::Serial());
}

Result<int64_t> Count(erbium::MappedDatabase* db, const std::string& from) {
  ERBIUM_ASSIGN_OR_RETURN(auto result,
                          Query(db, "SELECT count(*) AS n FROM " + from));
  return result.rows.at(0).at(0).as_int64();
}

/// The first statement of `kind` in the warm-up stream of connection 0 —
/// the first answer of that kind any run checks.
Stmt FirstOfKind(const WorkloadSpec& spec, uint64_t seed, StmtKind kind) {
  StatementStream stream(spec, seed, /*phase=*/0, /*connection=*/0);
  for (;;) {
    Stmt stmt = stream.Next();
    if (stmt.kind == kind) return stmt;
  }
}

}  // namespace

Result<std::unique_ptr<Oracle>> Oracle::Create(const WorkloadSpec& spec,
                                               uint64_t seed,
                                               bool plant_wrong) {
  std::unique_ptr<Oracle> oracle(new Oracle());
  oracle->plant_wrong_ = plant_wrong;
  if (spec.preload_r == 0) return oracle;

  erbium::Figure4Config config;
  config.num_r = spec.preload_r;
  config.num_s = spec.preload_s;
  ERBIUM_ASSIGN_OR_RETURN(
      oracle->m1_, erbium::MakeFigure4Database(erbium::Figure4M1(), config,
                                               &oracle->schema_m1_));
  erbium::MappedDatabase* db = oracle->m1_.get();
  for (const char* from : {"R", "S", "S1", "S2"}) {
    ERBIUM_ASSIGN_OR_RETURN(int64_t n, Count(db, from));
    oracle->preload_entities_ += n;
  }

  if (spec.mix == Mix::kAnalytic) {
    ERBIUM_ASSIGN_OR_RETURN(
        oracle->alt_, erbium::MakeFigure4Database(erbium::Figure4M2(), config,
                                                  &oracle->schema_alt_));
    for (const std::string& text : AnalyticQueries()) {
      ERBIUM_ASSIGN_OR_RETURN(auto m1, Query(db, text));
      ERBIUM_ASSIGN_OR_RETURN(auto m2, Query(oracle->alt_.get(), text));
      if (Digest(m1) != Digest(m2)) {
        return Status::Internal("M1 and M2 disagree on: " + text);
      }
      oracle->digests_.push_back(Digest(m1));
    }
    if (plant_wrong) {
      oracle->digests_[FirstOfKind(spec, seed, StmtKind::kAnalytic).index] ^= 1;
    }
    return oracle;
  }

  if (spec.mix == Mix::kMixed) {
    // The scatter statements read only entities the load never inserts
    // into, so the preload's answers hold all run long.
    for (const std::string& text : ScatterQueries()) {
      ERBIUM_ASSIGN_OR_RETURN(auto result, Query(db, text));
      oracle->digests_.push_back(Digest(result));
    }
  }
  ERBIUM_ASSIGN_OR_RETURN(auto rows, Query(db, "SELECT r_id, r_a1 FROM R"));
  oracle->r_a1_.assign(static_cast<size_t>(spec.preload_r) + 1, -1);
  for (const erbium::Row& row : rows.rows) {
    oracle->r_a1_.at(static_cast<size_t>(row[0].as_int64())) =
        row[1].as_int64();
  }
  if (plant_wrong) {
    oracle->r_a1_[FirstOfKind(spec, seed, StmtKind::kPointRead).key] += 1;
  }
  return oracle;
}

bool Oracle::Check(const Stmt& stmt, const Status& status,
                   const StatementOutcome& outcome) const {
  if (!status.ok()) return false;
  const auto& rows = outcome.result.rows;
  switch (stmt.kind) {
    case StmtKind::kPointRead:
      return rows.size() == 1 && rows[0].size() == 1 &&
             rows[0][0].kind() == erbium::TypeKind::kInt64 &&
             rows[0][0].as_int64() == r_a1_.at(static_cast<size_t>(stmt.key));
    case StmtKind::kAnalytic:
      return Digest(outcome.result) == digests_.at(stmt.index);
    case StmtKind::kInsert:
      return outcome.message == "ok";
    case StmtKind::kCheckpoint:
      return !rows.empty();
    case StmtKind::kScatter:
      return Digest(outcome.result) == digests_.at(stmt.index);
  }
  return false;
}

Result<std::vector<size_t>> Oracle::ScatterDigests(
    const std::vector<Stmt>& acked) {
  for (const Stmt& stmt : acked) {
    ERBIUM_RETURN_NOT_OK(m1_->InsertEntity(stmt.entity, stmt.fields));
  }
  std::vector<size_t> digests;
  for (const std::string& text : ScatterQueries()) {
    ERBIUM_ASSIGN_OR_RETURN(auto result, Query(m1_.get(), text));
    digests.push_back(Digest(result));
  }
  return digests;
}

const std::vector<std::string>& AckedKeyQueries() {
  static const std::vector<std::string> kQueries = {
      "SELECT r_id FROM R", "SELECT s_id FROM S", "SELECT s_id, s1_no FROM S1"};
  return kQueries;
}

int64_t MissingAckedKeys(const std::vector<Stmt>& acked,
                         const std::vector<StatementOutcome>& reads,
                         bool plant_phantom) {
  // One set per AckedKeyQueries() statement, keyed by the first column.
  std::vector<std::set<int64_t>> present(reads.size());
  for (size_t q = 0; q < reads.size(); ++q) {
    for (const erbium::Row& row : reads[q].result.rows) {
      present[q].insert(row[0].as_int64());
    }
  }
  int64_t missing = plant_phantom ? 1 : 0;
  for (const Stmt& stmt : acked) {
    size_t q = stmt.entity == "S" ? 1 : stmt.entity == "S1" ? 2 : 0;
    if (present.at(q).count(stmt.key) == 0) ++missing;
  }
  return missing;
}

}  // namespace erbench
