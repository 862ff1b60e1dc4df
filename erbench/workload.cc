// The four workloads and their seeded statement streams.
#include <chrono>
#include <string>
#include <vector>

#include "erbench.h"

namespace erbench {

using erbium::Value;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  // Every workload is a closed loop on a server with the default WAL sync
  // mode (write(2) without fdatasync). With one fdatasync per append,
  // ingest_durable's figures followed the shared disk and spread past any
  // bound between runs; the traced replay still measures that cost
  // (durability.wal_append_us). er_analytic and sharded_mixed run two
  // connections, leaving the other cores to the morsel workers of their
  // parallel statements.
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"point_read", Mix::kPointRead, kPreloadR, kPreloadS, 1, 4},
      {"er_analytic", Mix::kAnalytic, kPreloadR, kPreloadS, 1, 2},
      {"ingest_durable", Mix::kIngest, 0, 0, 1, 4},
      {"sharded_mixed", Mix::kMixed, kPreloadR, kPreloadS, 4, 2},
  };
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

const std::vector<std::string>& AnalyticQueries() {
  static const std::vector<std::string> kQueries = {
      // E2: unnest a multi-valued attribute.
      "SELECT r_id, unnest(r_mv1) AS v FROM R",
      // E5: everything about the R3 leaf of the hierarchy.
      "SELECT r_id, r_a1, r_a2, r_a3, r_a4, r1_a1, r1_a2, r3_a1, r3_a2 "
      "FROM R3",
      // E6: relationship join with a predicate on the far side.
      "SELECT r.r_id, s.s_id, rs_a1 FROM R r JOIN S s ON RS "
      "WHERE s.s_a1 < 5000",
      // E9: R2 joined with the weak entity S1 through R2S1.
      "SELECT r.r_id, s1.s_id, s1.s1_no FROM R2 r JOIN S1 s1 ON R2S1",
      // Section 3's advisee count inside the hierarchy.
      "SELECT p.r_id, count(*) AS advisees FROM R1 p JOIN R3 c ON R1R3",
      // Grouped aggregate.
      "SELECT r_a4, count(*) AS n, avg(r_a1) AS mean FROM R",
  };
  return kQueries;
}

const std::vector<std::string>& ScatterQueries() {
  // Over entities that sharded_mixed never inserts into (it inserts R and
  // S only), so a scatter statement costs the same all run long. Over R
  // or S its cost grew with the run's own inserts, and so with its
  // throughput, and the latency tail followed.
  static const std::vector<std::string> kQueries = {
      // Grouped aggregate: ShardMergeAggregateOp.
      "SELECT r3_a1, count(*) AS n FROM R3",
      // Cross-shard relationship join: ShardGatherOp.
      "SELECT r.r_id, s1.s_id, s1.s1_no FROM R2 r JOIN S1 s1 ON R2S1 "
      "WHERE s1.s1_a1 < 50",
  };
  return kQueries;
}

namespace {

std::string Literal(const Value& value) {
  switch (value.kind()) {
    case erbium::TypeKind::kInt64:
      return std::to_string(value.as_int64());
    case erbium::TypeKind::kFloat64:
      return std::to_string(value.as_float64());
    case erbium::TypeKind::kString:
      return "'" + value.as_string() + "'";
    default:
      return "null";
  }
}

std::string InsertText(const std::string& entity, const Value& fields) {
  std::string text = "INSERT " + entity + " (";
  bool first = true;
  for (const auto& [name, value] : fields.struct_fields()) {
    if (!first) text += ", ";
    first = false;
    text += name + " = " + Literal(value);
  }
  return text + ")";
}

/// ingest_durable's entity cycle; S1 follows the S that owns it.
const char* const kIngestCycle[] = {"R", "R1", "R2", "R3", "R4", "S", "S1"};

}  // namespace

StatementStream::StatementStream(const WorkloadSpec& spec, uint64_t seed,
                                 int phase, int connection)
    : spec_(spec),
      rng_(seed * 1000003 + static_cast<uint64_t>(phase) * 101 +
           static_cast<uint64_t>(connection)),
      seed_(seed),
      phase_(phase),
      connection_(connection) {}

Stmt StatementStream::Next() {
  uint64_t n = count_++;
  Stmt stmt;
  switch (spec_.mix) {
    case Mix::kPointRead:
      break;
    case Mix::kAnalytic: {
      stmt.kind = StmtKind::kAnalytic;
      stmt.index = static_cast<int>((n + static_cast<uint64_t>(connection_)) %
                                    AnalyticQueries().size());
      stmt.text = AnalyticQueries()[stmt.index];
      return stmt;
    }
    case Mix::kIngest: {
      if (connection_ == 0 && inserts_ > 0 &&
          inserts_ % kCheckpointEvery == 0 && !checkpointed_) {
        checkpointed_ = true;
        stmt.kind = StmtKind::kCheckpoint;
        stmt.text = "CHECKPOINT";
        return stmt;
      }
      checkpointed_ = false;
      return Insert(kIngestCycle[inserts_ % 7]);
    }
    case Mix::kMixed: {
      // One statement in kScatterEvery is a scatter-gather one, evenly
      // spaced: each one saturates the cores for a while, and random
      // placement would make the tail depend on how they cluster.
      if (n % kScatterEvery == kScatterEvery / 2) {
        stmt.kind = StmtKind::kScatter;
        stmt.index = static_cast<int>(scatters_++ % ScatterQueries().size());
        stmt.text = ScatterQueries()[stmt.index];
        return stmt;
      }
      if (rng_() % 5 == 0) return Insert(inserts_ % 2 == 0 ? "R" : "S");
      break;
    }
  }
  stmt.kind = StmtKind::kPointRead;
  stmt.key = 1 + static_cast<int64_t>(rng_() % kPreloadR);
  stmt.text = "SELECT r_a1 FROM R WHERE r_id = " + std::to_string(stmt.key);
  return stmt;
}

Stmt StatementStream::Insert(const std::string& entity) {
  // Keys live far above the preload's 1..kPreloadR and are disjoint per
  // (seed, phase, connection): 8 namespaces of 10^7 keys per seed.
  int64_t key = 1'000'000'000'000 +
                static_cast<int64_t>(((seed_ % 100000) * 8 +
                                      static_cast<uint64_t>(phase_) * 4 +
                                      static_cast<uint64_t>(connection_)) *
                                     10'000'000) +
                static_cast<int64_t>(inserts_);
  ++inserts_;
  auto small = [this](int domain) {
    return Value::Int64(static_cast<int64_t>(rng_() % domain));
  };
  Value::StructData f;
  Stmt stmt;
  stmt.kind = StmtKind::kInsert;
  stmt.entity = entity;
  if (entity == "S") {
    f = {{"s_id", Value::Int64(key)},
         {"s_a1", small(10000)},
         {"s_a2", Value::String("s_" + std::to_string(rng_() % 2000))}};
    last_s_id_ = key;
  } else if (entity == "S1") {
    key = last_s_id_;
    f = {{"s_id", Value::Int64(key)},
         {"s1_no", Value::Int64(1)},
         {"s1_a1", small(500)},
         {"s1_a2", Value::String("s1_" + std::to_string(rng_() % 500))}};
  } else {
    f = {{"r_id", Value::Int64(key)},
         {"r_a1", small(10000)},
         // Quarter steps print and parse back exactly.
         {"r_a2", Value::Float64(static_cast<double>(rng_() % 4000) / 4)},
         {"r_a3", Value::String("r_" + std::to_string(rng_() % 5000))},
         {"r_a4", small(100)}};
    if (entity == "R1" || entity == "R3" || entity == "R4") {
      f.emplace_back("r1_a1", small(1000));
      f.emplace_back("r1_a2", Value::String("r1_" + std::to_string(rng_() % 1000)));
    }
    if (entity == "R2") {
      f.emplace_back("r2_a1", small(1000));
      f.emplace_back("r2_a2", Value::String("r2_" + std::to_string(rng_() % 1000)));
    }
    if (entity == "R3") {
      f.emplace_back("r3_a1", small(1000));
      f.emplace_back("r3_a2", Value::Float64(static_cast<double>(rng_() % 40) / 4));
    }
    if (entity == "R4") f.emplace_back("r4_a1", small(1000));
  }
  stmt.key = key;
  stmt.fields = Value::Struct(std::move(f));
  stmt.text = InsertText(entity, stmt.fields);
  return stmt;
}

}  // namespace erbench
