// The traced run: the workload's seeded statement stream replayed
// in-process on one thread through each layer's public functions, with a
// span around every call. A statement is one root span; its children are
// the layer calls the server would make for it:
//
//   SELECT  erql.lookup (NormalizeStatement + PlanCache::Checkout)
//           [erql.parse (Parser::Parse), erql.translate (Translator)]
//           exec.drain (plan Open + Next to exhaustion)
//           erql.checkin (PlanCache::CheckIn)
//           server.encode / server.decode (Encode/DecodeResultBody)
//   INSERT  [shard.route_insert (ShardRouter::RouteInsert)]
//           mapping.insert_entity (MappedDatabase::InsertEntity)
//             durability.log (the WAL append behind the hook, default
//             sync mode as on the live server)
//           server.encode / server.decode
//   CHECKPOINT  durability.checkpoint (DurableDatabase::Checkpoint)
//
// Separate roots, outside the statement ledger, time the comparisons:
// api.execute (StatementRunner::Execute of the same text), the same plan
// under ExecOptions::Serial() (exec.serial_drain), MappedDatabase::
// GetEntity for point reads, the scatter statements on an unsharded
// runner, and each insert's WAL record appended with fdatasync
// (durability.wal_append, WalWriter::Append under SyncMode::kFsync on a
// log of its own). Chunks of untraced and traced statements alternate so that the
// tracing overhead compares like with like.

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "durability/durable_db.h"
#include "erbench.h"
#include "erql/parser.h"
#include "erql/plan_cache.h"
#include "erql/query_engine.h"
#include "exec/snapshot.h"
#include "server/protocol.h"
#include "shard/router.h"
#include "workload/figure4.h"

namespace erbench {
namespace {

using erbium::Result;
using erbium::Status;
using erbium::Value;
using erbium::api::StatementOutcome;
using erbium::api::StatementRunner;

/// Spans of one thread, kept in memory until the run ends. Disabled, a
/// span costs one branch and no clock read.
class Tracer {
 public:
  struct Span {
    const char* name;
    uint64_t start, end;
    int parent;  // index into spans(), -1 for a root
    uint64_t stmt;
  };

  bool enabled = false;
  uint64_t stmt = 0;

  int Begin(const char* name) {
    if (!enabled) return -1;
    spans_.push_back({name, NowNs(), 0, current_, stmt});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void End(int index) {
    if (index < 0) return;
    spans_[static_cast<size_t>(index)].end = NowNs();
    current_ = spans_[static_cast<size_t>(index)].parent;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

class Scoped {
 public:
  Scoped(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer->Begin(name)) {}
  ~Scoped() { tracer_->End(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Forwards the durability hook to the real DurableDatabase, inside a
/// durability.log span.
class TracedHook : public erbium::DurabilityHook {
 public:
  TracedHook(erbium::durability::DurableDatabase* db, Tracer* tracer)
      : db_(db), tracer_(tracer) {}
  Status LogInsertEntity(const std::string& cls, const Value& v) override {
    Scoped span(tracer_, "durability.log");
    return db_->LogInsertEntity(cls, v);
  }
  Status LogDeleteEntity(const std::string& cls,
                         const erbium::IndexKey& key) override {
    Scoped span(tracer_, "durability.log");
    return db_->LogDeleteEntity(cls, key);
  }
  Status LogUpdateAttribute(const std::string& cls, const erbium::IndexKey& key,
                            const std::string& attr, const Value& v) override {
    Scoped span(tracer_, "durability.log");
    return db_->LogUpdateAttribute(cls, key, attr, v);
  }
  Status LogInsertRelationship(const std::string& rel,
                               const erbium::IndexKey& l,
                               const erbium::IndexKey& r,
                               const Value& attrs) override {
    Scoped span(tracer_, "durability.log");
    return db_->LogInsertRelationship(rel, l, r, attrs);
  }
  Status LogDeleteRelationship(const std::string& rel,
                               const erbium::IndexKey& l,
                               const erbium::IndexKey& r) override {
    Scoped span(tracer_, "durability.log");
    return db_->LogDeleteRelationship(rel, l, r);
  }
  Result<std::string> Checkpoint() override { return db_->Checkpoint(); }

 private:
  erbium::durability::DurableDatabase* db_;
  Tracer* tracer_;
};

/// What one replay drives: the pipeline's database(s) and plan cache, plus
/// runners for the api.execute comparisons.
struct Env {
  Tracer tracer;
  erbium::ExecOptions opts = erbium::ExecOptions::Default();
  erbium::erql::PlanCache cache{1024};
  // Read and insert pipeline: one database, or one per shard.
  std::shared_ptr<erbium::ERSchema> schema;
  std::vector<std::unique_ptr<erbium::MappedDatabase>> shards;
  std::unique_ptr<erbium::shard::ShardRouter> router;
  erbium::shard::ShardPlanContext ctx;
  // The hook outlives the database whose writes it forwards.
  std::unique_ptr<TracedHook> hook;
  std::unique_ptr<erbium::durability::DurableDatabase> durable;
  std::unique_ptr<erbium::durability::WalWriter> fsync_wal;
  std::unique_ptr<StatementRunner> runner;            // api.execute
  std::unique_ptr<StatementRunner> unsharded_runner;  // scatter baseline
  bool checkpointed = false;
  double rows_drained = 0;  // traced exec.drain spans only

  erbium::MappedDatabase* db(int shard = 0) {
    return durable != nullptr ? durable->db()
                              : shards[static_cast<size_t>(shard)].get();
  }
};

Status BuildEnv(const WorkloadSpec& spec, const std::string& work, Env* env) {
  std::filesystem::create_directories(work);
  StatementRunner::Options runner;
  runner.figure4 = true;
  runner.figure4_num_r = spec.preload_r;
  runner.figure4_num_s = spec.preload_s;
  runner.shards = spec.shards;
  erbium::Figure4Config config;
  config.num_r = spec.preload_r;
  config.num_s = spec.preload_s;
  if (spec.mix == Mix::kIngest) {
    erbium::durability::DurableDatabase::Options options;
    options.spec = erbium::MappingSpec::Normalized("m1");
    options.initial_ddl = erbium::Figure4Ddl();
    ERBIUM_ASSIGN_OR_RETURN(env->durable, erbium::durability::DurableDatabase::Open(
                                              work + "/pipeline", options));
    env->hook = std::make_unique<TracedHook>(env->durable.get(), &env->tracer);
    env->durable->db()->set_durability_hook(env->hook.get());
    ERBIUM_ASSIGN_OR_RETURN(
        env->fsync_wal,
        erbium::durability::WalWriter::Open(
            work + "/fsync.erblog", 0, 1,
            erbium::durability::WalWriter::SyncMode::kFsync, nullptr));
    runner.attach_dir = work + "/api";
  } else if (spec.shards == 1) {
    ERBIUM_ASSIGN_OR_RETURN(auto db, erbium::MakeFigure4Database(
                                         erbium::Figure4M1(), config, &env->schema));
    env->shards.push_back(std::move(db));
  } else {
    ERBIUM_ASSIGN_OR_RETURN(erbium::ERSchema schema, erbium::MakeFigure4Schema());
    env->schema = std::make_shared<erbium::ERSchema>(std::move(schema));
    erbium::MappingSpec m1 = erbium::Figure4M1();
    ERBIUM_ASSIGN_OR_RETURN(env->router, erbium::shard::ShardRouter::Create(
                                             *env->schema, m1, spec.shards));
    for (int k = 0; k < spec.shards; ++k) {
      ERBIUM_ASSIGN_OR_RETURN(auto db,
                              erbium::MappedDatabase::Create(env->schema.get(), m1));
      db->set_remote_entity_check(
          [](const std::string&, const erbium::IndexKey&) -> Result<bool> {
            return true;
          });
      env->ctx.dbs.push_back(db.get());
      env->shards.push_back(std::move(db));
    }
    env->ctx.map = &env->router->map();
    env->opts.shards = &env->ctx;
    erbium::Figure4Sinks sinks;
    sinks.insert_entity = [env](const std::string& cls, Value fields) -> Status {
      ERBIUM_ASSIGN_OR_RETURN(int s, env->router->RouteInsert(cls, fields));
      return env->db(s)->InsertEntity(cls, fields);
    };
    sinks.insert_relationship = [env](const std::string& rel, erbium::IndexKey l,
                                      erbium::IndexKey r, Value attrs) -> Status {
      ERBIUM_ASSIGN_OR_RETURN(int s, env->router->RouteRelationship(rel, l, r));
      return env->db(s)->InsertRelationship(rel, l, r, attrs);
    };
    ERBIUM_RETURN_NOT_OK(erbium::PopulateFigure4(sinks, config));
    StatementRunner::Options unsharded = runner;
    unsharded.shards = 1;
    ERBIUM_ASSIGN_OR_RETURN(env->unsharded_runner, StatementRunner::Create(unsharded));
  }
  ERBIUM_ASSIGN_OR_RETURN(env->runner, StatementRunner::Create(runner));
  return Status::OK();
}

void EncodeDecode(Env* env, const StatementOutcome& outcome) {
  std::string body;
  {
    Scoped span(&env->tracer, "server.encode");
    body = erbium::server::EncodeResultBody(outcome);
  }
  Scoped span(&env->tracer, "server.decode");
  (void)erbium::server::DecodeResultBody(body);
}

/// The SELECT pipeline of QueryEngine::Execute, one public call per span.
Result<StatementOutcome> Select(Env* env, const std::string& text) {
  erbium::exec::ReadSnapshot snapshot;
  Tracer* tr = &env->tracer;
  std::string key;
  std::unique_ptr<erbium::erql::CompiledQuery> plan;
  {
    Scoped span(tr, "erql.lookup");
    key = erbium::erql::PlanCache::NormalizeStatement(text);
    plan = env->cache.Checkout(key, 1);
  }
  if (plan == nullptr) {
    erbium::erql::Query query;
    {
      Scoped span(tr, "erql.parse");
      ERBIUM_ASSIGN_OR_RETURN(query, erbium::erql::Parser::Parse(text));
    }
    Scoped span(tr, "erql.translate");
    ERBIUM_ASSIGN_OR_RETURN(auto compiled, erbium::erql::Translator::Translate(
                                               env->db(), query, env->opts));
    plan = std::make_unique<erbium::erql::CompiledQuery>(std::move(compiled));
  }
  StatementOutcome outcome;
  outcome.shape = erbium::api::OutputShape::kTable;
  {
    Scoped span(tr, "exec.drain");
    ERBIUM_ASSIGN_OR_RETURN(outcome.result.rows, erbium::CollectRows(plan->plan.get()));
  }
  if (tr->enabled) env->rows_drained += static_cast<double>(outcome.result.rows.size());
  outcome.result.columns = plan->columns;
  {
    Scoped span(tr, "erql.checkin");
    env->cache.CheckIn(key, 1, std::move(plan));
  }
  EncodeDecode(env, outcome);
  return outcome;
}

Status Insert(Env* env, const Stmt& stmt) {
  int target = 0;
  if (env->router != nullptr) {
    Scoped span(&env->tracer, "shard.route_insert");
    ERBIUM_ASSIGN_OR_RETURN(target, env->router->RouteInsert(stmt.entity, stmt.fields));
  }
  {
    Scoped span(&env->tracer, "mapping.insert_entity");
    ERBIUM_RETURN_NOT_OK(env->db(target)->InsertEntity(stmt.entity, stmt.fields));
  }
  StatementOutcome outcome;
  outcome.message = "ok";
  EncodeDecode(env, outcome);
  return Status::OK();
}

Status Checkpoint(Env* env) {
  StatementOutcome outcome;
  outcome.shape = erbium::api::OutputShape::kLines;
  outcome.result.columns = {"checkpoint"};
  {
    Scoped span(&env->tracer, "durability.checkpoint");
    ERBIUM_ASSIGN_OR_RETURN(std::string summary, env->durable->Checkpoint());
    outcome.result.rows.push_back({Value::String(std::move(summary))});
  }
  env->checkpointed = true;
  EncodeDecode(env, outcome);
  return Status::OK();
}

/// One statement through the pipeline, as a root span.
Status Pipeline(Env* env, const Stmt& stmt) {
  Scoped root(&env->tracer, "statement");
  switch (stmt.kind) {
    case StmtKind::kInsert:
      return Insert(env, stmt);
    case StmtKind::kCheckpoint:
      return Checkpoint(env);
    default:
      return Select(env, stmt.text).status();
  }
}

/// The comparison roots recorded after a traced statement.
Status Compare(Env* env, const Stmt& stmt) {
  Tracer* tr = &env->tracer;
  {
    Scoped span(tr, stmt.kind == StmtKind::kScatter ? "shard.scatter" : "api.execute");
    ERBIUM_RETURN_NOT_OK(env->runner->Execute(stmt.text).status());
  }
  if (env->fsync_wal != nullptr && stmt.kind == StmtKind::kInsert) {
    erbium::durability::WalRecord record;
    record.type = erbium::durability::WalRecord::Type::kInsertEntity;
    record.name = stmt.entity;
    record.value = stmt.fields;
    Scoped span(tr, "durability.wal_append");
    ERBIUM_RETURN_NOT_OK(env->fsync_wal->Append(std::move(record)));
  }
  if (stmt.kind == StmtKind::kScatter) {
    Scoped span(tr, "shard.scatter_unsharded");
    ERBIUM_RETURN_NOT_OK(env->unsharded_runner->Execute(stmt.text).status());
  }
  if (stmt.kind == StmtKind::kPointRead) {
    int target = 0;
    erbium::IndexKey key = {Value::Int64(stmt.key)};
    if (env->router != nullptr) {
      ERBIUM_ASSIGN_OR_RETURN(target, env->router->RouteKey("R", key));
    }
    Scoped span(tr, "mapping.get_entity");
    ERBIUM_RETURN_NOT_OK(env->db(target)->GetEntity("R", key).status());
  }
  if (stmt.kind == StmtKind::kPointRead || stmt.kind == StmtKind::kAnalytic ||
      stmt.kind == StmtKind::kScatter) {
    erbium::ExecOptions serial = erbium::ExecOptions::Serial();
    serial.shards = env->opts.shards;
    ERBIUM_ASSIGN_OR_RETURN(erbium::erql::Query query,
                            erbium::erql::Parser::Parse(stmt.text));
    ERBIUM_ASSIGN_OR_RETURN(auto compiled, erbium::erql::Translator::Translate(
                                               env->db(), query, serial));
    erbium::exec::ReadSnapshot snapshot;
    Scoped span(tr, "exec.serial_drain");
    ERBIUM_RETURN_NOT_OK(erbium::CollectRows(compiled.plan.get()).status());
  }
  return Status::OK();
}

/// Per span name: calls, summed duration and summed self time.
struct Totals {
  double calls = 0, dur_ns = 0, self_ns = 0;
};

}  // namespace

Result<std::map<std::string, Metric>> TracedReplay(const WorkloadSpec& spec,
                                                   uint64_t seed,
                                                   const std::string& work_dir,
                                                   const std::string& spans_path,
                                                   double budget_s) {
  Env env;
  ERBIUM_RETURN_NOT_OK(BuildEnv(spec, work_dir, &env));

  // Untraced statements come from the warm-up stream and traced ones from
  // the measured stream, so inserted keys never collide. Connections'
  // streams are interleaved round-robin, as the live run interleaves them.
  const int conns = spec.connections;
  std::vector<StatementStream> streams[2];
  for (int phase = 0; phase < 2; ++phase) {
    for (int c = 0; c < conns; ++c) streams[phase].emplace_back(spec, seed, phase, c);
  }
  double pipeline_ns[2] = {0, 0};
  uint64_t statements[2] = {0, 0};
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(budget_s * 1e9);
  constexpr int kChunk = 16;
  for (uint64_t n = 0; NowNs() < deadline || statements[1] < 2 * kChunk; ++n) {
    const int traced = static_cast<int>((n / kChunk) % 2);
    env.tracer.enabled = traced == 1;
    std::vector<StatementStream>& phase_streams = streams[traced];
    Stmt stmt = phase_streams[statements[traced] % phase_streams.size()].Next();
    env.tracer.stmt = n;
    uint64_t start = NowNs();
    ERBIUM_RETURN_NOT_OK(Pipeline(&env, stmt));
    pipeline_ns[traced] += static_cast<double>(NowNs() - start);
    ++statements[traced];
    if (traced == 1) ERBIUM_RETURN_NOT_OK(Compare(&env, stmt));
  }
  // Every durable replay measures at least one checkpoint.
  if (env.durable != nullptr && !env.checkpointed) {
    env.tracer.enabled = true;
    Scoped root(&env.tracer, "statement");
    ERBIUM_RETURN_NOT_OK(Checkpoint(&env));
  }
  env.tracer.enabled = false;

  // Self time = duration minus the children's durations (one thread, so
  // children never overlap each other).
  const auto& spans = env.tracer.spans();
  std::vector<double> child_ns(spans.size(), 0);
  for (const Tracer::Span& s : spans) {
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += static_cast<double>(s.end - s.start);
  }
  std::map<std::string, Totals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    Totals& t = totals[spans[i].name];
    double dur = static_cast<double>(spans[i].end - spans[i].start);
    t.calls += 1;
    t.dur_ns += dur;
    t.self_ns += dur - child_ns[i];
  }
  {
    std::ofstream out(spans_path, std::ios::trunc);
    out << "stmt\tname\tstart_ns\tend_ns\tparent\n";
    const uint64_t origin = spans.empty() ? 0 : spans.front().start;
    for (const Tracer::Span& s : spans) {
      out << s.stmt << '\t' << s.name << '\t' << s.start - origin << '\t'
          << s.end - origin << '\t' << s.parent << '\n';
    }
  }

  auto self_us = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_ns / it->second.calls / 1e3;
  };
  auto sum_ns = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_ns;
  };
  auto calls = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.calls;
  };
  std::map<std::string, Metric> m;
  auto us = [&](const std::string& name, double value) { m[name] = {value, "us"}; };
  us("server.encode_result_us", self_us("server.encode"));
  us("server.decode_result_us", self_us("server.decode"));
  us("api.execute_us", self_us("api.execute"));
  us("erql.parse_us", self_us("erql.parse"));
  us("erql.translate_us", self_us("erql.translate"));
  const double lookups = calls("erql.lookup");
  us("erql.plan_cache.lookup_us",
     lookups > 0 ? (sum_ns("erql.lookup") + sum_ns("erql.checkin")) / lookups / 1e3 : 0);
  us("exec.drain_us", self_us("exec.drain"));
  us("exec.serial_drain_us", self_us("exec.serial_drain"));
  m["exec.parallel_speedup"] = {
      sum_ns("exec.drain") > 0 && calls("exec.drain") == calls("exec.serial_drain")
          ? sum_ns("exec.serial_drain") / sum_ns("exec.drain")
          : 0,
      "ratio"};
  m["exec.rows_per_stmt"] = {
      calls("exec.drain") > 0 ? env.rows_drained / calls("exec.drain") : 0, "count"};
  us("mapping.insert_entity_us", self_us("mapping.insert_entity"));
  us("mapping.get_entity_us", self_us("mapping.get_entity"));
  us("durability.wal_append_us", self_us("durability.wal_append"));
  us("durability.checkpoint_us", self_us("durability.checkpoint"));
  us("shard.route_insert_us", self_us("shard.route_insert"));
  us("shard.scatter_us", self_us("shard.scatter"));
  us("shard.scatter_unsharded_us", self_us("shard.scatter_unsharded"));

  // The ledger: per traced statement, each layer's self time; together
  // with the statement span's own self time (benchmark glue) they sum to
  // the statement total.
  const double roots = calls("statement");
  static const std::vector<std::pair<const char*, std::vector<const char*>>> kLayers = {
      {"server", {"server.encode", "server.decode"}},
      {"erql", {"erql.lookup", "erql.parse", "erql.translate", "erql.checkin"}},
      {"exec", {"exec.drain"}},
      {"shard", {"shard.route_insert"}},
      {"mapping", {"mapping.insert_entity"}},
      {"durability", {"durability.log", "durability.checkpoint"}},
  };
  double layer_sum = 0;
  for (const auto& [layer, names] : kLayers) {
    double ns = 0;
    for (const char* name : names) ns += sum_ns(name);
    us("ledger." + std::string(layer) + "_us", roots > 0 ? ns / roots / 1e3 : 0);
    layer_sum += ns;
  }
  us("ledger.unattributed_us", roots > 0 ? sum_ns("statement") / roots / 1e3 : 0);
  us("trace.statement_us", roots > 0 ? totals["statement"].dur_ns / roots / 1e3 : 0);
  us("trace.layer_sum_us", roots > 0 ? layer_sum / roots / 1e3 : 0);
  m["bench.trace_overhead_pct"] = {
      statements[0] > 0 && pipeline_ns[0] > 0
          ? 100 * ((pipeline_ns[1] / static_cast<double>(statements[1])) /
                       (pipeline_ns[0] / static_cast<double>(statements[0])) -
                   1)
          : 0,
      "%"};
  m["trace.statements"] = {static_cast<double>(statements[1]), "count"};
  return m;
}

}  // namespace erbench
