#include "api/statement_runner.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <numeric>
#include <utility>
#include <vector>

#include "common/lexer.h"
#include "er/ddl_parser.h"
#include "mapping/advisor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/workload_profile.h"
#include "erql/parser.h"
#include "evolution/evolution.h"
#include "workload/figure4.h"

namespace erbium {
namespace api {

namespace {

/// Leading keyword of a statement, lowercased ("" when none). Skips any
/// leading whitespace — including newlines and vertical whitespace — so
/// "  \n select" classifies exactly like "SELECT".
std::string LeadingKeyword(const std::string& statement) {
  size_t begin = 0;
  while (begin < statement.size() &&
         std::isspace(static_cast<unsigned char>(statement[begin]))) {
    ++begin;
  }
  std::string word;
  for (size_t i = begin; i < statement.size(); ++i) {
    char c = statement[i];
    if (!std::isalpha(static_cast<unsigned char>(c))) break;
    word.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return word;
}

/// Second keyword of a statement, lowercased ("" when none) — used to
/// spot SHOW SHARDS, which the runner answers itself (the query engine
/// has no notion of the shard set).
std::string SecondKeyword(const std::string& statement) {
  size_t i = 0;
  auto skip_space = [&] {
    while (i < statement.size() &&
           std::isspace(static_cast<unsigned char>(statement[i]))) {
      ++i;
    }
  };
  auto skip_word = [&] {
    while (i < statement.size() &&
           std::isalpha(static_cast<unsigned char>(statement[i]))) {
      ++i;
    }
  };
  skip_space();
  skip_word();
  skip_space();
  std::string word;
  for (; i < statement.size(); ++i) {
    char c = statement[i];
    if (!std::isalpha(static_cast<unsigned char>(c))) break;
    word.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return word;
}

obs::Counter ShardCounter(const std::string& name) {
  return obs::MetricsRegistry::Global().counter(name);
}

std::string ShardInsertCounterName(int shard) {
  return "shard." + std::to_string(shard) + ".inserts";
}

std::string ShardManifestPath(const std::string& dir) {
  return dir + "/SHARDS";
}

std::string ShardDirPath(const std::string& dir, int shard) {
  return dir + "/shard-" + std::to_string(shard);
}

}  // namespace

StatementRunner::StatementClass StatementRunner::Classify(
    const std::string& statement) {
  std::string word = LeadingKeyword(statement);
  if (word == "select" || word == "explain" || word == "show" ||
      word == "trace" || word == "advise" || word == "export") {
    // ADVISE and EXPORT WORKLOAD only *read* the database (candidate
    // databases are populated by scanning the live one) and the workload
    // profile is internally synchronized, so both run shared.
    return StatementClass::kRead;
  }
  if (word == "insert" || word == "load" || word == "checkpoint") {
    // INSERT serializes per lock domain inside MappedDatabase — the
    // statement lock is only held shared so structural statements can
    // drain it. LOAD WORKLOAD replaces the internally synchronized
    // profile. CHECKPOINT spends almost all its time in the shared
    // snapshot-write phase (Execute routes it through its own
    // three-phase dance).
    return StatementClass::kCrud;
  }
  return StatementClass::kExclusive;
}

MappingSpec StatementRunner::PresetByName(const std::string& name) {
  if (name == "m2") return Figure4M2();
  if (name == "m3") return Figure4M3();
  if (name == "m4") return Figure4M4();
  if (name == "m5") return Figure4M5();
  if (name == "m6") return Figure4M6();
  if (name == "m6pg") return Figure4M6Pg();
  return MappingSpec::Normalized("m1");
}

Result<std::unique_ptr<StatementRunner>> StatementRunner::Create(
    Options options) {
  std::unique_ptr<StatementRunner> runner(new StatementRunner());
  runner->spec_ = std::move(options.spec);
  runner->sync_ = options.sync;
  runner->faults_ = options.faults;
  runner->shards_ = std::max(1, options.shards);
  if (options.plan_cache_capacity > 0) {
    runner->plan_cache_ =
        std::make_unique<erql::PlanCache>(options.plan_cache_capacity);
  }
  if (options.figure4) {
    ERBIUM_ASSIGN_OR_RETURN(ERSchema schema, MakeFigure4Schema());
    *runner->schema_ = std::move(schema);
    runner->ddl_history_ = Figure4Ddl();
  }
  ERBIUM_RETURN_NOT_OK(runner->Rebuild(runner->schema_));
  // Register the shard metrics up front so /metrics and SHOW METRICS
  // expose the full set from the first scrape.
  obs::MetricsRegistry::Global().gauge("shard.count").Set(runner->shards_);
  for (int k = 0; k < runner->shards_; ++k) {
    runner->shard_insert_counters_.push_back(
        ShardCounter(ShardInsertCounterName(k)));
    runner->shard_insert_counters_.back().Increment(0);
  }
  if (runner->shards_ > 1) {
    // In ShardRouteClass order.
    for (shard::ShardRouteClass route :
         {shard::ShardRouteClass::kSingleShard,
          shard::ShardRouteClass::kLocalJoin,
          shard::ShardRouteClass::kScatterGather}) {
      runner->route_counters_.push_back(ShardCounter(
          std::string("shard.route.") + shard::ShardRouteClassName(route)));
      runner->route_counters_.back().Increment(0);
    }
  }
  if (options.figure4) {
    Figure4Config config;
    config.num_r = options.figure4_num_r;
    config.num_s = options.figure4_num_s;
    if (runner->shards_ > 1) {
      // Route the generated stream: entities by anchor-key hash, edges to
      // their dominant participant's shard. The generator emits every
      // entity before any relationship, so the cross-shard existence
      // probes resolve against fully loaded siblings.
      StatementRunner* r = runner.get();
      Figure4Sinks sinks;
      sinks.insert_entity = [r](const std::string& cls,
                                Value fields) -> Status {
        ERBIUM_ASSIGN_OR_RETURN(int s, r->router_->RouteInsert(cls, fields));
        return r->shard_db(s)->InsertEntity(cls, fields);
      };
      sinks.insert_relationship = [r](const std::string& rel, IndexKey left,
                                      IndexKey right, Value attrs) -> Status {
        ERBIUM_ASSIGN_OR_RETURN(int s,
                                r->router_->RouteRelationship(rel, left, right));
        return r->shard_db(s)->InsertRelationship(rel, left, right, attrs);
      };
      ERBIUM_RETURN_NOT_OK(PopulateFigure4(sinks, config));
    } else {
      ERBIUM_RETURN_NOT_OK(PopulateFigure4(runner->db_.get(), config));
    }
  }
  if (!options.attach_dir.empty()) {
    std::string message;
    ERBIUM_RETURN_NOT_OK(runner->AttachDir(options.attach_dir, &message));
  }
  return runner;
}

Status StatementRunner::Rebuild(std::shared_ptr<ERSchema> next_schema) {
  if (shards_ <= 1) {
    auto fresh = MappedDatabase::Create(next_schema.get(), spec_);
    if (!fresh.ok()) return fresh.status();
    if (db_ != nullptr) {
      ERBIUM_RETURN_NOT_OK(evolution::MigrateData(db_.get(), fresh->get()));
    }
    db_ = std::move(fresh).value();
    schema_ = std::move(next_schema);
    return Status::OK();
  }
  // Fail before touching anything: a mapping whose relationship storage
  // fuses both endpoints into one structure cannot be hash-partitioned.
  ERBIUM_RETURN_NOT_OK(shard::ValidateShardable(*next_schema, spec_, shards_));
  // The post-rebuild routing. Entity placement is schema-derived, but
  // relationship edges follow their dominant participant — which the
  // mapping spec can flip — so migration below re-routes every instance
  // through this map instead of copying shard-by-shard in place.
  ERBIUM_ASSIGN_OR_RETURN(
      shard::CoPartitionMap next_map,
      shard::CoPartitionMap::Build(*next_schema, spec_, shards_));
  // Build every fresh shard first, then migrate, then swap — a failure
  // anywhere leaves the old databases fully intact.
  std::vector<std::unique_ptr<MappedDatabase>> fresh(shards_);
  for (int k = 0; k < shards_; ++k) {
    auto f = MappedDatabase::Create(next_schema.get(), spec_);
    if (!f.ok()) return f.status();
    fresh[k] = std::move(f).value();
    fresh[k]->set_remote_entity_check(MakeRemoteCheck(k));
  }
  // Sibling probes trust while the context is down (the fresh shards are
  // not published yet); migration replays an already-validated stream.
  shard_ctx_ready_.store(false, std::memory_order_release);
  Status migrated = [&]() -> Status {
    if (db_ == nullptr) return Status::OK();
    evolution::MigrateSinks sinks;
    sinks.dst_schema = next_schema.get();
    sinks.insert_entity = [&](const std::string& cls,
                              Value fields) -> Status {
      ERBIUM_ASSIGN_OR_RETURN(int s, next_map.RouteEntityValue(cls, fields));
      return fresh[s]->InsertEntity(cls, fields);
    };
    sinks.insert_relationship = [&](const std::string& rel, IndexKey left,
                                    IndexKey right, Value attrs) -> Status {
      ERBIUM_ASSIGN_OR_RETURN(int s,
                              next_map.RouteRelationship(rel, left, right));
      return fresh[s]->InsertRelationship(rel, left, right, attrs);
    };
    // All entities (from every shard) land before any edge: foreign-key
    // edge storage needs the dominant side's rows in place, and an
    // edge's new shard may receive its entities from a different old
    // shard than the edge itself.
    for (int k = 0; k < shards_; ++k) {
      ERBIUM_RETURN_NOT_OK(evolution::MigrateEntities(shard_db(k), sinks));
    }
    for (int k = 0; k < shards_; ++k) {
      ERBIUM_RETURN_NOT_OK(
          evolution::MigrateRelationships(shard_db(k), sinks));
    }
    return Status::OK();
  }();
  if (!migrated.ok()) return migrated;  // old shards intact; ctx still down
  db_ = std::move(fresh[0]);
  shard_dbs_.clear();
  for (int k = 1; k < shards_; ++k) shard_dbs_.push_back(std::move(fresh[k]));
  schema_ = std::move(next_schema);
  return RefreshShardContext();
}

Status StatementRunner::RefreshShardContext() {
  if (shards_ <= 1) return Status::OK();
  ERBIUM_ASSIGN_OR_RETURN(
      std::unique_ptr<shard::ShardRouter> router,
      shard::ShardRouter::Create(*current_schema(),
                                 durable_ != nullptr ? durable_->spec() : spec_,
                                 shards_));
  router_ = std::move(router);
  shard_ctx_.dbs.clear();
  for (int k = 0; k < shards_; ++k) shard_ctx_.dbs.push_back(shard_db(k));
  shard_ctx_.map = &router_->map();
  shard_ctx_ready_.store(true, std::memory_order_release);
  return Status::OK();
}

MappedDatabase::RemoteEntityCheck StatementRunner::MakeRemoteCheck(int self) {
  return [this, self](const std::string& entity,
                      const IndexKey& key) -> Result<bool> {
    if (!shard_ctx_ready_.load(std::memory_order_acquire)) {
      // Recovery replay, migration, and mid-fan-out rebuilds run before
      // the sibling set is (re)published — trust the logged/migrated
      // stream rather than probe through possibly dangling pointers.
      return true;
    }
    ERBIUM_ASSIGN_OR_RETURN(int target, router_->RouteKey(entity, key));
    if (target == self) return false;  // a local miss is a genuine miss
    // Versioned read on the sibling — takes no writer locks, so a
    // concurrent relationship insert on that shard cannot deadlock us.
    return shard_db(target)->EntityExists(entity, key);
  };
}

namespace {

/// Acquires a deferred statement lock, attributing any blocking to the
/// statement.lock_wait_us histogram. The uncontended path is try_lock
/// only — no clock reads — so the statement clock-read budget (4 per
/// statement, all in the server) survives this instrumentation.
template <typename Lock>
void AcquireStatementLock(Lock* lock) {
  if (lock->try_lock()) return;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.counter("statement.lock_contended").Increment();
  uint64_t start = obs::MonotonicNowNs();
  lock->lock();
  static const std::vector<double>* bounds = new std::vector<double>{
      10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000,
      50000, 100000, 250000, 1e6};
  registry.histogram("statement.lock_wait_us", *bounds)
      .Observe(static_cast<double>(obs::MonotonicNowNs() - start) / 1e3);
}

}  // namespace

Result<StatementOutcome> StatementRunner::Execute(
    const std::string& statement) {
  StatementClass cls = Classify(statement);
  if (LeadingKeyword(statement) == "checkpoint") {
    // CHECKPOINT alternates lock modes across its three phases; it
    // cannot run under one scoped acquisition.
    return CheckpointStatement();
  }
  if (cls == StatementClass::kExclusive) {
    std::unique_lock<std::shared_mutex> lock(statement_mu_, std::defer_lock);
    AcquireStatementLock(&lock);
    StatementScope scope(this);
    return ExecuteClassified(statement, cls);
  }
  // Reads and CRUD both run shared: readers execute against pinned
  // versions, CRUD serializes per mapping lock domain underneath.
  std::shared_lock<std::shared_mutex> lock(statement_mu_, std::defer_lock);
  AcquireStatementLock(&lock);
  StatementScope scope(this);
  return ExecuteClassified(statement, cls);
}

Result<StatementOutcome> StatementRunner::ExecuteClassified(
    const std::string& statement, StatementClass cls) {
  std::string word = LeadingKeyword(statement);
  if (word == "create") return CreateLocked(statement);
  if (word == "insert") return InsertLocked(statement);
  if (word == "remap") return RemapLocked(statement);
  if (word == "attach") return AttachLocked(statement);
  if (word == "advise") return AdviseLocked(statement);
  if (word == "show" && SecondKeyword(statement) == "shards") {
    return ShowShardsLocked();
  }
  if (cls != StatementClass::kExclusive) {
    ExecOptions opts = ExecOptions::Default();
    if (shards_ > 1) {
      if (!shard_ctx_ready_.load(std::memory_order_acquire)) {
        return Status::Internal(
            "sharded engine is unavailable: a structural statement failed "
            "mid-fan-out and left the shard set inconsistent");
      }
      opts.shards = &shard_ctx_;
    }
    // Only plain SELECTs go through the plan cache; SHOW/EXPLAIN/TRACE
    // would only pollute the hit/miss metrics with guaranteed misses.
    erql::PlanCache* cache = word == "select" ? plan_cache_.get() : nullptr;
    ERBIUM_ASSIGN_OR_RETURN(
        erql::QueryResult result,
        erql::QueryEngine::Execute(current_db(), statement, opts, cache,
                                   mapping_generation()));
    StatementOutcome outcome;
    if (result.shard_count > 1) {
      // Per-route-class traffic counters (sharded SELECTs only; EXPLAIN
      // and TRACE results keep the default single-shard stamp).
      route_counters_[static_cast<size_t>(result.shard_route)].Increment();
      outcome.shard = result.shard_target;
    }
    // EXPLAIN / TRACE / EXPORT / LOAD output is plain lines; SELECT and
    // SHOW render as tables.
    outcome.shape = (word == "explain" || word == "trace" ||
                     word == "export" || word == "load")
                        ? OutputShape::kLines
                        : OutputShape::kTable;
    outcome.result = std::move(result);
    return outcome;
  }
  return Status::InvalidArgument(
      "unsupported statement '" + word +
      "': expected CREATE / INSERT / REMAP / ATTACH DATABASE / CHECKPOINT / "
      "SELECT / EXPLAIN [ANALYZE] / SHOW / TRACE / ADVISE / "
      "EXPORT WORKLOAD / LOAD WORKLOAD");
}

Result<StatementOutcome> StatementRunner::CreateLocked(
    const std::string& statement) {
  if (durable_ != nullptr) {
    if (shards_ > 1) {
      // Validate the post-DDL schema on a scratch copy before any shard
      // commits it — parse errors and unshardable shapes must not leave
      // the shards' logs disagreeing.
      auto next = std::make_shared<ERSchema>(*current_schema());
      ERBIUM_RETURN_NOT_OK(DdlParser::Execute(statement + ";", next.get()));
      ERBIUM_RETURN_NOT_OK(
          shard::ValidateShardable(*next, durable_->spec(), shards_));
      shard_ctx_ready_.store(false, std::memory_order_release);
      for (int k = 0; k < shards_; ++k) {
        ERBIUM_RETURN_NOT_OK(shard_durable(k)->ExecuteDdl(statement + ";"));
      }
      ERBIUM_RETURN_NOT_OK(RefreshShardContext());
    } else {
      ERBIUM_RETURN_NOT_OK(durable_->ExecuteDdl(statement + ";"));
    }
  } else {
    auto next = std::make_shared<ERSchema>(*schema_);
    ERBIUM_RETURN_NOT_OK(DdlParser::Execute(statement + ";", next.get()));
    Status rebuilt = Rebuild(std::move(next));
    if (!rebuilt.ok()) {
      if (shards_ > 1) {
        // The old shard set is intact (Rebuild swaps only on success);
        // re-arm the routing context over it.
        ERBIUM_RETURN_NOT_OK(RefreshShardContext());
      }
      return rebuilt;
    }
    ddl_history_ += statement + ";\n";
  }
  // Either branch rebuilt the physical tables; cached plans are stale.
  BumpMappingGeneration();
  StatementOutcome outcome;
  outcome.message = "ok (" +
                    std::to_string(current_db()->mapping().tables().size()) +
                    " physical tables)";
  return outcome;
}

/// INSERT <Entity> (attr = literal, ...): builds a struct value and goes
/// through the logical insert (which also WAL-logs it when a database is
/// attached).
Result<StatementOutcome> StatementRunner::InsertLocked(
    const std::string& statement) {
  ERBIUM_ASSIGN_OR_RETURN(std::vector<Token> tokens,
                          Lexer::Tokenize(statement));
  TokenStream ts(std::move(tokens));
  if (!ts.ConsumeKeyword("insert")) {
    return Status::ParseError("expected INSERT");
  }
  ERBIUM_ASSIGN_OR_RETURN(std::string entity,
                          ts.ExpectIdentifier("entity set name"));
  ERBIUM_RETURN_NOT_OK(ts.ExpectSymbol("("));
  Value::StructData fields;
  while (true) {
    ERBIUM_ASSIGN_OR_RETURN(std::string attr,
                            ts.ExpectIdentifier("attribute name"));
    ERBIUM_RETURN_NOT_OK(ts.ExpectSymbol("="));
    bool negative = ts.ConsumeSymbol("-");
    const Token& tok = ts.Advance();
    Value value;
    switch (tok.kind) {
      case TokenKind::kInteger:
        value = Value::Int64(negative ? -tok.int_value : tok.int_value);
        break;
      case TokenKind::kFloat:
        value = Value::Float64(negative ? -tok.float_value : tok.float_value);
        break;
      case TokenKind::kString:
        value = Value::String(tok.text);
        break;
      case TokenKind::kIdentifier:
        if (tok.IsKeyword("true")) {
          value = Value::Bool(true);
        } else if (tok.IsKeyword("false")) {
          value = Value::Bool(false);
        } else if (tok.IsKeyword("null")) {
          value = Value::Null();
        } else {
          return Status::ParseError("unexpected value '" + tok.text + "'");
        }
        break;
      default:
        return Status::ParseError("expected a literal value");
    }
    if (negative && tok.kind != TokenKind::kInteger &&
        tok.kind != TokenKind::kFloat) {
      return Status::ParseError("'-' must precede a numeric literal");
    }
    fields.emplace_back(std::move(attr), std::move(value));
    if (ts.ConsumeSymbol(",")) continue;
    ERBIUM_RETURN_NOT_OK(ts.ExpectSymbol(")"));
    break;
  }
  if (!ts.AtEnd() && !ts.ConsumeSymbol(";")) {
    return Status::ParseError("unexpected trailing input after INSERT");
  }
  Value value = Value::Struct(std::move(fields));
  int target = 0;
  if (shards_ > 1) {
    if (!shard_ctx_ready_.load(std::memory_order_acquire)) {
      return Status::Internal(
          "sharded engine is unavailable: a structural statement failed "
          "mid-fan-out and left the shard set inconsistent");
    }
    ERBIUM_ASSIGN_OR_RETURN(target, router_->RouteInsert(entity, value));
  }
  ERBIUM_RETURN_NOT_OK(shard_db(target)->InsertEntity(entity, value));
  shard_insert_counters_[static_cast<size_t>(target)].Increment();
  // Feed the workload profiler at the statement level (not inside
  // MappedDatabase) so REMAP migration, recovery replay, and ADVISE
  // candidate population never pollute the CRUD counters.
  obs::WorkloadProfile::Global().RecordEntityCrud(entity,
                                                  obs::CrudKind::kInsert);
  StatementOutcome outcome;
  outcome.message = "ok";
  if (shards_ > 1) outcome.shard = target;
  return outcome;
}

/// REMAP <preset>: switch the physical mapping, migrating data.
Result<StatementOutcome> StatementRunner::RemapLocked(
    const std::string& statement) {
  ERBIUM_ASSIGN_OR_RETURN(std::vector<Token> tokens,
                          Lexer::Tokenize(statement));
  TokenStream ts(std::move(tokens));
  if (!ts.ConsumeKeyword("remap")) {
    return Status::ParseError("expected REMAP");
  }
  ERBIUM_ASSIGN_OR_RETURN(std::string name,
                          ts.ExpectIdentifier("mapping preset name"));
  if (!ts.AtEnd() && !ts.ConsumeSymbol(";")) {
    return Status::ParseError("unexpected trailing input after REMAP");
  }
  MappingSpec next = PresetByName(name);
  ERBIUM_RETURN_NOT_OK(RemapSpec(next));
  StatementOutcome outcome;
  outcome.message = "remapped to " + next.ToString() + " (data migrated)";
  return outcome;
}

Status StatementRunner::RemapSpec(const MappingSpec& next) {
  if (durable_ != nullptr) {
    if (shards_ > 1) {
      ERBIUM_RETURN_NOT_OK(
          shard::ValidateShardable(durable_->schema(), next, shards_));
      shard_ctx_ready_.store(false, std::memory_order_release);
      for (int k = 0; k < shards_; ++k) {
        ERBIUM_RETURN_NOT_OK(shard_durable(k)->Remap(next));
      }
      ERBIUM_RETURN_NOT_OK(RefreshShardContext());
    } else {
      ERBIUM_RETURN_NOT_OK(durable_->Remap(next));
    }
    BumpMappingGeneration();
    return Status::OK();
  }
  MappingSpec old = spec_;
  spec_ = next;
  Status st = Rebuild(schema_);
  if (!st.ok()) {
    spec_ = std::move(old);
    if (shards_ > 1) {
      // The old databases are intact (Rebuild swaps only on success);
      // re-arm the routing context under the rolled-back spec.
      Status refreshed = RefreshShardContext();
      if (!refreshed.ok()) return refreshed;
    }
    return st;
  }
  BumpMappingGeneration();
  return Status::OK();
}

Status StatementRunner::RemapPreset(const std::string& name) {
  std::unique_lock<std::shared_mutex> lock(statement_mu_);
  StatementScope scope(this);
  return RemapSpec(PresetByName(name));
}

Result<StatementOutcome> StatementRunner::AttachLocked(
    const std::string& statement) {
  ERBIUM_ASSIGN_OR_RETURN(erql::Query query, erql::Parser::Parse(statement));
  if (query.statement != erql::StatementKind::kAttach) {
    return Status::ParseError("expected ATTACH DATABASE '<dir>'");
  }
  if (durable_ != nullptr) {
    return Status::InvalidArgument("already attached to " + durable_->dir());
  }
  StatementOutcome outcome;
  ERBIUM_RETURN_NOT_OK(AttachDir(query.attach_path, &outcome.message));
  return outcome;
}

Status StatementRunner::AttachDir(const std::string& dir,
                                  std::string* message) {
  if (shards_ <= 1) {
    durability::DurableDatabase::Options options;
    options.spec = spec_;
    options.initial_ddl = ddl_history_;
    options.sync = sync_;
    options.faults = faults_;
    auto opened = durability::DurableDatabase::Open(dir, std::move(options));
    if (!opened.ok()) return opened.status();
    durable_ = std::move(opened).value();
    db_.reset();
    // The in-memory database (and every plan bound to it) just got
    // replaced by the recovered one.
    BumpMappingGeneration();
    const auto& info = durable_->recovery_info();
    *message = "attached " + dir + " (snapshot gen " +
               std::to_string(info.snapshot_gen) + ", " +
               std::to_string(info.records_replayed) + " records replayed" +
               (info.wal_clean ? "" : ", torn WAL tail discarded") + ")";
    return Status::OK();
  }
  // Sharded layout: <dir>/shard-<k>/ per shard, each with its own WAL
  // and snapshot generations, plus a shard-count manifest — the
  // partition function is baked into every shard's data, so reopening
  // with a different N would silently route lookups to the wrong shards.
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create database directory " + dir + ": " +
                           ec.message());
  }
  if (std::filesystem::exists(dir + "/wal.erblog")) {
    return Status::InvalidArgument(
        "directory " + dir + " holds a single-shard database (top-level "
        "wal.erblog); reopen it with shards=1 or choose a fresh directory");
  }
  const std::string manifest = ShardManifestPath(dir);
  if (std::filesystem::exists(manifest)) {
    std::ifstream in(manifest);
    int recorded = 0;
    if (!(in >> recorded) || recorded < 1) {
      return Status::IOError("unreadable shard manifest " + manifest);
    }
    if (recorded != shards_) {
      return Status::InvalidArgument(
          "directory " + dir + " was created with " +
          std::to_string(recorded) + " shards; reopen it with shards=" +
          std::to_string(recorded));
    }
  } else {
    std::ofstream out(manifest, std::ios::trunc);
    out << shards_ << "\n";
    out.flush();
    if (!out.good()) {
      return Status::IOError("cannot write shard manifest " + manifest);
    }
  }
  // Recovery replay consults the remote-existence probes; drop the
  // context first so they trust the logged stream instead of probing the
  // (empty, unrelated) in-memory shards. On failure the in-memory shard
  // set is intact — re-arm over it before surfacing the error.
  shard_ctx_ready_.store(false, std::memory_order_release);
  auto fail = [this](Status st) {
    Status rearmed = RefreshShardContext();
    return st.ok() ? rearmed : st;
  };
  std::vector<std::unique_ptr<durability::DurableDatabase>> opened(shards_);
  for (int k = 0; k < shards_; ++k) {
    durability::DurableDatabase::Options options;
    options.spec = spec_;
    options.initial_ddl = ddl_history_;
    options.sync = sync_;
    options.faults = faults_;
    options.remote_check = MakeRemoteCheck(k);
    auto shard_open = durability::DurableDatabase::Open(ShardDirPath(dir, k),
                                                       std::move(options));
    if (!shard_open.ok()) return fail(shard_open.status());
    opened[k] = std::move(shard_open).value();
  }
  // Fail-stop on divergent schema/mapping: a crash between the per-shard
  // steps of a structural fan-out leaves the logs disagreeing about the
  // schema itself, and no WAL replay can reconcile that.
  for (int k = 1; k < shards_; ++k) {
    if (opened[k]->ddl() != opened[0]->ddl() ||
        opened[k]->spec().ToJson() != opened[0]->spec().ToJson()) {
      return fail(Status::Internal(
          "shard " + std::to_string(k) + " of " + dir +
          " recovered a different schema/mapping than shard 0 (crash during "
          "a structural fan-out?); refusing to serve"));
    }
  }
  // Snapshot generations may legitimately disagree (kill -9 between the
  // per-shard phases of a fan-out CHECKPOINT): each shard's own WAL
  // covers its gap, so recovery takes the minimum consistent generation
  // and says so out loud rather than pretending the set is uniform.
  uint64_t min_gen = opened[0]->recovery_info().snapshot_gen;
  uint64_t max_gen = min_gen;
  size_t replayed = 0;
  bool torn = false;
  for (int k = 0; k < shards_; ++k) {
    const auto& info = opened[k]->recovery_info();
    min_gen = std::min(min_gen, info.snapshot_gen);
    max_gen = std::max(max_gen, info.snapshot_gen);
    replayed += info.records_replayed;
    torn = torn || !info.wal_clean;
  }
  if (min_gen != max_gen) {
    std::fprintf(stderr,
                 "erbium: shard snapshot generations disagree in %s "
                 "(gens %llu..%llu) — taking minimum consistent generation "
                 "%llu; per-shard WAL replay covers the difference\n",
                 dir.c_str(), static_cast<unsigned long long>(min_gen),
                 static_cast<unsigned long long>(max_gen),
                 static_cast<unsigned long long>(min_gen));
    ShardCounter("shard.recovery.gen_skew").Increment();
  }
  durable_ = std::move(opened[0]);
  shard_durables_.clear();
  for (int k = 1; k < shards_; ++k) {
    shard_durables_.push_back(std::move(opened[k]));
  }
  db_.reset();
  shard_dbs_.clear();
  BumpMappingGeneration();
  ERBIUM_RETURN_NOT_OK(RefreshShardContext());
  std::string gens = min_gen == max_gen
                         ? std::to_string(min_gen)
                         : std::to_string(min_gen) + ".." +
                               std::to_string(max_gen) + ", min taken";
  *message = "attached " + dir + " (" + std::to_string(shards_) +
             " shards, snapshot gen " + gens + ", " +
             std::to_string(replayed) + " records replayed" +
             (torn ? ", torn WAL tail discarded" : "") + ")";
  return Status::OK();
}

namespace {

/// Fixed-point milliseconds for the ADVISE table ("1.234").
std::string FormatMs(double ms) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", ms);
  return buffer;
}

}  // namespace

Result<StatementOutcome> StatementRunner::AdviseLocked(
    const std::string& statement) {
  ERBIUM_ASSIGN_OR_RETURN(erql::Query query, erql::Parser::Parse(statement));
  if (query.statement != erql::StatementKind::kAdvise) {
    return Status::ParseError("expected ADVISE [LIMIT n]");
  }
  obs::WorkloadSnapshot snapshot = obs::WorkloadProfile::Global().Snapshot();
  Workload workload = WorkloadFromProfile(snapshot);
  if (workload.queries.empty()) {
    std::string hint;
    if (!obs::WorkloadProfile::CompiledIn()) {
      hint = " (capture is compiled out)";
    } else if (!obs::WorkloadProfile::Global().enabled()) {
      hint = " (capture is disabled)";
    }
    return Status::InvalidArgument(
        "ADVISE: no captured SELECT traffic to advise from" + hint +
        " — run queries first, or LOAD WORKLOAD FROM a snapshot");
  }
  // The active spec goes in as candidate #0 (deduped out of the
  // enumeration) so every row has a well-defined delta against what the
  // system is running right now.
  const MappingSpec& active =
      durable_ != nullptr ? durable_->spec() : spec_;
  std::vector<MappingSpec> candidates;
  candidates.push_back(active);
  const std::string active_json = active.ToJson();
  std::vector<MappingSpec> enumerated =
      MappingAdvisor::EnumerateCandidates(*current_schema(), /*limit=*/16);
  for (MappingSpec& spec : enumerated) {
    if (spec.ToJson() == active_json) continue;
    candidates.push_back(std::move(spec));
  }
  MappedDatabase* live = current_db();
  auto populate = [live](MappedDatabase* dst) {
    return evolution::MigrateData(live, dst);
  };
  ERBIUM_ASSIGN_OR_RETURN(
      MappingAdvisor::Advice advice,
      MappingAdvisor::Advise(current_schema(), candidates, populate, workload,
                             /*repetitions=*/2));

  // Rank: valid candidates by measured cost, invalid ones last.
  std::vector<size_t> order(advice.candidates.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const MappingAdvisor::Candidate& ca = advice.candidates[a];
    const MappingAdvisor::Candidate& cb = advice.candidates[b];
    if (ca.valid != cb.valid) return ca.valid;
    return ca.total_cost_ms < cb.total_cost_ms;
  });
  const MappingAdvisor::Candidate& active_candidate = advice.candidates[0];

  erql::QueryResult result;
  result.columns = {"rank", "mapping", "cost_ms", "vs_active", "note"};
  int64_t limit = query.show_limit;
  size_t rank = 0;
  for (size_t index : order) {
    if (limit >= 0 && static_cast<int64_t>(rank) >= limit) break;
    const MappingAdvisor::Candidate& candidate = advice.candidates[index];
    ++rank;
    std::string cost = candidate.valid ? FormatMs(candidate.total_cost_ms)
                                       : "n/a";
    std::string delta = "n/a";
    if (candidate.valid && active_candidate.valid) {
      double d = candidate.total_cost_ms - active_candidate.total_cost_ms;
      delta = (d >= 0 ? "+" : "") + FormatMs(d);
    }
    std::string note;
    if (index == advice.best_index) note = "best";
    if (index == 0) note += note.empty() ? "active" : ", active";
    if (!candidate.valid) note = "invalid: " + candidate.invalid_reason;
    result.rows.push_back({Value::Int64(static_cast<int64_t>(rank)),
                           Value::String(candidate.spec.ToString()),
                           Value::String(std::move(cost)),
                           Value::String(std::move(delta)),
                           Value::String(std::move(note))});
  }
  StatementOutcome outcome;
  outcome.shape = OutputShape::kTable;
  outcome.result = std::move(result);
  return outcome;
}

void StatementRunner::BumpMappingGeneration() {
  uint64_t next =
      mapping_generation_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (plan_cache_ != nullptr) plan_cache_->InvalidateBelow(next);
}

Result<StatementOutcome> StatementRunner::CheckpointStatement() {
  // One CHECKPOINT at a time; later ones queue here (not on the
  // statement lock, which phase B only holds shared). On a sharded
  // runner each phase is applied to every shard before the next phase
  // starts, so all shards' images pin the same statement horizon (the
  // exclusive barrier of phase A spans the whole shard set).
  std::lock_guard<std::mutex> checkpoint_lock(checkpoint_mu_);
  std::vector<durability::DurableDatabase::CheckpointPins> pins(
      static_cast<size_t>(shards_));
  {
    // Phase A — brief exclusive barrier: pin every table/pair version and
    // fix each shard's WAL horizon. O(#tables), no IO.
    std::unique_lock<std::shared_mutex> lock(statement_mu_, std::defer_lock);
    AcquireStatementLock(&lock);
    StatementScope scope(this);
    if (durable_ == nullptr) {
      return Status::InvalidArgument(
          "CHECKPOINT requires a durable database — ATTACH DATABASE "
          "'<dir>' first");
    }
    for (int k = 0; k < shards_; ++k) {
      Result<durability::DurableDatabase::CheckpointPins> p =
          shard_durable(k)->PrepareCheckpoint();
      if (!p.ok()) {
        for (int j = 0; j < k; ++j) shard_durable(j)->AbortCheckpoint();
        return p.status();
      }
      pins[k] = std::move(p).value();
    }
  }
  // Phase B — shared lock: encode the pinned images and write them to
  // disk while concurrent SELECTs and CRUD proceed. (ATTACH refuses when
  // already attached, so the shard set cannot change between phases.)
  std::vector<std::string> summaries(static_cast<size_t>(shards_));
  Status wrote = [&]() -> Status {
    std::shared_lock<std::shared_mutex> lock(statement_mu_, std::defer_lock);
    AcquireStatementLock(&lock);
    StatementScope scope(this);
    for (int k = 0; k < shards_; ++k) {
      Result<std::string> summary =
          shard_durable(k)->WriteSnapshotPhase(pins[k]);
      if (!summary.ok()) return summary.status();
      summaries[k] = std::move(summary).value();
    }
    return Status::OK();
  }();
  if (!wrote.ok()) {
    // Any shard failing the write phase aborts the checkpoint on every
    // shard: no shard advances its generation, so a later recovery sees
    // a uniform set (plus intact WALs).
    for (int k = 0; k < shards_; ++k) shard_durable(k)->AbortCheckpoint();
    return wrote;
  }
  {
    // Phase C — also shared: rename the snapshots into place and compact
    // each WAL down to the records appended during phase B. Readers never
    // touch snapshot files or the WAL at runtime; concurrent appends
    // order against the compaction on the WAL's internal mutex, and any
    // record they add carries lsn > the checkpoint horizon, so the
    // compaction keeps it. Only phase A's pin grab needs exclusivity.
    std::shared_lock<std::shared_mutex> lock(statement_mu_, std::defer_lock);
    AcquireStatementLock(&lock);
    StatementScope scope(this);
    for (int k = 0; k < shards_; ++k) {
      Status finished = shard_durable(k)->FinishCheckpoint(pins[k]);
      if (!finished.ok()) {
        // Shards before k already advanced; the ones after keep their old
        // generation + full WAL — exactly the skew ATTACH recovery logs
        // and absorbs (each shard stays individually consistent).
        for (int j = k + 1; j < shards_; ++j) {
          shard_durable(j)->AbortCheckpoint();
        }
        return finished;
      }
    }
  }
  StatementOutcome outcome;
  outcome.shape = OutputShape::kLines;
  outcome.result.columns = {"checkpoint"};
  if (shards_ == 1) {
    outcome.result.rows.push_back(Row{Value::String(std::move(summaries[0]))});
  } else {
    for (int k = 0; k < shards_; ++k) {
      outcome.result.rows.push_back(Row{Value::String(
          "shard " + std::to_string(k) + ": " + std::move(summaries[k]))});
    }
  }
  return outcome;
}

Result<StatementOutcome> StatementRunner::ShowShardsLocked() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  erql::QueryResult result;
  result.columns = {"shard", "inserts", "wal_bytes", "next_lsn",
                    "snapshot_gen"};
  for (int k = 0; k < shards_; ++k) {
    uint64_t inserts = registry.counter(ShardInsertCounterName(k)).Value();
    uint64_t wal_bytes = 0;
    uint64_t next_lsn = 0;
    uint64_t gen = 0;
    if (durable_ != nullptr) {
      durability::DurableDatabase* d = shard_durable(k);
      wal_bytes = d->wal_bytes();
      next_lsn = d->next_lsn();
      gen = d->latest_snapshot_gen();
    }
    result.rows.push_back(Row{Value::Int64(k),
                              Value::Int64(static_cast<int64_t>(inserts)),
                              Value::Int64(static_cast<int64_t>(wal_bytes)),
                              Value::Int64(static_cast<int64_t>(next_lsn)),
                              Value::Int64(static_cast<int64_t>(gen))});
  }
  StatementOutcome outcome;
  outcome.shape = OutputShape::kTable;
  outcome.result = std::move(result);
  return outcome;
}

void StatementRunner::AssertQuiescent(const char* what) const {
#ifndef NDEBUG
  int active = active_statements_.load(std::memory_order_relaxed);
  if (active != 0) {
    std::fprintf(stderr,
                 "FATAL: StatementRunner::%s called while %d statement(s) "
                 "are in flight — the unlocked introspection accessors are "
                 "only safe on a quiescent runner\n",
                 what, active);
    std::abort();
  }
#else
  (void)what;
#endif
}

Status StatementRunner::FinalCheckpoint() {
  std::lock_guard<std::mutex> checkpoint_lock(checkpoint_mu_);
  std::unique_lock<std::shared_mutex> lock(statement_mu_);
  StatementScope scope(this);
  if (durable_ == nullptr) return Status::OK();
  for (int k = 0; k < shards_; ++k) {
    ERBIUM_RETURN_NOT_OK(shard_durable(k)->Checkpoint().status());
  }
  return Status::OK();
}

}  // namespace api
}  // namespace erbium
