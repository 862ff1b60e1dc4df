#ifndef ERBIUM_OBS_WORKLOAD_PROFILE_H_
#define ERBIUM_OBS_WORKLOAD_PROFILE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/lexer.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace erbium {
namespace obs {

/// Always-on workload profiler: records *what* statements touch at the
/// E/R level (which entity sets, relationship sets, and attributes, and
/// how — full scan vs index probe vs join side vs CRUD kind) plus a
/// normalized query-shape table, so the mapping advisor can be fed from
/// live traffic instead of a hand-written workload.
///
/// The write path is lock-sharded like QueryTelemetry: names hash to one
/// of kShards shards, each guarded by its own mutex, so concurrent
/// sessions rarely contend. Every count is mirrored into a
/// MetricsRegistry counter under the "workload." prefix, which is what
/// puts the profile on the Prometheus export and the /metrics scrape for
/// free. The profiler performs no clock reads of its own: statement wall
/// time arrives from the query engine's existing measurement.
///
/// Compile the capture out entirely with -DERBIUM_DISABLE_WORKLOAD_PROFILE
/// (a CMake option of the same name); the recording entry points then
/// collapse to empty inlines.

/// How one statement reached one entity set.
enum class EntityPath { kScan, kProbe, kJoinSide };

/// CRUD verbs fed from the statement layer.
enum class CrudKind { kInsert, kDelete, kUpdate };

struct EntityAccess {
  uint64_t scans = 0;       // full entity-set scans
  uint64_t probes = 0;      // key point lookups (index probe)
  uint64_t join_sides = 0;  // appeared as the probe/build side of a join
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t updates = 0;
};

struct RelationshipAccess {
  uint64_t joins = 0;        // traversed by a relationship join
  uint64_t fused_scans = 0;  // served by a fused joined-storage scan
  uint64_t inserts = 0;
  uint64_t deletes = 0;
};

struct AttributeAccess {
  uint64_t predicates = 0;   // referenced by WHERE / ON
  uint64_t projections = 0;  // referenced by SELECT / GROUP BY / ORDER BY
};

/// The E/R access footprint of one compiled statement, assembled by the
/// translator while it plans and stored alongside the compiled plan, so
/// plan-cache hits replay it without re-deriving anything.
struct StatementFootprint {
  struct EntityTouch {
    std::string entity;
    EntityPath path;
  };
  struct RelationshipTouch {
    std::string relationship;
    bool fused = false;
  };
  struct AttributeTouch {
    std::string entity;
    std::string attribute;
    bool predicate = false;  // else projection
  };

  /// Literal-stripped statement text (NormalizeShape), stamped by the
  /// query engine once per compile.
  std::string shape;
  std::vector<EntityTouch> entities;
  std::vector<RelationshipTouch> relationships;
  std::vector<AttributeTouch> attributes;
};

/// Point-in-time copy of a profile. Maps are key-sorted and shapes are
/// ordered by weight (total wall time) descending then shape text
/// ascending, so ToJson() is byte-deterministic for a given state.
struct WorkloadSnapshot {
  struct Shape {
    std::string shape;   // normalized text (literals stripped)
    std::string sample;  // one concrete statement matching the shape
    std::string kind;    // statement kind tag ("select", "trace", ...)
    uint64_t count = 0;
    uint64_t total_wall_ns = 0;
    /// frequency x mean latency == accumulated wall time.
    uint64_t weight_ns() const { return total_wall_ns; }
  };

  uint64_t statements = 0;  // profiled statements recorded
  std::map<std::string, EntityAccess> entities;
  std::map<std::string, RelationshipAccess> relationships;
  std::map<std::string, AttributeAccess> attributes;  // key "Entity.attr"
  std::vector<Shape> shapes;

  /// Canonical JSON encoding (parseable by tests/mini_json.h). Two equal
  /// snapshots always render byte-identically.
  std::string ToJson() const;
};

/// Rewrites statement text into its shape: tokens re-joined with single
/// spaces, identifiers lowercased, every literal (integer, float, string)
/// replaced by '?', trailing ';' dropped. Text that fails to tokenize
/// falls back to whitespace collapsing so the profiler never rejects a
/// statement the parser itself accepted.
std::string NormalizeShape(const std::string& text);
/// The same shape from an already tokenized statement (the plan cache's
/// shaping pass), so a compile does not lex its text a second time.
std::string NormalizeShape(const std::vector<Token>& tokens);

class WorkloadProfile {
 public:
  /// The process-wide profile, mirroring into MetricsRegistry::Global().
  /// Intentionally leaked, like the registry itself.
  static WorkloadProfile& Global();

  /// `shape_capacity` bounds the number of distinct shapes kept. At
  /// capacity, a new shape is admitted only by arriving with more wall
  /// time than the lightest resident (which it then evicts) — heavy
  /// hitters survive streams of one-off shapes. `registry` defaults to
  /// the process-wide registry; tests pass their own for isolation.
  explicit WorkloadProfile(size_t shape_capacity = kDefaultShapeCapacity,
                           MetricsRegistry* registry = nullptr);

  WorkloadProfile(const WorkloadProfile&) = delete;
  WorkloadProfile& operator=(const WorkloadProfile&) = delete;

  /// Runtime kill switch; capture entry points become near-free loads.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// True unless built with ERBIUM_DISABLE_WORKLOAD_PROFILE.
  static constexpr bool CompiledIn() {
#ifdef ERBIUM_DISABLE_WORKLOAD_PROFILE
    return false;
#else
    return true;
#endif
  }

  /// Records one executed statement: its footprint (may be null for
  /// statements with no compiled plan) and its shape weighted by the wall
  /// time the engine already measured. Only plan-executing kinds
  /// ("select", "explain_analyze", "trace") are profiled; introspection
  /// statements (SHOW/EXPORT/LOAD WORKLOAD, ADVISE) observe the profile
  /// without perturbing it.
  void RecordStatement(const StatementFootprint* footprint,
                       const std::string& kind, const std::string& text,
                       uint64_t wall_ns) {
#ifndef ERBIUM_DISABLE_WORKLOAD_PROFILE
    if (enabled()) RecordStatementImpl(footprint, kind, text, wall_ns);
#else
    (void)footprint, (void)kind, (void)text, (void)wall_ns;
#endif
  }

  /// CRUD feed from the statement layer (api::StatementRunner), so
  /// internal bulk paths (REMAP migration, recovery replay, advisor
  /// candidate population) never pollute the captured workload.
  void RecordEntityCrud(const std::string& entity, CrudKind kind) {
#ifndef ERBIUM_DISABLE_WORKLOAD_PROFILE
    if (enabled()) RecordEntityCrudImpl(entity, kind);
#else
    (void)entity, (void)kind;
#endif
  }
  void RecordRelationshipCrud(const std::string& relationship, CrudKind kind) {
#ifndef ERBIUM_DISABLE_WORKLOAD_PROFILE
    if (enabled()) RecordRelationshipCrudImpl(relationship, kind);
#else
    (void)relationship, (void)kind;
#endif
  }

  WorkloadSnapshot Snapshot() const;

  /// Forgets everything captured so far (the Prometheus mirror counters,
  /// being monotonic, are not rewound).
  void Clear();

  /// Snapshot().ToJson() — the EXPORT WORKLOAD INTO payload.
  std::string ToJson() const { return Snapshot().ToJson(); }

  /// Replaces the profile contents with a previously exported snapshot.
  /// Loading S then exporting again reproduces S byte-for-byte. The
  /// Prometheus mirror keeps counting live traffic only.
  Status LoadJson(const std::string& json);

  static constexpr size_t kDefaultShapeCapacity = 128;

 private:
  static constexpr size_t kShards = 8;

  struct EntityState {
    EntityAccess counts;
    Counter c_scans, c_probes, c_join_sides, c_inserts, c_deletes, c_updates;
  };
  struct RelationshipState {
    RelationshipAccess counts;
    Counter c_joins, c_fused_scans, c_inserts, c_deletes;
  };
  struct AttributeState {
    AttributeAccess counts;
    Counter c_predicates, c_projections;
  };
  struct ShapeState {
    std::string sample;
    std::string kind;
    uint64_t count = 0;
    uint64_t total_wall_ns = 0;
  };

  /// One hash-sharded slice of the profile. A statement's touches are
  /// applied name-by-name; each name locks only its own shard.
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, EntityState> entities;
    std::unordered_map<std::string, RelationshipState> relationships;
    std::unordered_map<std::string, AttributeState> attributes;
    std::unordered_map<std::string, ShapeState> shapes;
  };

  void RecordStatementImpl(const StatementFootprint* footprint,
                           const std::string& kind, const std::string& text,
                           uint64_t wall_ns);
  void RecordEntityCrudImpl(const std::string& entity, CrudKind kind);
  void RecordRelationshipCrudImpl(const std::string& relationship,
                                  CrudKind kind);
  void RecordShape(const std::string& shape, const std::string& kind,
                   const std::string& sample, uint64_t wall_ns,
                   uint64_t count);

  Shard& ShardFor(const std::string& name);
  EntityState& EntityStateLocked(Shard& shard, const std::string& name);
  RelationshipState& RelationshipStateLocked(Shard& shard,
                                             const std::string& name);
  AttributeState& AttributeStateLocked(Shard& shard, const std::string& key);

  MetricsRegistry* registry_;
  size_t shape_capacity_;
  size_t shapes_per_shard_;
  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> statements_{0};
  Counter c_statements_;
  Gauge g_shapes_;
  Shard shards_[kShards];
};

}  // namespace obs
}  // namespace erbium

#endif  // ERBIUM_OBS_WORKLOAD_PROFILE_H_
