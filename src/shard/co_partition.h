#ifndef ERBIUM_SHARD_CO_PARTITION_H_
#define ERBIUM_SHARD_CO_PARTITION_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "er/er_schema.h"
#include "mapping/mapping_spec.h"
#include "storage/index.h"

namespace erbium {

class MappedDatabase;

namespace shard {

/// How a compiled statement executes across shards.
///   kSingleShard     routed to one shard by key hash (point statements)
///   kLocalJoin       broadcast, but every scan in every branch is proven
///                    shard-local (co-partitioned work; no cross-shard
///                    data movement beyond the final gather)
///   kScatterGather   broadcast with at least one cross-shard scan union
///                    or a partial-aggregate merge at the coordinator
enum class ShardRouteClass { kSingleShard, kLocalJoin, kScatterGather };

const char* ShardRouteClassName(ShardRouteClass c);

/// Where an entity set's instances live. Every entity routes by the key
/// of its *anchor*: the strong, non-weak root reached by following ISA
/// edges to the hierarchy root and weak edges to the owner, repeatedly.
/// Because FullKey(E) always starts with FullKey(anchor(E)) (subclasses
/// inherit the root key; weak keys are owner key + partial key), the
/// routing attributes are a prefix of every instance's full key — so an
/// instance and all its subclass segments, weak dependents, and
/// dominant-side relationship edges land on one shard.
struct EntityPlacement {
  std::string anchor;
  /// First |FullKey(anchor)| names of FullKey(entity).
  std::vector<std::string> routing_attrs;
  /// Connected-component id of the schema graph (ISA + weak +
  /// relationship edges) — the same partition the MVCC lock domains use.
  int component = 0;
};

/// Where a relationship set's edges live: on the dominant participant's
/// shard. Under foreign-key storage the edge physically lives on the
/// many side's segment rows, so the many side MUST be dominant; join
/// tables are free-standing and default to the left participant.
struct RelationshipPlacement {
  std::string dominant_entity;
  bool dominant_is_left = true;
  int component = 0;
};

/// The schema-derived co-partitioning: entity anchors, relationship
/// dominance, and the hash routing they imply. Immutable once built;
/// rebuilt on DDL/REMAP (the mapping spec decides relationship storage,
/// which decides edge dominance).
class CoPartitionMap {
 public:
  static Result<CoPartitionMap> Build(const ERSchema& schema,
                                      const MappingSpec& spec, int shards);

  int shards() const { return shards_; }
  const EntityPlacement* entity(const std::string& name) const;
  const RelationshipPlacement* relationship(const std::string& name) const;
  /// Same anchor — instances with equal routing prefixes co-locate.
  bool CoAnchored(const std::string& a, const std::string& b) const;

  /// Shard of an instance given its routing values (anchor-key prefix).
  int RouteValues(const std::vector<Value>& routing_values) const;
  /// Shard of an instance given its full key (routing prefix is taken).
  Result<int> RouteKey(const std::string& entity,
                       const IndexKey& full_key) const;
  /// Shard of an instance given its INSERT payload struct.
  Result<int> RouteEntityValue(const std::string& entity,
                               const Value& fields) const;
  /// Shard of an edge: the dominant participant's key routes it.
  Result<int> RouteRelationship(const std::string& rel,
                                const IndexKey& left_key,
                                const IndexKey& right_key) const;

 private:
  int shards_ = 1;
  std::unordered_map<std::string, EntityPlacement> entities_;
  std::unordered_map<std::string, RelationshipPlacement> relationships_;
};

/// Shard of routing values among `shards` shards: the hash routing that
/// CoPartitionMap::RouteValues applies, usable without a map (a cached
/// plan's shard guard re-checks it against new parameter values).
int ShardOfRoutingValues(const std::vector<Value>& routing_values, int shards);

/// Rejects schema/mapping combinations that cannot be partitioned:
/// fused relationship storages (kMaterializedJoin, kFactorized) store
/// both endpoints' segments in one physical structure, but hash routing
/// puts the two endpoints on different shards. OK at shards <= 1.
Status ValidateShardable(const ERSchema& schema, const MappingSpec& spec,
                         int shards);

/// Strictly parsed ERBIUM_SHARDS: rejects 0, negatives, and garbage with
/// a one-time stderr warning and falls back to 1 (never aborts).
int ShardCountFromEnv();

/// Everything the translator needs to compile one statement against a
/// sharded engine: the per-shard databases (index = shard id) and the
/// co-partition map. Owned by the statement runner; rebuilt under the
/// exclusive statement lock whenever any shard database is rebuilt.
struct ShardPlanContext {
  std::vector<MappedDatabase*> dbs;
  const CoPartitionMap* map = nullptr;
};

}  // namespace shard
}  // namespace erbium

#endif  // ERBIUM_SHARD_CO_PARTITION_H_
