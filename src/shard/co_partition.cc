#include "shard/co_partition.h"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

#include "common/union_find.h"

namespace erbium {
namespace shard {

namespace {

/// FNV-1a over the printed routing values, with a separator byte between
/// values so ("ab","c") and ("a","bc") hash apart. Printed form — not
/// pointer identity or float bits — keeps routing deterministic across
/// restarts, which per-shard WAL recovery depends on.
uint64_t HashRoutingValues(const std::vector<Value>& values) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](unsigned char byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  for (const Value& v : values) {
    for (char c : v.ToString()) mix(static_cast<unsigned char>(c));
    mix(0x1f);
  }
  return h;
}

/// The strong, non-weak root an entity set routes by: follow the ISA
/// chain to the hierarchy root, then a weak set to its owner, repeatedly.
Result<std::string> AnchorOf(const ERSchema& schema, const std::string& name) {
  std::string current = name;
  // Bounded walk — a schema cycle would be a schema bug, not a hang.
  for (int step = 0; step < 64; ++step) {
    ERBIUM_ASSIGN_OR_RETURN(std::string root, schema.HierarchyRoot(current));
    const EntitySetDef* def = schema.FindEntitySet(root);
    if (def == nullptr) {
      return Status::Internal("anchor walk reached unknown entity set " +
                              root);
    }
    if (def->weak && !def->owner.empty()) {
      current = def->owner;
      continue;
    }
    return root;
  }
  return Status::InvalidArgument("anchor derivation did not converge for " +
                                 name + " (ownership cycle?)");
}

}  // namespace

const char* ShardRouteClassName(ShardRouteClass c) {
  switch (c) {
    case ShardRouteClass::kSingleShard:
      return "single-shard";
    case ShardRouteClass::kLocalJoin:
      return "shard-local";
    case ShardRouteClass::kScatterGather:
      return "scatter-gather";
  }
  return "unknown";
}

Result<CoPartitionMap> CoPartitionMap::Build(const ERSchema& schema,
                                             const MappingSpec& spec,
                                             int shards) {
  CoPartitionMap map;
  map.shards_ = shards < 1 ? 1 : shards;

  // Connected components over the same edge set the MVCC lock domains
  // use: ISA parent, weak -> owner, relationship -> both participants.
  UnionFind components;
  for (const std::string& name : schema.EntitySetNames()) {
    const EntitySetDef* def = schema.FindEntitySet(name);
    components.Find(name);
    if (!def->parent.empty()) components.Unite(name, def->parent);
    if (def->weak && !def->owner.empty()) components.Unite(name, def->owner);
  }
  for (const std::string& name : schema.RelationshipSetNames()) {
    const RelationshipSetDef* def = schema.FindRelationshipSet(name);
    components.Unite(name, def->left.entity);
    components.Unite(name, def->right.entity);
  }
  // Stable component ids: sorted roots, so ids don't depend on hash
  // iteration order.
  std::map<std::string, int> component_ids;
  for (const std::string& name : components.Names()) {
    component_ids.emplace(components.Find(name), 0);
  }
  int next_id = 0;
  for (auto& [root, id] : component_ids) id = next_id++;

  for (const std::string& name : schema.EntitySetNames()) {
    EntityPlacement placement;
    ERBIUM_ASSIGN_OR_RETURN(placement.anchor, AnchorOf(schema, name));
    ERBIUM_ASSIGN_OR_RETURN(std::vector<std::string> anchor_key,
                            schema.FullKey(placement.anchor));
    ERBIUM_ASSIGN_OR_RETURN(std::vector<std::string> full_key,
                            schema.FullKey(name));
    if (full_key.size() < anchor_key.size()) {
      return Status::Internal("full key of " + name +
                              " shorter than its anchor's (" +
                              placement.anchor + ")");
    }
    placement.routing_attrs.assign(full_key.begin(),
                                   full_key.begin() + anchor_key.size());
    placement.component = component_ids[components.Find(name)];
    map.entities_.emplace(name, std::move(placement));
  }

  for (const std::string& name : schema.RelationshipSetNames()) {
    const RelationshipSetDef* def = schema.FindRelationshipSet(name);
    RelationshipPlacement placement;
    // Under foreign-key storage the edge is folded into the many side's
    // segment rows, so the many side must route it; join-table edges are
    // free-standing and default to the left participant.
    if (spec.relationship_storage(*def) == RelationshipStorage::kForeignKey) {
      placement.dominant_entity = def->many_side().entity;
      placement.dominant_is_left = &def->many_side() == &def->left;
    } else {
      placement.dominant_entity = def->left.entity;
      placement.dominant_is_left = true;
    }
    placement.component = component_ids[components.Find(name)];
    map.relationships_.emplace(name, std::move(placement));
  }
  return map;
}

const EntityPlacement* CoPartitionMap::entity(const std::string& name) const {
  auto it = entities_.find(name);
  return it == entities_.end() ? nullptr : &it->second;
}

const RelationshipPlacement* CoPartitionMap::relationship(
    const std::string& name) const {
  auto it = relationships_.find(name);
  return it == relationships_.end() ? nullptr : &it->second;
}

bool CoPartitionMap::CoAnchored(const std::string& a,
                                const std::string& b) const {
  const EntityPlacement* pa = entity(a);
  const EntityPlacement* pb = entity(b);
  return pa != nullptr && pb != nullptr && pa->anchor == pb->anchor;
}

int ShardOfRoutingValues(const std::vector<Value>& routing_values,
                         int shards) {
  if (shards <= 1) return 0;
  return static_cast<int>(HashRoutingValues(routing_values) %
                          static_cast<uint64_t>(shards));
}

int CoPartitionMap::RouteValues(
    const std::vector<Value>& routing_values) const {
  return ShardOfRoutingValues(routing_values, shards_);
}

Result<int> CoPartitionMap::RouteKey(const std::string& entity_name,
                                     const IndexKey& full_key) const {
  const EntityPlacement* placement = entity(entity_name);
  if (placement == nullptr) {
    return Status::NotFound("no placement for entity set " + entity_name);
  }
  if (full_key.size() < placement->routing_attrs.size()) {
    return Status::InvalidArgument(
        "key for " + entity_name + " has " +
        std::to_string(full_key.size()) + " values; routing needs " +
        std::to_string(placement->routing_attrs.size()));
  }
  std::vector<Value> routing(full_key.begin(),
                             full_key.begin() + placement->routing_attrs.size());
  return RouteValues(routing);
}

Result<int> CoPartitionMap::RouteEntityValue(const std::string& entity_name,
                                             const Value& fields) const {
  const EntityPlacement* placement = entity(entity_name);
  if (placement == nullptr) {
    return Status::NotFound("no placement for entity set " + entity_name);
  }
  if (fields.kind() != TypeKind::kStruct) {
    return Status::InvalidArgument("entity value for " + entity_name +
                                   " is not a struct");
  }
  std::vector<Value> routing;
  routing.reserve(placement->routing_attrs.size());
  for (const std::string& attr : placement->routing_attrs) {
    const Value* found = nullptr;
    for (const auto& [name, value] : fields.struct_fields()) {
      if (name == attr) {
        found = &value;
        break;
      }
    }
    if (found == nullptr || found->is_null()) {
      return Status::InvalidArgument("entity value for " + entity_name +
                                     " is missing routing attribute " + attr);
    }
    routing.push_back(*found);
  }
  return RouteValues(routing);
}

Result<int> CoPartitionMap::RouteRelationship(const std::string& rel,
                                              const IndexKey& left_key,
                                              const IndexKey& right_key) const {
  const RelationshipPlacement* placement = relationship(rel);
  if (placement == nullptr) {
    return Status::NotFound("no placement for relationship set " + rel);
  }
  return RouteKey(placement->dominant_entity,
                  placement->dominant_is_left ? left_key : right_key);
}

Status ValidateShardable(const ERSchema& schema, const MappingSpec& spec,
                         int shards) {
  if (shards <= 1) return Status::OK();
  for (const std::string& name : schema.RelationshipSetNames()) {
    const RelationshipSetDef* def = schema.FindRelationshipSet(name);
    RelationshipStorage storage = spec.relationship_storage(*def);
    if (storage == RelationshipStorage::kMaterializedJoin ||
        storage == RelationshipStorage::kFactorized) {
      return Status::InvalidArgument(
          "relationship " + name +
          " uses fused storage (materialized join / factorized), which "
          "stores both endpoints together; hash co-partitioning places the "
          "endpoints on different shards — remap it to a join table or "
          "foreign key before sharding");
    }
  }
  return Status::OK();
}

int ShardCountFromEnv() {
  const char* s = std::getenv("ERBIUM_SHARDS");
  if (s == nullptr || *s == '\0') return 1;
  errno = 0;
  char* end = nullptr;
  long parsed = std::strtol(s, &end, 10);
  bool unparseable = end == s || *end != '\0' || errno == ERANGE ||
                     parsed > INT_MAX || parsed < INT_MIN;
  if (unparseable || parsed < 1) {
    static std::once_flag warned;
    std::call_once(warned, [s] {
      std::fprintf(stderr,
                   "erbium: ignoring invalid ERBIUM_SHARDS='%s' (want an "
                   "integer >= 1); running unsharded\n",
                   s);
    });
    return 1;
  }
  return static_cast<int>(parsed);
}

}  // namespace shard
}  // namespace erbium
