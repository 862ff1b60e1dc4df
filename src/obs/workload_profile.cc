#include "obs/workload_profile.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <utility>

#include "common/lexer.h"
#include "common/string_util.h"

namespace erbium {
namespace obs {

namespace {

/// Kinds that executed a plan against live data; everything else (SHOW,
/// EXPORT/LOAD WORKLOAD, ADVISE, CHECKPOINT, failed parses) observes the
/// system rather than participating in the workload.
bool IsProfiledKind(const std::string& kind) {
  return kind == "select" || kind == "explain_analyze" || kind == "trace";
}

void AppendField(std::string* out, const char* name, uint64_t value,
                 bool* first) {
  if (!*first) *out += ",";
  *first = false;
  *out += "\"";
  *out += name;
  *out += "\":";
  *out += std::to_string(value);
}

/// Strict parser for the snapshot JSON written by WorkloadSnapshot::ToJson.
/// Deliberately schema-aware rather than generic: LOAD WORKLOAD should
/// reject anything EXPORT WORKLOAD could not have produced. (tests use
/// tests/mini_json.h; that header is test-only, so the loader carries its
/// own ~100 lines.)
class SnapshotParser {
 public:
  explicit SnapshotParser(const std::string& text) : s_(text) {}

  Status Parse(WorkloadSnapshot* out) {
    SkipWs();
    ERBIUM_RETURN_NOT_OK(Expect('{'));
    uint64_t version = 0;
    ERBIUM_RETURN_NOT_OK(Key("version"));
    ERBIUM_RETURN_NOT_OK(Uint(&version));
    if (version != 1) {
      return Status::InvalidArgument("unsupported workload snapshot version " +
                                     std::to_string(version));
    }
    ERBIUM_RETURN_NOT_OK(Expect(','));
    ERBIUM_RETURN_NOT_OK(Key("statements"));
    ERBIUM_RETURN_NOT_OK(Uint(&out->statements));
    ERBIUM_RETURN_NOT_OK(Expect(','));
    ERBIUM_RETURN_NOT_OK(Key("entities"));
    ERBIUM_RETURN_NOT_OK(ParseMap(&out->entities, [this](EntityAccess* e) {
      return Fields({{"scans", &e->scans},
                     {"probes", &e->probes},
                     {"join_sides", &e->join_sides},
                     {"inserts", &e->inserts},
                     {"deletes", &e->deletes},
                     {"updates", &e->updates}});
    }));
    ERBIUM_RETURN_NOT_OK(Expect(','));
    ERBIUM_RETURN_NOT_OK(Key("relationships"));
    ERBIUM_RETURN_NOT_OK(
        ParseMap(&out->relationships, [this](RelationshipAccess* r) {
          return Fields({{"joins", &r->joins},
                         {"fused_scans", &r->fused_scans},
                         {"inserts", &r->inserts},
                         {"deletes", &r->deletes}});
        }));
    ERBIUM_RETURN_NOT_OK(Expect(','));
    ERBIUM_RETURN_NOT_OK(Key("attributes"));
    ERBIUM_RETURN_NOT_OK(
        ParseMap(&out->attributes, [this](AttributeAccess* a) {
          return Fields({{"predicates", &a->predicates},
                         {"projections", &a->projections}});
        }));
    ERBIUM_RETURN_NOT_OK(Expect(','));
    ERBIUM_RETURN_NOT_OK(Key("shapes"));
    ERBIUM_RETURN_NOT_OK(ParseShapes(&out->shapes));
    ERBIUM_RETURN_NOT_OK(Expect('}'));
    SkipWs();
    if (pos_ != s_.size()) return Error("trailing input");
    return Status::OK();
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("workload snapshot: " + message +
                                   " at offset " + std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  Status Expect(char c) {
    SkipWs();
    if (pos_ >= s_.size() || s_[pos_] != c) {
      return Error(std::string("expected '") + c + "'");
    }
    ++pos_;
    return Status::OK();
  }

  /// "name": — consumes the quoted key and the colon.
  Status Key(const char* name) {
    std::string key;
    ERBIUM_RETURN_NOT_OK(String(&key));
    if (key != name) {
      return Error("expected key \"" + std::string(name) + "\", got \"" + key +
                   "\"");
    }
    return Expect(':');
  }

  Status String(std::string* out) {
    SkipWs();
    if (pos_ >= s_.size() || s_[pos_] != '"') return Error("expected string");
    ++pos_;
    out->clear();
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= s_.size()) return Error("dangling escape");
      char e = s_[pos_++];
      switch (e) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'n': *out += '\n'; break;
        case 't': *out += '\t'; break;
        case 'r': *out += '\r'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return Error("short \\u escape");
          unsigned value = 0;
          for (int i = 0; i < 4; ++i) {
            char h = s_[pos_++];
            value <<= 4;
            if (h >= '0' && h <= '9') {
              value += h - '0';
            } else if (h >= 'a' && h <= 'f') {
              value += h - 'a' + 10;
            } else if (h >= 'A' && h <= 'F') {
              value += h - 'A' + 10;
            } else {
              return Error("bad \\u escape");
            }
          }
          // JsonEscaped only emits \u for control characters (< 0x20).
          *out += static_cast<char>(value & 0x7f);
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  Status Uint(uint64_t* out) {
    SkipWs();
    size_t start = pos_;
    uint64_t value = 0;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') {
      value = value * 10 + static_cast<uint64_t>(s_[pos_] - '0');
      ++pos_;
    }
    if (pos_ == start) return Error("expected number");
    *out = value;
    return Status::OK();
  }

  /// {"field": n, ...} with the exact field set, in order.
  Status Fields(
      std::initializer_list<std::pair<const char*, uint64_t*>> fields) {
    ERBIUM_RETURN_NOT_OK(Expect('{'));
    bool first = true;
    for (const auto& [name, slot] : fields) {
      if (!first) ERBIUM_RETURN_NOT_OK(Expect(','));
      first = false;
      ERBIUM_RETURN_NOT_OK(Key(name));
      ERBIUM_RETURN_NOT_OK(Uint(slot));
    }
    return Expect('}');
  }

  template <typename T, typename ParseValue>
  Status ParseMap(std::map<std::string, T>* out, ParseValue parse_value) {
    ERBIUM_RETURN_NOT_OK(Expect('{'));
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      std::string name;
      ERBIUM_RETURN_NOT_OK(String(&name));
      ERBIUM_RETURN_NOT_OK(Expect(':'));
      T value;
      ERBIUM_RETURN_NOT_OK(parse_value(&value));
      if (!out->emplace(std::move(name), std::move(value)).second) {
        return Error("duplicate key");
      }
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return Expect('}');
    }
  }

  Status ParseShapes(std::vector<WorkloadSnapshot::Shape>* out) {
    ERBIUM_RETURN_NOT_OK(Expect('['));
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      WorkloadSnapshot::Shape shape;
      ERBIUM_RETURN_NOT_OK(Expect('{'));
      ERBIUM_RETURN_NOT_OK(Key("shape"));
      ERBIUM_RETURN_NOT_OK(String(&shape.shape));
      ERBIUM_RETURN_NOT_OK(Expect(','));
      ERBIUM_RETURN_NOT_OK(Key("sample"));
      ERBIUM_RETURN_NOT_OK(String(&shape.sample));
      ERBIUM_RETURN_NOT_OK(Expect(','));
      ERBIUM_RETURN_NOT_OK(Key("kind"));
      ERBIUM_RETURN_NOT_OK(String(&shape.kind));
      ERBIUM_RETURN_NOT_OK(Expect(','));
      ERBIUM_RETURN_NOT_OK(Key("count"));
      ERBIUM_RETURN_NOT_OK(Uint(&shape.count));
      ERBIUM_RETURN_NOT_OK(Expect(','));
      ERBIUM_RETURN_NOT_OK(Key("total_wall_ns"));
      ERBIUM_RETURN_NOT_OK(Uint(&shape.total_wall_ns));
      ERBIUM_RETURN_NOT_OK(Expect('}'));
      out->push_back(std::move(shape));
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return Expect(']');
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace

std::string NormalizeShape(const std::string& text) {
  Result<std::vector<Token>> tokens = Lexer::Tokenize(text);
  if (tokens.ok()) return NormalizeShape(*tokens);
  // The parser may still reject this text, but the profiler should not
  // be the component that loses a statement — collapse whitespace and
  // keep it verbatim.
  std::string out;
  bool in_space = true;
  for (char c : text) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!in_space) out += ' ';
      in_space = true;
    } else {
      out += c;
      in_space = false;
    }
  }
  while (!out.empty() && (out.back() == ' ' || out.back() == ';')) {
    out.pop_back();
  }
  return out;
}

std::string NormalizeShape(const std::vector<Token>& tokens) {
  std::string out;
  for (const Token& token : tokens) {
    if (token.kind == TokenKind::kEnd) break;
    std::string piece;
    switch (token.kind) {
      case TokenKind::kIdentifier:
        piece = token.text;
        std::transform(piece.begin(), piece.end(), piece.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        break;
      case TokenKind::kInteger:
      case TokenKind::kFloat:
      case TokenKind::kString:
        piece = "?";
        break;
      case TokenKind::kSymbol:
        piece = token.text;
        break;
      case TokenKind::kEnd:
        break;
    }
    if (!out.empty()) out += ' ';
    out += piece;
  }
  while (!out.empty() &&
         (out.back() == ';' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

std::string WorkloadSnapshot::ToJson() const {
  std::string out = "{\n";
  out += "  \"version\": 1,\n";
  out += "  \"statements\": " + std::to_string(statements) + ",\n";
  out += "  \"entities\": {";
  bool first_item = true;
  for (const auto& [name, e] : entities) {
    out += first_item ? "\n" : ",\n";
    first_item = false;
    out += "    \"" + JsonEscaped(name) + "\": {";
    bool first = true;
    AppendField(&out, "scans", e.scans, &first);
    AppendField(&out, "probes", e.probes, &first);
    AppendField(&out, "join_sides", e.join_sides, &first);
    AppendField(&out, "inserts", e.inserts, &first);
    AppendField(&out, "deletes", e.deletes, &first);
    AppendField(&out, "updates", e.updates, &first);
    out += "}";
  }
  out += entities.empty() ? "},\n" : "\n  },\n";
  out += "  \"relationships\": {";
  first_item = true;
  for (const auto& [name, r] : relationships) {
    out += first_item ? "\n" : ",\n";
    first_item = false;
    out += "    \"" + JsonEscaped(name) + "\": {";
    bool first = true;
    AppendField(&out, "joins", r.joins, &first);
    AppendField(&out, "fused_scans", r.fused_scans, &first);
    AppendField(&out, "inserts", r.inserts, &first);
    AppendField(&out, "deletes", r.deletes, &first);
    out += "}";
  }
  out += relationships.empty() ? "},\n" : "\n  },\n";
  out += "  \"attributes\": {";
  first_item = true;
  for (const auto& [name, a] : attributes) {
    out += first_item ? "\n" : ",\n";
    first_item = false;
    out += "    \"" + JsonEscaped(name) + "\": {";
    bool first = true;
    AppendField(&out, "predicates", a.predicates, &first);
    AppendField(&out, "projections", a.projections, &first);
    out += "}";
  }
  out += attributes.empty() ? "},\n" : "\n  },\n";
  out += "  \"shapes\": [";
  first_item = true;
  for (const Shape& shape : shapes) {
    out += first_item ? "\n" : ",\n";
    first_item = false;
    out += "    {\"shape\":\"" + JsonEscaped(shape.shape) + "\",\"sample\":\"" +
           JsonEscaped(shape.sample) + "\",\"kind\":\"" +
           JsonEscaped(shape.kind) + "\",\"count\":" +
           std::to_string(shape.count) + ",\"total_wall_ns\":" +
           std::to_string(shape.total_wall_ns) + "}";
  }
  out += shapes.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

WorkloadProfile& WorkloadProfile::Global() {
  static WorkloadProfile* profile = new WorkloadProfile();
  return *profile;
}

WorkloadProfile::WorkloadProfile(size_t shape_capacity,
                                 MetricsRegistry* registry)
    : registry_(registry != nullptr ? registry : &MetricsRegistry::Global()),
      shape_capacity_(shape_capacity == 0 ? 1 : shape_capacity) {
  shapes_per_shard_ = (shape_capacity_ + kShards - 1) / kShards;
  if (shapes_per_shard_ == 0) shapes_per_shard_ = 1;
  c_statements_ = registry_->counter("workload.statements");
  g_shapes_ = registry_->gauge("workload.shapes");
}

WorkloadProfile::Shard& WorkloadProfile::ShardFor(const std::string& name) {
  return shards_[std::hash<std::string>{}(name) % kShards];
}

WorkloadProfile::EntityState& WorkloadProfile::EntityStateLocked(
    Shard& shard, const std::string& name) {
  auto it = shard.entities.find(name);
  if (it == shard.entities.end()) {
    it = shard.entities.emplace(name, EntityState{}).first;
    const std::string base = "workload.entity." + name + ".";
    EntityState& state = it->second;
    state.c_scans = registry_->counter(base + "scans");
    state.c_probes = registry_->counter(base + "probes");
    state.c_join_sides = registry_->counter(base + "join_sides");
    state.c_inserts = registry_->counter(base + "inserts");
    state.c_deletes = registry_->counter(base + "deletes");
    state.c_updates = registry_->counter(base + "updates");
  }
  return it->second;
}

WorkloadProfile::RelationshipState& WorkloadProfile::RelationshipStateLocked(
    Shard& shard, const std::string& name) {
  auto it = shard.relationships.find(name);
  if (it == shard.relationships.end()) {
    it = shard.relationships.emplace(name, RelationshipState{}).first;
    const std::string base = "workload.relationship." + name + ".";
    RelationshipState& state = it->second;
    state.c_joins = registry_->counter(base + "joins");
    state.c_fused_scans = registry_->counter(base + "fused_scans");
    state.c_inserts = registry_->counter(base + "inserts");
    state.c_deletes = registry_->counter(base + "deletes");
  }
  return it->second;
}

WorkloadProfile::AttributeState& WorkloadProfile::AttributeStateLocked(
    Shard& shard, const std::string& key) {
  auto it = shard.attributes.find(key);
  if (it == shard.attributes.end()) {
    it = shard.attributes.emplace(key, AttributeState{}).first;
    const std::string base = "workload.attr." + key + ".";
    AttributeState& state = it->second;
    state.c_predicates = registry_->counter(base + "predicates");
    state.c_projections = registry_->counter(base + "projections");
  }
  return it->second;
}

void WorkloadProfile::RecordStatementImpl(const StatementFootprint* footprint,
                                          const std::string& kind,
                                          const std::string& text,
                                          uint64_t wall_ns) {
  if (!IsProfiledKind(kind)) return;
  statements_.fetch_add(1, std::memory_order_relaxed);
  c_statements_.Increment();
  if (footprint != nullptr) {
    for (const StatementFootprint::EntityTouch& touch : footprint->entities) {
      Shard& shard = ShardFor(touch.entity);
      std::lock_guard<std::mutex> lock(shard.mu);
      EntityState& state = EntityStateLocked(shard, touch.entity);
      switch (touch.path) {
        case EntityPath::kScan:
          ++state.counts.scans;
          state.c_scans.Increment();
          break;
        case EntityPath::kProbe:
          ++state.counts.probes;
          state.c_probes.Increment();
          break;
        case EntityPath::kJoinSide:
          ++state.counts.join_sides;
          state.c_join_sides.Increment();
          break;
      }
    }
    for (const StatementFootprint::RelationshipTouch& touch :
         footprint->relationships) {
      Shard& shard = ShardFor(touch.relationship);
      std::lock_guard<std::mutex> lock(shard.mu);
      RelationshipState& state =
          RelationshipStateLocked(shard, touch.relationship);
      if (touch.fused) {
        ++state.counts.fused_scans;
        state.c_fused_scans.Increment();
      } else {
        ++state.counts.joins;
        state.c_joins.Increment();
      }
    }
    for (const StatementFootprint::AttributeTouch& touch :
         footprint->attributes) {
      const std::string key = touch.entity + "." + touch.attribute;
      Shard& shard = ShardFor(key);
      std::lock_guard<std::mutex> lock(shard.mu);
      AttributeState& state = AttributeStateLocked(shard, key);
      if (touch.predicate) {
        ++state.counts.predicates;
        state.c_predicates.Increment();
      } else {
        ++state.counts.projections;
        state.c_projections.Increment();
      }
    }
  }
  // The footprint carries the shape computed at translate time; fall back
  // to normalizing here for statements recorded without a compiled plan.
  const std::string& shape = (footprint != nullptr && !footprint->shape.empty())
                                 ? footprint->shape
                                 : NormalizeShape(text);
  RecordShape(shape, kind, text, wall_ns, 1);
}

void WorkloadProfile::RecordShape(const std::string& shape,
                                  const std::string& kind,
                                  const std::string& sample, uint64_t wall_ns,
                                  uint64_t count) {
  if (shape.empty()) return;
  Shard& shard = ShardFor(shape);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.shapes.find(shape);
  if (it == shard.shapes.end()) {
    if (shard.shapes.size() >= shapes_per_shard_) {
      // Admission-controlled eviction: a newcomer displaces the lightest
      // resident (least accumulated wall time) only by arriving heavier
      // than it, so the heavy hitters the advisor cares about always
      // survive a stream of one-off light shapes.
      auto lightest = shard.shapes.begin();
      for (auto cur = shard.shapes.begin(); cur != shard.shapes.end(); ++cur) {
        if (cur->second.total_wall_ns < lightest->second.total_wall_ns) {
          lightest = cur;
        }
      }
      if (lightest->second.total_wall_ns >= wall_ns) return;
      shard.shapes.erase(lightest);
      g_shapes_.Add(-1);
    }
    it = shard.shapes.emplace(shape, ShapeState{}).first;
    it->second.sample = sample;
    it->second.kind = kind;
    g_shapes_.Add(1);
  }
  it->second.count += count;
  it->second.total_wall_ns += wall_ns;
}

void WorkloadProfile::RecordEntityCrudImpl(const std::string& entity,
                                           CrudKind kind) {
  Shard& shard = ShardFor(entity);
  std::lock_guard<std::mutex> lock(shard.mu);
  EntityState& state = EntityStateLocked(shard, entity);
  switch (kind) {
    case CrudKind::kInsert:
      ++state.counts.inserts;
      state.c_inserts.Increment();
      break;
    case CrudKind::kDelete:
      ++state.counts.deletes;
      state.c_deletes.Increment();
      break;
    case CrudKind::kUpdate:
      ++state.counts.updates;
      state.c_updates.Increment();
      break;
  }
}

void WorkloadProfile::RecordRelationshipCrudImpl(
    const std::string& relationship, CrudKind kind) {
  Shard& shard = ShardFor(relationship);
  std::lock_guard<std::mutex> lock(shard.mu);
  RelationshipState& state = RelationshipStateLocked(shard, relationship);
  switch (kind) {
    case CrudKind::kInsert:
      ++state.counts.inserts;
      state.c_inserts.Increment();
      break;
    case CrudKind::kDelete:
    case CrudKind::kUpdate:  // relationships have no attribute updates
      ++state.counts.deletes;
      state.c_deletes.Increment();
      break;
  }
}

WorkloadSnapshot WorkloadProfile::Snapshot() const {
  WorkloadSnapshot snapshot;
  snapshot.statements = statements_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [name, state] : shard.entities) {
      snapshot.entities.emplace(name, state.counts);
    }
    for (const auto& [name, state] : shard.relationships) {
      snapshot.relationships.emplace(name, state.counts);
    }
    for (const auto& [name, state] : shard.attributes) {
      snapshot.attributes.emplace(name, state.counts);
    }
    for (const auto& [shape, state] : shard.shapes) {
      WorkloadSnapshot::Shape out;
      out.shape = shape;
      out.sample = state.sample;
      out.kind = state.kind;
      out.count = state.count;
      out.total_wall_ns = state.total_wall_ns;
      snapshot.shapes.push_back(std::move(out));
    }
  }
  std::sort(snapshot.shapes.begin(), snapshot.shapes.end(),
            [](const WorkloadSnapshot::Shape& a,
               const WorkloadSnapshot::Shape& b) {
              if (a.total_wall_ns != b.total_wall_ns) {
                return a.total_wall_ns > b.total_wall_ns;
              }
              return a.shape < b.shape;
            });
  return snapshot;
}

void WorkloadProfile::Clear() {
  statements_.store(0, std::memory_order_relaxed);
  int64_t dropped = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    dropped += static_cast<int64_t>(shard.shapes.size());
    shard.entities.clear();
    shard.relationships.clear();
    shard.attributes.clear();
    shard.shapes.clear();
  }
  g_shapes_.Add(-dropped);
}

Status WorkloadProfile::LoadJson(const std::string& json) {
  WorkloadSnapshot snapshot;
  ERBIUM_RETURN_NOT_OK(SnapshotParser(json).Parse(&snapshot));
  if (snapshot.shapes.size() > shape_capacity_) {
    return Status::InvalidArgument(
        "workload snapshot holds " + std::to_string(snapshot.shapes.size()) +
        " shapes, more than this profile's capacity of " +
        std::to_string(shape_capacity_));
  }
  Clear();
  statements_.store(snapshot.statements, std::memory_order_relaxed);
  // Restore counts without disturbing the Prometheus mirror: the mirror
  // counters are monotonic capture-side totals, a restored snapshot is
  // logical profile state.
  for (const auto& [name, counts] : snapshot.entities) {
    Shard& shard = ShardFor(name);
    std::lock_guard<std::mutex> lock(shard.mu);
    EntityStateLocked(shard, name).counts = counts;
  }
  for (const auto& [name, counts] : snapshot.relationships) {
    Shard& shard = ShardFor(name);
    std::lock_guard<std::mutex> lock(shard.mu);
    RelationshipStateLocked(shard, name).counts = counts;
  }
  for (const auto& [name, counts] : snapshot.attributes) {
    Shard& shard = ShardFor(name);
    std::lock_guard<std::mutex> lock(shard.mu);
    AttributeStateLocked(shard, name).counts = counts;
  }
  int64_t added = 0;
  for (const WorkloadSnapshot::Shape& shape : snapshot.shapes) {
    Shard& shard = ShardFor(shape.shape);
    std::lock_guard<std::mutex> lock(shard.mu);
    ShapeState& state = shard.shapes[shape.shape];
    state.sample = shape.sample;
    state.kind = shape.kind;
    state.count = shape.count;
    state.total_wall_ns = shape.total_wall_ns;
    ++added;
  }
  g_shapes_.Add(added);
  return Status::OK();
}

}  // namespace obs
}  // namespace erbium
