#ifndef ERBIUM_ERQL_PLAN_CACHE_H_
#define ERBIUM_ERQL_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/lexer.h"
#include "common/status.h"
#include "erql/translator.h"
#include "obs/metrics.h"

namespace erbium {
namespace erql {

/// One statement tokenized for the plan cache: its shape key, its literal
/// values, and the token stream (literal tokens tagged with their
/// parameter slots) for the parser on a miss.
struct ShapedStatement {
  /// Tokens joined by single spaces with every integer, float, and string
  /// literal replaced by a typed placeholder (?i, ?f, ?s); identifiers
  /// and keywords keep their spelling (result column names echo it); a
  /// trailing ';' drops.
  std::string key;
  /// The replaced literals' values, by slot (left to right).
  std::vector<Value> params;
  std::vector<Token> tokens;
};

/// LRU cache of compiled SELECT plans — the paper's point that the E/R
/// layer is the *stable* abstraction above volatile physical mappings,
/// applied to the hot path: parse→translate is paid once per
/// (statement shape, mapping generation) and reused until the mapping
/// changes underneath it. Statements that differ only in literal values
/// share a shape; each execution rebinds the cached plan's parameter
/// vector to its own values (CompiledQuery::params), and a plan whose
/// structure depends on a literal's value carries guards
/// (CompiledQuery::guards) that Checkout() checks before serving it. The
/// owner (api::StatementRunner) bumps the generation on every DDL /
/// REMAP / ATTACH; entries compiled under an older generation hold
/// dangling Table pointers and are never returned, only purged.
///
/// Operator trees carry cursor state (Open() resets it, but two threads
/// may not drive one tree at once), so entries are *checked out* for the
/// duration of an execution: Checkout() removes a plan instance from the
/// cache, the caller runs it under the shared statement lock, then
/// CheckIn() returns it. A second concurrent reader of the same
/// statement simply misses and compiles fresh; its check-in deepens the
/// per-key pool (up to kPlansPerKey instances), so steady-state
/// concurrency stops missing. Instances of one shape compiled for
/// different guard values (say, single-shard reads routed to different
/// shards) share that pool.
///
/// Thread safety: all methods lock an internal mutex; the cache never
/// executes plans itself. Metrics: plan_cache.hits / .misses /
/// .evictions / .invalidations in the global registry, plus the
/// plan_cache.entries gauge.
class PlanCache {
 public:
  /// Maximum plan instances pooled per key; a check-in past this drops
  /// the key's oldest instance (a plan is cheap to recompile, unbounded
  /// pools are not).
  static constexpr size_t kPlansPerKey = 8;

  explicit PlanCache(size_t capacity = 1024);
  ~PlanCache();

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Tokenizes `text` once into its shape key and parameters (see
  /// ShapedStatement). Fails where the lexer does.
  static Result<ShapedStatement> Shape(const std::string& text);

  /// A literal-significant text key: whitespace runs outside quoted
  /// strings collapse to one space, leading/trailing whitespace and a
  /// trailing ';' drop. For callers that key plans by text and never
  /// rebind them; the engine keys by Shape().
  static std::string NormalizeStatement(const std::string& text);

  /// Removes and returns one plan compiled for `key` under exactly
  /// `generation` whose guards hold for `params`, or nullptr (miss). The
  /// caller rebinds the plan's parameters to `params` before running it.
  /// With `params` null the guards are not consulted: the key itself
  /// fixes every literal (a NormalizeStatement key). A surviving entry
  /// from an older generation is purged on sight and counts as an
  /// eviction.
  std::unique_ptr<CompiledQuery> Checkout(
      const std::string& key, uint64_t generation,
      const std::vector<Value>* params = nullptr);

  /// Returns a plan to the pool for `key`. Dropped silently when the
  /// generation has moved on, or inserting would exceed capacity after
  /// LRU eviction; a full per-key pool drops its oldest instance.
  void CheckIn(const std::string& key, uint64_t generation,
               std::unique_ptr<CompiledQuery> plan);

  /// Purges every entry compiled under a generation < `generation`.
  /// Called by the owner right after a DDL/REMAP/ATTACH rebuild, while
  /// it still holds the exclusive statement lock, so no reader can be
  /// executing a stale plan.
  void InvalidateBelow(uint64_t generation);

  /// Number of keys currently cached.
  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::string key;
    uint64_t generation = 0;
    std::vector<std::unique_ptr<CompiledQuery>> plans;
  };
  using LruList = std::list<Entry>;

  /// Erases an entry (drops its plans); caller holds mu_.
  void EraseLocked(LruList::iterator it);

  const size_t capacity_;
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter evictions_;
  obs::Counter invalidations_;
  obs::Gauge entries_;
  mutable std::mutex mu_;
  /// Most-recently-used at the front.
  LruList lru_;
  std::unordered_map<std::string, LruList::iterator> index_;
};

}  // namespace erql
}  // namespace erbium

#endif  // ERBIUM_ERQL_PLAN_CACHE_H_
