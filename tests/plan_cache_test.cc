// Plan-cache tests: statement shapes, LRU + checkout/check-in mechanics,
// and — the part that matters — correctness. A cached SELECT must stay
// correct across every event that rebuilds the physical tables under it
// (REMAP m1→m6, DDL, ATTACH recovery), including while readers hammer
// the cache concurrently with remaps; and a plan rebound to another
// statement of its shape must answer exactly as an uncached compile of
// that statement would, under every mapping and shard count.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/statement_runner.h"
#include "erql/plan_cache.h"
#include "obs/metrics.h"
#include "shard/co_partition.h"

namespace erbium {
namespace erql {
namespace {

uint64_t Hits() {
  return obs::MetricsRegistry::Global().counter("plan_cache.hits").Value();
}
uint64_t Misses() {
  return obs::MetricsRegistry::Global().counter("plan_cache.misses").Value();
}

// ---- Normalization --------------------------------------------------------

TEST(PlanCacheNormalizeTest, CollapsesWhitespaceAndTrailingSemicolon) {
  EXPECT_EQ(PlanCache::NormalizeStatement("SELECT r_id FROM R"),
            PlanCache::NormalizeStatement("  SELECT\t r_id \n FROM  R ; "));
}

TEST(PlanCacheNormalizeTest, QuotedStringsKeepTheirWhitespace) {
  std::string a = PlanCache::NormalizeStatement("SELECT 'a  b' FROM R");
  std::string b = PlanCache::NormalizeStatement("SELECT 'a b' FROM R");
  EXPECT_NE(a, b);
  EXPECT_NE(a.find("'a  b'"), std::string::npos);
}

// ---- Shapes ----------------------------------------------------------------

ShapedStatement MustShape(const std::string& text) {
  Result<ShapedStatement> shaped = PlanCache::Shape(text);
  EXPECT_TRUE(shaped.ok()) << shaped.status().ToString();
  return shaped.ok() ? std::move(shaped).value() : ShapedStatement{};
}

TEST(PlanCacheShapeTest, SameTypeLiteralsShareAShape) {
  ShapedStatement one = MustShape("SELECT r_id FROM R WHERE r_id = 1");
  ShapedStatement two = MustShape("SELECT r_id FROM R WHERE r_id = 2");
  EXPECT_EQ(one.key, two.key);
  EXPECT_EQ(one.key, "SELECT r_id FROM R WHERE r_id = ?i");
  ASSERT_EQ(one.params.size(), 1u);
  ASSERT_EQ(two.params.size(), 1u);
  EXPECT_EQ(one.params[0], Value::Int64(1));
  EXPECT_EQ(two.params[0], Value::Int64(2));
}

TEST(PlanCacheShapeTest, LiteralTypesAndIdentifiersStayInTheKey) {
  std::string as_int = MustShape("SELECT r_id FROM R WHERE r_a3 = 5").key;
  std::string as_float = MustShape("SELECT r_id FROM R WHERE r_a3 = 5.0").key;
  std::string as_string = MustShape("SELECT r_id FROM R WHERE r_a3 = '5'").key;
  EXPECT_NE(as_int, as_float);
  EXPECT_NE(as_int, as_string);
  EXPECT_NE(as_float, as_string);
  // Identifier spelling is echoed in result column names.
  EXPECT_NE(MustShape("SELECT r_id FROM R").key,
            MustShape("SELECT R_ID FROM R").key);
}

TEST(PlanCacheShapeTest, FormattingVariantsShareAShape) {
  EXPECT_EQ(MustShape("SELECT r_id, r_a1 FROM R WHERE r_id < 10").key,
            MustShape("  SELECT r_id,r_a1\n FROM  R WHERE r_id<10 ; ").key);
  // Placeholders take string contents out of the key entirely.
  EXPECT_EQ(MustShape("SELECT 'a  b' FROM R").key,
            MustShape("SELECT 'a b' FROM R").key);
}

TEST(PlanCacheShapeTest, EveryLiteralGetsASlotInOrder) {
  ShapedStatement shaped =
      MustShape("SELECT r_id, 'x' AS tag FROM R WHERE r_a2 > 1.5 LIMIT 3");
  EXPECT_EQ(shaped.key,
            "SELECT r_id , ?s AS tag FROM R WHERE r_a2 > ?f LIMIT ?i");
  ASSERT_EQ(shaped.params.size(), 3u);
  EXPECT_EQ(shaped.params[0], Value::String("x"));
  EXPECT_EQ(shaped.params[1], Value::Float64(1.5));
  EXPECT_EQ(shaped.params[2], Value::Int64(3));
}

TEST(PlanCacheShapeTest, LexErrorsFailTheShape) {
  EXPECT_FALSE(PlanCache::Shape("SELECT 'unterminated FROM R").ok());
}

// ---- Guards ----------------------------------------------------------------

TEST(PlanGuardTest, EqualsPinsOneValueOfOneType) {
  PlanGuard guard;
  guard.slots = {1};
  guard.values = {Value::Int64(7)};
  EXPECT_TRUE(guard.Holds({Value::Int64(0), Value::Int64(7)}));
  EXPECT_FALSE(guard.Holds({Value::Int64(0), Value::Int64(8)}));
  EXPECT_FALSE(guard.Holds({Value::Int64(0), Value::Float64(7)}));
  EXPECT_FALSE(guard.Holds({Value::Int64(7)}));  // slot out of range
}

TEST(PlanGuardTest, RoutesToChecksTheShardNotTheValue) {
  PlanGuard guard;
  guard.kind = PlanGuard::Kind::kRoutesTo;
  guard.slots = {0};
  guard.values = {Value::Int64(1)};
  guard.shards = 4;
  guard.shard = shard::ShardOfRoutingValues({Value::Int64(1)}, 4);
  int same = 0;
  int other = 0;
  for (int64_t k = 1; k <= 64; ++k) {
    bool routes_alike = shard::ShardOfRoutingValues({Value::Int64(k)}, 4) ==
                        guard.shard;
    EXPECT_EQ(guard.Holds({Value::Int64(k)}), routes_alike) << k;
    (routes_alike ? same : other)++;
  }
  // 64 keys land on more than one shard, and on this one more than once.
  EXPECT_GT(same, 1);
  EXPECT_GT(other, 0);
}

// ---- Checkout / check-in mechanics ----------------------------------------

TEST(PlanCacheTest, CheckoutIsExclusive) {
  PlanCache cache(4);
  cache.CheckIn("k", 1, std::make_unique<CompiledQuery>());
  EXPECT_EQ(cache.size(), 1u);
  auto plan = cache.Checkout("k", 1);
  ASSERT_NE(plan, nullptr);
  // The instance left the cache: a concurrent reader of the same
  // statement misses instead of sharing an operator tree.
  EXPECT_EQ(cache.Checkout("k", 1), nullptr);
  cache.CheckIn("k", 1, std::move(plan));
  EXPECT_NE(cache.Checkout("k", 1), nullptr);
}

TEST(PlanCacheTest, PerKeyPoolDeepensUpToLimit) {
  PlanCache cache(4);
  for (size_t i = 0; i < PlanCache::kPlansPerKey + 3; ++i) {
    cache.CheckIn("k", 1, std::make_unique<CompiledQuery>());
  }
  size_t got = 0;
  while (cache.Checkout("k", 1) != nullptr) ++got;
  EXPECT_EQ(got, PlanCache::kPlansPerKey);
}

TEST(PlanCacheTest, LruEvictsTheColdestKey) {
  PlanCache cache(2);
  cache.CheckIn("a", 1, std::make_unique<CompiledQuery>());
  cache.CheckIn("b", 1, std::make_unique<CompiledQuery>());
  // Touch "a" so "b" is the coldest, then insert "c".
  auto a = cache.Checkout("a", 1);
  ASSERT_NE(a, nullptr);
  cache.CheckIn("a", 1, std::move(a));
  cache.CheckIn("c", 1, std::make_unique<CompiledQuery>());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Checkout("b", 1), nullptr);
  EXPECT_NE(cache.Checkout("a", 1), nullptr);
  EXPECT_NE(cache.Checkout("c", 1), nullptr);
}

TEST(PlanCacheTest, StaleGenerationNeverServes) {
  PlanCache cache(4);
  cache.CheckIn("k", 1, std::make_unique<CompiledQuery>());
  EXPECT_EQ(cache.Checkout("k", 2), nullptr);  // purged on sight
  EXPECT_EQ(cache.size(), 0u);
  // A check-in from a reader that raced a generation bump is dropped.
  cache.CheckIn("k", 1, std::make_unique<CompiledQuery>());
  cache.InvalidateBelow(2);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Checkout("k", 1), nullptr);
}

TEST(PlanCacheTest, ZeroIsHandledByOwnerNotCache) {
  // StatementRunner with plan_cache_capacity = 0 simply has no cache.
  api::StatementRunner::Options options;
  options.figure4 = true;
  options.figure4_num_r = 10;
  options.figure4_num_s = 5;
  options.plan_cache_capacity = 0;
  auto runner = api::StatementRunner::Create(std::move(options));
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  EXPECT_EQ((*runner)->plan_cache(), nullptr);
  EXPECT_TRUE((*runner)->Execute("SELECT r_id FROM R WHERE r_id = 1").ok());
}

// ---- Runner integration: correctness across invalidation events -----------

class PlanCacheRunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    api::StatementRunner::Options options;
    options.figure4 = true;
    options.figure4_num_r = 60;
    options.figure4_num_s = 30;
    auto runner = api::StatementRunner::Create(std::move(options));
    ASSERT_TRUE(runner.ok()) << runner.status().ToString();
    runner_ = std::move(runner).value();
  }

  size_t RowCount(const std::string& statement) {
    auto outcome = runner_->Execute(statement);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    return outcome.ok() ? outcome->result.rows.size() : static_cast<size_t>(-1);
  }

  std::unique_ptr<api::StatementRunner> runner_;
};

TEST_F(PlanCacheRunnerTest, RepeatedSelectHitsTheCache) {
  const std::string q = "SELECT r_id, r_a1 FROM R WHERE r_id < 10";
  uint64_t hits_before = Hits();
  size_t first = RowCount(q);
  // Formatting variants share the entry through normalization.
  size_t second = RowCount("  SELECT r_id,  r_a1 FROM R  WHERE r_id < 10 ;");
  size_t third = RowCount(q);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, third);
  EXPECT_GE(Hits(), hits_before + 2);
}

std::string Canonical(api::StatementRunner* runner, const std::string& q) {
  auto outcome = runner->Execute(q);
  if (!outcome.ok()) return "error: " + outcome.status().ToString();
  return outcome->result.ToCanonicalString();
}

std::unique_ptr<api::StatementRunner> Figure4Runner(int shards,
                                                    size_t cache_capacity) {
  api::StatementRunner::Options options;
  options.figure4 = true;
  options.figure4_num_r = 60;
  options.figure4_num_s = 30;
  options.shards = shards;
  options.plan_cache_capacity = cache_capacity;
  auto runner = api::StatementRunner::Create(std::move(options));
  EXPECT_TRUE(runner.ok()) << runner.status().ToString();
  return runner.ok() ? std::move(runner).value() : nullptr;
}

TEST_F(PlanCacheRunnerTest, SameShapeSharesOneEntryWithItsOwnRows) {
  PlanCache* cache = runner_->plan_cache();
  ASSERT_NE(cache, nullptr);
  auto first = runner_->Execute("SELECT r_id, r_a1 FROM R WHERE r_id = 3");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  size_t entries = cache->size();
  uint64_t hits_before = Hits();
  auto second = runner_->Execute("SELECT r_id, r_a1 FROM R WHERE r_id = 7");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(cache->size(), entries);  // no new entry for the new literal
  EXPECT_EQ(Hits(), hits_before + 1);
  ASSERT_EQ(first->result.rows.size(), 1u);
  ASSERT_EQ(second->result.rows.size(), 1u);
  EXPECT_EQ(first->result.rows[0][0], Value::Int64(3));
  EXPECT_EQ(second->result.rows[0][0], Value::Int64(7));
}

TEST_F(PlanCacheRunnerTest, IntAndStringLiteralsDoNotShareAnEntry) {
  PlanCache* cache = runner_->plan_cache();
  ASSERT_NE(cache, nullptr);
  size_t entries = cache->size();
  auto as_int = runner_->Execute("SELECT r_id, 5 AS c FROM R WHERE r_id = 2");
  auto as_string =
      runner_->Execute("SELECT r_id, '5' AS c FROM R WHERE r_id = 2");
  ASSERT_TRUE(as_int.ok()) << as_int.status().ToString();
  ASSERT_TRUE(as_string.ok()) << as_string.status().ToString();
  EXPECT_EQ(cache->size(), entries + 2);
  ASSERT_EQ(as_int->result.rows.size(), 1u);
  ASSERT_EQ(as_string->result.rows.size(), 1u);
  EXPECT_EQ(as_int->result.rows[0][1], Value::Int64(5));
  EXPECT_EQ(as_string->result.rows[0][1], Value::String("5"));
}

TEST(PlanCacheGuardTest, StructuralLiteralsAreGuarded) {
  // Each pair shares a shape, but the second statement's literal changes
  // the plan's structure, not just a value it reads: it must miss and
  // compile its own plan, and each must match an uncached compile.
  const std::pair<const char*, const char*> kPairs[] = {
      {"SELECT r_id FROM R WHERE r_a1 > -5 AND r_id < 20",
       "SELECT r_id FROM R WHERE r_a1 > -500000 AND r_id < 20"},
      {"SELECT r_id FROM R WHERE r_id IN (1, 2, 3)",
       "SELECT r_id FROM R WHERE r_id IN (4, 5, 6)"},
      {"SELECT r_id, [1, 2] AS a FROM R WHERE r_id = 4",
       "SELECT r_id, [8, 9] AS a FROM R WHERE r_id = 4"},
      {"SELECT r_id FROM R WHERE r_id < 30 ORDER BY r_id LIMIT 3",
       "SELECT r_id FROM R WHERE r_id < 30 ORDER BY r_id LIMIT 5"},
      // Explicit GROUP BY matches select items by printed form: the
      // second statement is an analysis error, never a rebound hit.
      {"SELECT r_a4 + 1 AS g, count(*) AS n FROM R GROUP BY r_a4 + 1",
       "SELECT r_a4 + 1 AS g, count(*) AS n FROM R GROUP BY r_a4 + 2"},
  };
  std::unique_ptr<api::StatementRunner> cached = Figure4Runner(1, 1024);
  std::unique_ptr<api::StatementRunner> uncached = Figure4Runner(1, 0);
  ASSERT_NE(cached, nullptr);
  ASSERT_NE(uncached, nullptr);
  for (const auto& [first, second] : kPairs) {
    SCOPED_TRACE(second);
    ASSERT_EQ(MustShape(first).key, MustShape(second).key);
    EXPECT_EQ(Canonical(cached.get(), first), Canonical(uncached.get(), first));
    uint64_t hits = Hits();
    uint64_t misses = Misses();
    EXPECT_EQ(Canonical(cached.get(), second),
              Canonical(uncached.get(), second));
    // Guarded: the new value misses instead of reusing the plan.
    EXPECT_EQ(Hits(), hits);
    EXPECT_EQ(Misses(), misses + 1);
    // The first statement's plan is still pooled under the shared key.
    hits = Hits();
    EXPECT_EQ(Canonical(cached.get(), first), Canonical(uncached.get(), first));
    EXPECT_EQ(Hits(), hits + 1);
  }
}

// Point reads of every kind the translator pins to a key lookup: plain,
// with a separate-table multi-valued attribute, inherited attributes,
// a weak entity (folded into its owner under some mappings), a
// single-shard aggregate, and a relationship join whose far side is
// pinned (RouteKey on a sharded engine).
const char* const kPointReadShapes[] = {
    "SELECT r_a1 FROM R WHERE r_id = ",
    "SELECT r_id, r_a3, r_mv1 FROM R WHERE r_id = ",
    "SELECT r_id, r1_a1, r3_a1 FROM R3 WHERE r_id = ",
    "SELECT s_id, s1_no, s1_a1 FROM S1 WHERE s1_no = 1 AND s_id = ",
    "SELECT count(*) AS n, max(r_a1) AS m FROM R WHERE r_id = ",
    "SELECT r.r_id, s.s_id, rs_a1 FROM R r JOIN S s ON RS WHERE s.s_id = ",
};

TEST(PlanCacheEquivalenceTest, RebindsMatchUncachedUnderEveryMappingAndShard) {
  for (int shards : {1, 4}) {
    std::unique_ptr<api::StatementRunner> cached = Figure4Runner(shards, 1024);
    std::unique_ptr<api::StatementRunner> uncached = Figure4Runner(shards, 0);
    ASSERT_NE(cached, nullptr);
    ASSERT_NE(uncached, nullptr);
    for (const char* preset : {"m1", "m2", "m3", "m4", "m5", "m6", "m6pg"}) {
      SCOPED_TRACE(std::string("shards=") + std::to_string(shards) + " " +
                   preset);
      std::string remap = std::string("REMAP ") + preset;
      auto a = cached->Execute(remap);
      auto b = uncached->Execute(remap);
      ASSERT_EQ(a.ok(), b.ok());
      // Fused storages cannot be sharded; both engines refuse alike.
      if (!a.ok()) continue;
      uint64_t hits = Hits();
      std::set<int> shards_hit;
      for (const char* shape : kPointReadShapes) {
        // Keys spread over every shard, plus one that matches nothing.
        for (int64_t key : {1, 2, 3, 5, 8, 13, 21, 29, 34, 55, 60, 999}) {
          std::string q = shape + std::to_string(key);
          SCOPED_TRACE(q);
          auto x = cached->Execute(q);
          auto y = uncached->Execute(q);
          ASSERT_TRUE(x.ok()) << x.status().ToString();
          ASSERT_TRUE(y.ok()) << y.status().ToString();
          EXPECT_EQ(x->result.ToCanonicalString(),
                    y->result.ToCanonicalString());
          EXPECT_EQ(x->shard, y->shard);
          if (x->shard >= 0) shards_hit.insert(x->shard);
        }
      }
      // Rebinding, not recompiling, served most of these.
      EXPECT_GT(Hits(), hits + 30);
      if (shards > 1) EXPECT_GE(shards_hit.size(), 2u);
    }
  }
}

TEST_F(PlanCacheRunnerTest, CachedSelectSurvivesRemapM1ToM6) {
  const std::string q = "SELECT r_id, r_a1 FROM R WHERE r_id < 25";
  const size_t expected = RowCount(q);
  uint64_t gen = runner_->mapping_generation();
  for (const char* preset : {"m2", "m3", "m4", "m5", "m6", "m1"}) {
    RowCount(q);  // make sure a plan for the *old* mapping is cached
    ASSERT_TRUE(runner_->Execute(std::string("REMAP ") + preset).ok());
    EXPECT_GT(runner_->mapping_generation(), gen);
    gen = runner_->mapping_generation();
    // The remap dangled every cached plan; this must recompile, not
    // execute a plan bound to freed tables.
    EXPECT_EQ(RowCount(q), expected) << "after REMAP " << preset;
    EXPECT_EQ(RowCount(q), expected) << "cached re-read after " << preset;
  }
}

TEST_F(PlanCacheRunnerTest, DdlInvalidatesCachedPlans) {
  const std::string q = "SELECT r_id FROM R WHERE r_id < 25";
  size_t expected = RowCount(q);
  RowCount(q);  // cached now
  uint64_t gen = runner_->mapping_generation();
  ASSERT_TRUE(
      runner_->Execute("CREATE ENTITY Widget (w_id INT KEY, w_name STRING)")
          .ok());
  EXPECT_GT(runner_->mapping_generation(), gen);
  EXPECT_EQ(RowCount(q), expected);
  ASSERT_TRUE(runner_->Execute("INSERT Widget (w_id = 1, w_name = 'x')").ok());
  EXPECT_EQ(RowCount("SELECT w_id FROM Widget"), 1u);
}

TEST_F(PlanCacheRunnerTest, AttachInvalidatesCachedPlans) {
  const std::string q = "SELECT r_id FROM R WHERE r_id < 25";
  size_t expected = RowCount(q);
  RowCount(q);  // cached against the in-memory database
  uint64_t gen = runner_->mapping_generation();
  std::string dir = ::testing::TempDir() + "/erbium_plan_cache_attach";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(runner_->Execute("ATTACH DATABASE '" + dir + "'").ok());
  EXPECT_GT(runner_->mapping_generation(), gen);
  // The database object was replaced wholesale; a cached plan would
  // read freed memory. (The attach starts empty of figure4 data only
  // if DDL didn't replay — either way the count must be consistent
  // with a fresh compile.)
  EXPECT_EQ(RowCount(q), RowCount(q));
  (void)expected;
}

TEST_F(PlanCacheRunnerTest, InsertIsVisibleThroughACachedPlan) {
  const std::string q = "SELECT r_id FROM R WHERE r_id >= 90000";
  EXPECT_EQ(RowCount(q), 0u);
  ASSERT_TRUE(
      runner_
          ->Execute(
              "INSERT R (r_id = 90001, r_a1 = 7, r_a2 = 0.5, r_a3 = 'n', "
              "r_a4 = 2)")
          .ok());
  // Same generation — the cached plan is reused, and re-opening it must
  // observe the new row (plans bind tables, not snapshots).
  EXPECT_EQ(RowCount(q), 1u);
}

// ---- Parallel plans: rebinding after an early stop -------------------------

/// Sets an environment variable for the scope, restoring the old value.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_ = false;
  std::string old_;
};

TEST(PlanCacheParallelTest, RebindWaitsForProducersALimitLeftRunning) {
  // Morsel-parallel plans even on this small table. A LIMIT stops
  // reading after its rows while the gather's workers keep filtering;
  // rebinding the plan for the next statement must not race them (the
  // TSan build of this test is the check).
  ScopedEnv threads("ERBIUM_THREADS", "4");
  ScopedEnv threshold("ERBIUM_PARALLEL_THRESHOLD", "0");
  api::StatementRunner::Options options;
  options.figure4 = true;
  options.figure4_num_r = 6000;
  options.figure4_num_s = 30;
  auto runner = api::StatementRunner::Create(std::move(options));
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  uint64_t hits = Hits();
  for (int64_t i = 0; i < 60; ++i) {
    int64_t floor = 1 + i % 7;
    std::string q = "SELECT r_id FROM R WHERE r_id >= " +
                    std::to_string(floor) + " LIMIT 2";
    auto outcome = (*runner)->Execute(q);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_EQ(outcome->result.rows.size(), 2u) << q;
    for (const Row& row : outcome->result.rows) {
      EXPECT_GE(row[0].as_int64(), floor) << q;
    }
  }
  EXPECT_GT(Hits(), hits + 50);
}

// ---- Concurrency: readers hammer the cache while remaps invalidate --------

TEST(PlanCacheHammerTest, ConcurrentReadersSurviveRemapStorm) {
  api::StatementRunner::Options options;
  options.figure4 = true;
  options.figure4_num_r = 40;
  options.figure4_num_s = 20;
  auto created = api::StatementRunner::Create(std::move(options));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  api::StatementRunner* runner = created->get();

  const std::string queries[] = {
      "SELECT r_id, r_a1 FROM R WHERE r_id < 15",
      "SELECT r_id FROM R WHERE r_id < 15",
      "SELECT s_id FROM S WHERE s_id < 9",
  };
  const size_t expected[] = {14, 14, 8};

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      // The periodic sleep matters: glibc's rwlock is reader-preferring,
      // so readers spinning without a gap would starve the REMAP writer
      // forever on a single core. The cap bounds the test regardless.
      for (int i = 0; i < 200'000 && !stop.load(std::memory_order_relaxed);
           ++i) {
        if (i % 16 == 15) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        size_t pick = static_cast<size_t>(t + i) % 3;
        auto outcome = runner->Execute(queries[pick]);
        if (!outcome.ok() ||
            outcome->result.rows.size() != expected[pick]) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (int round = 0; round < 6; ++round) {
    for (const char* preset : {"m2", "m5", "m6", "m3", "m1"}) {
      ASSERT_TRUE(runner->RemapPreset(preset).ok());
    }
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace erql
}  // namespace erbium
