#include "erql/plan_cache.h"

#include <cctype>
#include <utility>

#include "obs/metrics.h"

namespace erbium {
namespace erql {

PlanCache::PlanCache(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      hits_(obs::MetricsRegistry::Global().counter("plan_cache.hits")),
      misses_(obs::MetricsRegistry::Global().counter("plan_cache.misses")),
      evictions_(
          obs::MetricsRegistry::Global().counter("plan_cache.evictions")),
      invalidations_(
          obs::MetricsRegistry::Global().counter("plan_cache.invalidations")),
      entries_(obs::MetricsRegistry::Global().gauge("plan_cache.entries")) {}

PlanCache::~PlanCache() = default;

Result<ShapedStatement> PlanCache::Shape(const std::string& text) {
  ShapedStatement out;
  ERBIUM_ASSIGN_OR_RETURN(out.tokens, Lexer::Tokenize(text));
  // A trailing ';' (shell habit) does not change the statement; the last
  // token is always kEnd.
  size_t end = out.tokens.size() - 1;
  while (end > 0 && out.tokens[end - 1].IsSymbol(";")) --end;
  out.key.reserve(text.size());
  for (size_t i = 0; i < end; ++i) {
    Token& token = out.tokens[i];
    if (i > 0) out.key.push_back(' ');
    const char* placeholder = nullptr;
    switch (token.kind) {
      case TokenKind::kInteger:
        out.params.push_back(Value::Int64(token.int_value));
        placeholder = "?i";
        break;
      case TokenKind::kFloat:
        out.params.push_back(Value::Float64(token.float_value));
        placeholder = "?f";
        break;
      case TokenKind::kString:
        out.params.push_back(Value::String(token.text));
        placeholder = "?s";
        break;
      default:
        out.key += token.text;
        continue;
    }
    token.param = static_cast<int>(out.params.size()) - 1;
    out.key += placeholder;
  }
  return out;
}

std::string PlanCache::NormalizeStatement(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  bool in_string = false;
  bool pending_space = false;
  for (char c : text) {
    if (in_string) {
      out.push_back(c);
      if (c == '\'') in_string = false;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out.push_back(' ');
      pending_space = false;
    }
    out.push_back(c);
    if (c == '\'') in_string = true;
  }
  // A trailing ';' (shell habit) does not change the statement.
  while (!out.empty() && (out.back() == ';' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

namespace {

bool GuardsHold(const CompiledQuery& plan, const std::vector<Value>& params) {
  for (const PlanGuard& guard : plan.guards) {
    if (!guard.Holds(params)) return false;
  }
  return true;
}

}  // namespace

std::unique_ptr<CompiledQuery> PlanCache::Checkout(
    const std::string& key, uint64_t generation,
    const std::vector<Value>* params) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    lock.unlock();
    misses_.Increment();
    return nullptr;
  }
  LruList::iterator entry = it->second;
  if (entry->generation != generation) {
    // A stale survivor (its tables are gone); purge instead of serving.
    EraseLocked(entry);
    size_t entries = lru_.size();
    lock.unlock();
    evictions_.Increment();
    misses_.Increment();
    entries_.Set(static_cast<int64_t>(entries));
    return nullptr;
  }
  // Newest first. A miss here means every instance is checked out right
  // now, or none was compiled for values that pass its guards.
  std::vector<std::unique_ptr<CompiledQuery>>& plans = entry->plans;
  for (size_t i = plans.size(); i-- > 0;) {
    if (params != nullptr && !GuardsHold(*plans[i], *params)) continue;
    std::unique_ptr<CompiledQuery> plan = std::move(plans[i]);
    plans.erase(plans.begin() + static_cast<std::ptrdiff_t>(i));
    // Touch: move to the front of the LRU list.
    lru_.splice(lru_.begin(), lru_, entry);
    lock.unlock();
    hits_.Increment();
    return plan;
  }
  lock.unlock();
  misses_.Increment();
  return nullptr;
}

void PlanCache::CheckIn(const std::string& key, uint64_t generation,
                        std::unique_ptr<CompiledQuery> plan) {
  if (plan == nullptr) return;
  std::unique_lock<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    LruList::iterator entry = it->second;
    if (entry->generation != generation) {
      // The mapping changed while this plan ran (cannot actually happen
      // under the statement lock, but stay safe): drop both.
      EraseLocked(entry);
      size_t entries = lru_.size();
      lock.unlock();
      evictions_.Increment();
      entries_.Set(static_cast<int64_t>(entries));
      return;
    }
    // A full pool makes room by dropping its oldest instance, so plans
    // for guard values no longer in use age out.
    if (entry->plans.size() >= kPlansPerKey) {
      entry->plans.erase(entry->plans.begin());
    }
    entry->plans.push_back(std::move(plan));
    lru_.splice(lru_.begin(), lru_, entry);
    return;
  }
  // New key: evict from the cold end until there is room.
  size_t evicted = 0;
  while (lru_.size() >= capacity_) {
    EraseLocked(std::prev(lru_.end()));
    ++evicted;
  }
  Entry entry;
  entry.key = key;
  entry.generation = generation;
  entry.plans.push_back(std::move(plan));
  lru_.push_front(std::move(entry));
  index_[key] = lru_.begin();
  size_t entries = lru_.size();
  lock.unlock();
  if (evicted > 0) evictions_.Increment(evicted);
  entries_.Set(static_cast<int64_t>(entries));
}

void PlanCache::InvalidateBelow(uint64_t generation) {
  std::unique_lock<std::mutex> lock(mu_);
  size_t purged = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->generation < generation) {
      auto next = std::next(it);
      EraseLocked(it);
      it = next;
      ++purged;
    } else {
      ++it;
    }
  }
  size_t entries = lru_.size();
  lock.unlock();
  if (purged > 0) invalidations_.Increment(purged);
  entries_.Set(static_cast<int64_t>(entries));
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

void PlanCache::EraseLocked(LruList::iterator it) {
  index_.erase(it->key);
  lru_.erase(it);
}

}  // namespace erql
}  // namespace erbium
