#include "svc/session_cache.h"

#include <sstream>

#include "obs/obs.h"

namespace tfc::svc {

namespace {

obs::Counter& hit_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("svc.cache.hits");
  return c;
}

obs::Counter& miss_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("svc.cache.misses");
  return c;
}

obs::Counter& eviction_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("svc.cache.evictions");
  return c;
}

}  // namespace

std::string SessionKey::to_string() const {
  std::ostringstream out;
  out.precision(10);
  out << chip << "|limit=" << theta_limit_celsius << "|grid=" << tile_rows << "x"
      << tile_cols << "|pkg=" << package;
  return out.str();
}

SessionCache::SessionCache(std::size_t capacity) : capacity_(capacity) {
  // Touch all three counters up front so an exported metrics document has a
  // stable schema even before the first request.
  hit_counter();
  miss_counter();
  eviction_counter();
}

std::shared_ptr<const Session> SessionCache::get_or_build(const SessionKey& key,
                                                          const Builder& build,
                                                          bool* cache_hit) {
  const std::string skey = key.to_string();
  if (cache_hit != nullptr) *cache_hit = false;

  if (capacity_ == 0) {
    miss_counter().increment();
    return build(key);
  }

  std::shared_future<std::shared_ptr<const Session>> future;
  std::optional<std::promise<std::shared_ptr<const Session>>> to_fulfill;
  std::uint64_t inserted_id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = index_.find(skey); it != index_.end()) {
      hit_counter().increment();
      if (cache_hit != nullptr) *cache_hit = true;
      // Move to the front (most recently used).
      lru_.splice(lru_.begin(), lru_, it->second);
      future = it->second->session;
    } else {
      miss_counter().increment();
      to_fulfill.emplace();
      future = to_fulfill->get_future().share();
      inserted_id = ++next_id_;
      lru_.push_front(Entry{skey, inserted_id, future});
      index_[skey] = lru_.begin();
    }
  }

  if (!to_fulfill) return future.get();  // hit (may block on an in-flight build)

  // Miss: build outside the lock, publish to every waiter. Only a built
  // session makes room in the cache; a failed build drops its own
  // placeholder (so the next request retries) and evicts nothing.
  std::shared_ptr<const Session> session;
  try {
    session = build(key);
  } catch (...) {
    to_fulfill->set_exception(std::current_exception());
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = index_.find(skey); it != index_.end() && it->second->id == inserted_id) {
      lru_.erase(it->second);
      index_.erase(it);
    }
    throw;
  }
  to_fulfill->set_value(session);
  std::lock_guard<std::mutex> lock(mutex_);
  while (lru_.size() > capacity_) {
    eviction_counter().increment();
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
  return session;
}

std::size_t SessionCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

std::uint64_t SessionCache::hits() const { return hit_counter().value(); }
std::uint64_t SessionCache::misses() const { return miss_counter().value(); }
std::uint64_t SessionCache::evictions() const { return eviction_counter().value(); }

}  // namespace tfc::svc
