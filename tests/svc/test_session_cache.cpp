#include "svc/session_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace tfc::svc {
namespace {

SessionKey key_for(const std::string& chip, double limit = 85.0) {
  SessionKey k;
  k.chip = chip;
  k.theta_limit_celsius = limit;
  return k;
}

/// A builder that fabricates an empty Session and counts invocations.
struct CountingBuilder {
  std::atomic<int> builds{0};

  SessionCache::Builder fn() {
    return [this](const SessionKey& k) {
      builds.fetch_add(1);
      auto s = std::make_shared<Session>();
      s->key = k;
      return std::shared_ptr<const Session>(s);
    };
  }
};

TEST(SessionCache, KeyStringDistinguishesInputs) {
  EXPECT_NE(key_for("alpha", 85.0).to_string(), key_for("alpha", 86.0).to_string());
  EXPECT_NE(key_for("alpha").to_string(), key_for("hc1").to_string());
  EXPECT_EQ(key_for("alpha").to_string(), key_for("alpha").to_string());
}

TEST(SessionCache, RepeatLookupIsAHit) {
  SessionCache cache(4);
  CountingBuilder builder;
  const auto h0 = cache.hits();
  const auto m0 = cache.misses();

  auto a = cache.get_or_build(key_for("alpha"), builder.fn());
  auto b = cache.get_or_build(key_for("alpha"), builder.fn());
  EXPECT_EQ(builder.builds.load(), 1);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.hits() - h0, 1u);
  EXPECT_EQ(cache.misses() - m0, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SessionCache, EvictsLeastRecentlyUsed) {
  SessionCache cache(2);
  CountingBuilder builder;
  const auto e0 = cache.evictions();

  (void)cache.get_or_build(key_for("alpha"), builder.fn());  // [alpha]
  (void)cache.get_or_build(key_for("hc1"), builder.fn());    // [hc1, alpha]
  (void)cache.get_or_build(key_for("alpha"), builder.fn());  // hit → [alpha, hc1]
  (void)cache.get_or_build(key_for("hc2"), builder.fn());    // evicts hc1
  EXPECT_EQ(cache.evictions() - e0, 1u);
  EXPECT_EQ(cache.size(), 2u);

  // hc1 was evicted: a re-request rebuilds; alpha is still cached.
  const int builds_before = builder.builds.load();
  (void)cache.get_or_build(key_for("alpha"), builder.fn());
  EXPECT_EQ(builder.builds.load(), builds_before);
  (void)cache.get_or_build(key_for("hc1"), builder.fn());
  EXPECT_EQ(builder.builds.load(), builds_before + 1);
}

TEST(SessionCache, ZeroCapacityAlwaysBuilds) {
  SessionCache cache(0);
  CountingBuilder builder;
  (void)cache.get_or_build(key_for("alpha"), builder.fn());
  (void)cache.get_or_build(key_for("alpha"), builder.fn());
  EXPECT_EQ(builder.builds.load(), 2);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SessionCache, FailedBuildPropagatesAndRetries) {
  SessionCache cache(4);
  int calls = 0;
  auto failing_then_ok = [&](const SessionKey& k) -> std::shared_ptr<const Session> {
    if (++calls == 1) throw std::runtime_error("transient failure");
    auto s = std::make_shared<Session>();
    s->key = k;
    return s;
  };
  EXPECT_THROW((void)cache.get_or_build(key_for("alpha"), failing_then_ok),
               std::runtime_error);
  // The poisoned entry was dropped; the next lookup rebuilds successfully.
  auto s = cache.get_or_build(key_for("alpha"), failing_then_ok);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(calls, 2);
}

TEST(SessionCache, FailedBuildEvictsNothing) {
  // At capacity, a build that throws must not cost the live session its
  // slot: only a built session makes room.
  SessionCache cache(1);
  CountingBuilder builder;
  (void)cache.get_or_build(key_for("alpha"), builder.fn());
  const auto e0 = cache.evictions();
  const auto throwing = [](const SessionKey&) -> std::shared_ptr<const Session> {
    throw std::invalid_argument("passive model not solvable");
  };
  EXPECT_THROW((void)cache.get_or_build(key_for("hc1"), throwing), std::invalid_argument);
  EXPECT_EQ(cache.evictions(), e0);
  EXPECT_EQ(cache.size(), 1u);

  bool hit = false;
  (void)cache.get_or_build(key_for("alpha"), builder.fn(), &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(builder.builds.load(), 1);
  EXPECT_EQ(cache.evictions(), e0);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SessionCache, ConcurrentRequestsBuildOnce) {
  SessionCache cache(4);
  CountingBuilder builder;
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const Session>> results(8);
  for (std::size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back([&, t] {
      results[t] = cache.get_or_build(key_for("alpha"), builder.fn());
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(builder.builds.load(), 1);
  for (const auto& r : results) EXPECT_EQ(r.get(), results[0].get());
}

}  // namespace
}  // namespace tfc::svc
