/// \file session_cache.h
/// \brief LRU cache of solver sessions keyed by (floorplan, package,
/// deployment-determining inputs).
///
/// The expensive part of every service query is identical across repeats:
/// synthesize the worst-case power map, run GreedyDeploy, assemble the
/// ElectroThermalSystem, and analyze its Cholesky pattern. A *session*
/// bundles all of that for one (chip, package, θ-limit) triple — the
/// deployment, and with it the package stamping and the symbolic analysis
/// held inside ElectroThermalSystem, are pure functions of that key — so a
/// repeat `solve`/`sweep`/`runaway` only pays a numeric refactorization.
///
/// Concurrency: the first requester of a key builds the session *outside*
/// the cache lock while later requesters of the same key block on a shared
/// future (no duplicate builds, no lock held across a multi-second design
/// run). Eviction is strict LRU over completed and in-flight entries alike.
/// Hit/miss/eviction counts feed the `svc.cache.*` counters in
/// tfc::obs::MetricsRegistry.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "core/chip.h"

namespace tfc::svc {

/// Everything that determines a session's deployment and matrices.
struct SessionKey {
  std::string chip;  ///< "alpha", "hc<N>", or a StackSpec's name
  double theta_limit_celsius = 85.0;
  std::size_t tile_rows = 12;
  std::size_t tile_cols = 12;
  /// Content hash of the full package description (io::spec_content_hash of
  /// the session's StackSpec; the default single-die package's hash on the
  /// built-in chip path). Two sessions share a cache entry — and with it a
  /// factorization — only when their packages are identical.
  std::string package;

  /// Canonical string form — the cache's map key and the log label.
  std::string to_string() const;

  friend bool operator==(const SessionKey&, const SessionKey&) = default;
};

/// A fully prepared solver session for one key.
struct Session {
  SessionKey key;
  /// "name@hash" spec identity for logs and the flight recorder; "" for
  /// built-in chips.
  std::string spec_id;
  /// The designed chip and the solve engine over its deployment (shared
  /// symbolic Cholesky analysis, pooled solve workspaces, cached λ_m), so
  /// solves at any current are numeric-only and allocation-free.
  core::Session solver;
  /// Test-only fault injection (`inject` method behind --fault-injection):
  /// a uniform perturbation [K] the server adds to this session's solved θ
  /// before auditing/cross-checking, simulating a corrupted cached factor.
  /// Atomic + mutable because sessions are shared as shared_ptr<const>.
  mutable std::atomic<double> fault_theta_offset_k{0.0};
};

/// Thread-safe LRU cache of sessions.
class SessionCache {
 public:
  using Builder = std::function<std::shared_ptr<const Session>(const SessionKey&)>;

  /// \p capacity 0 disables caching (every lookup is a miss that builds).
  explicit SessionCache(std::size_t capacity);

  /// Return the session for \p key, building it via \p build on a miss.
  /// The least recently used sessions are evicted only once the build has
  /// succeeded (while builds are in flight the cache may briefly hold more
  /// than capacity() entries). Build failures propagate to every waiter of
  /// that key and drop only that key's entry, so a later request can retry
  /// and no cached session is lost. When \p cache_hit is non-null it is set
  /// to whether the key was already present (joining an in-flight build of
  /// the same key counts as a hit).
  std::shared_ptr<const Session> get_or_build(const SessionKey& key,
                                              const Builder& build,
                                              bool* cache_hit = nullptr);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;

 private:
  struct Entry {
    std::string key;
    /// Distinguishes this insertion from any later re-insertion under the
    /// same key (a failed build must only drop its own entry).
    std::uint64_t id = 0;
    std::shared_future<std::shared_ptr<const Session>> session;
  };

  std::size_t capacity_;
  std::uint64_t next_id_ = 0;
  mutable std::mutex mutex_;
  /// Most-recently-used at the front.
  std::list<Entry> lru_;
  std::map<std::string, std::list<Entry>::iterator> index_;
};

}  // namespace tfc::svc
