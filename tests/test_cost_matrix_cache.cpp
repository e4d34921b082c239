#include "service/cost_matrix_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "deploy/solve.h"
#include "graph/templates.h"

namespace cloudia::service {
namespace {

EnvironmentSpec TinyEnv(uint64_t seed = 7, int instances = 6) {
  EnvironmentSpec spec;
  spec.provider = "ec2";
  spec.instances = instances;
  spec.measure_duration_s = 5.0;
  spec.seed = seed;
  return spec;
}

// A synthetic measurement that skips the simulator: instant, countable, and
// deterministic. Distinct (seed, instances) produce distinct matrices.
Result<MeasuredEnvironment> FakeMeasure(const EnvironmentSpec& spec,
                                        const CancelToken& cancel) {
  if (cancel.Cancelled()) return Status::Cancelled("fake measurement aborted");
  MeasuredEnvironment env;
  env.spec = spec;
  env.instances.resize(static_cast<size_t>(spec.instances));
  for (int i = 0; i < spec.instances; ++i) {
    env.instances[static_cast<size_t>(i)].id = i;
  }
  env.costs = deploy::CostMatrix(spec.instances,
                                 1.0 + static_cast<double>(spec.seed));
  for (int i = 0; i < spec.instances; ++i) env.costs.At(i, i) = 0.0;
  env.measure_virtual_s = spec.measure_duration_s;
  return env;
}

TEST(CostMatrixCacheTest, KeyCoversEveryField) {
  EnvironmentSpec a = TinyEnv();
  EnvironmentSpec b = a;
  EXPECT_EQ(a.Key(), b.Key());
  b.seed = 8;
  EXPECT_NE(a.Key(), b.Key());
  b = a;
  b.provider = "gce";
  EXPECT_NE(a.Key(), b.Key());
  b = a;
  b.instances = 7;
  EXPECT_NE(a.Key(), b.Key());
  b = a;
  b.protocol = measure::Protocol::kTokenPassing;
  EXPECT_NE(a.Key(), b.Key());
  b = a;
  b.metric = measure::CostMetric::kP99;
  EXPECT_NE(a.Key(), b.Key());
  b = a;
  b.measure_duration_s = 6.0;
  EXPECT_NE(a.Key(), b.Key());
  b = a;
  b.probe_bytes = 2048;
  EXPECT_NE(a.Key(), b.Key());

  // Canonicalization: an unset duration means the paper's default rule, so
  // spelling that same value explicitly must map to the same cache entry.
  a.measure_duration_s = 0.0;
  b = a;
  b.measure_duration_s =
      measure::DefaultMeasureDurationS(static_cast<size_t>(a.instances));
  EXPECT_EQ(a.Key(), b.Key());
}

TEST(CostMatrixCacheTest, HitMissAndLruEviction) {
  CostMatrixCache::Options options;
  options.capacity = 2;
  options.measure_fn = FakeMeasure;
  CostMatrixCache cache(options);

  auto a1 = cache.Get(TinyEnv(1));
  auto b1 = cache.Get(TinyEnv(2));
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(b1.ok());
  // Second lookup of A: a hit, same shared entry.
  auto a2 = cache.Get(TinyEnv(1));
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(a1->entry.get(), a2->entry.get());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().measurements, 2u);
  EXPECT_EQ(cache.size(), 2u);

  // C evicts the least-recently-used entry, which is B (A was just touched).
  ASSERT_TRUE(cache.Get(TinyEnv(3)).ok());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_TRUE(cache.Get(TinyEnv(1)).ok());  // still cached
  EXPECT_EQ(cache.stats().hits, 2u);
  ASSERT_TRUE(cache.Get(TinyEnv(2)).ok());  // evicted: re-measures
  EXPECT_EQ(cache.stats().measurements, 4u);
}

TEST(CostMatrixCacheTest, TtlExpiresEntries) {
  double fake_now = 0.0;
  CostMatrixCache::Options options;
  options.ttl_s = 10.0;
  options.measure_fn = FakeMeasure;
  options.now_fn = [&fake_now] { return fake_now; };
  CostMatrixCache cache(options);

  ASSERT_TRUE(cache.Get(TinyEnv()).ok());
  fake_now = 9.0;
  ASSERT_TRUE(cache.Get(TinyEnv()).ok());
  EXPECT_EQ(cache.stats().hits, 1u);
  fake_now = 11.0;  // past the TTL: the entry re-measures
  ASSERT_TRUE(cache.Get(TinyEnv()).ok());
  EXPECT_EQ(cache.stats().expirations, 1u);
  EXPECT_EQ(cache.stats().measurements, 2u);
}

TEST(CostMatrixCacheTest, LongIdleCacheNeverServesAStaleMatrix) {
  // The TTL check happens at *lookup* time, not only when inserts churn the
  // cache: a service that sits idle past every entry's TTL must re-measure
  // on the next lookup instead of serving the stale matrix.
  double fake_now = 0.0;
  CostMatrixCache::Options options;
  options.ttl_s = 10.0;
  options.measure_fn = FakeMeasure;
  options.now_fn = [&fake_now] { return fake_now; };
  CostMatrixCache cache(options);

  ASSERT_TRUE(cache.Get(TinyEnv(1)).ok());
  ASSERT_TRUE(cache.Get(TinyEnv(2)).ok());
  EXPECT_EQ(cache.size(), 2u);

  fake_now = 1000.0;  // long idle: no inserts, no lookups, TTLs long gone
  EXPECT_EQ(cache.size(), 0u) << "expired entries reported as cached";
  auto after = cache.Get(TinyEnv(1));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(cache.stats().measurements, 3u) << "stale entry served as a hit";
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(CostMatrixCacheTest, InsertSweepsExpiredEntriesOfOtherKeys) {
  // Expired entries must not pin memory (or crowd live entries out of the
  // LRU capacity) until their own key happens to be looked up again: any
  // insert sweeps them all.
  double fake_now = 0.0;
  CostMatrixCache::Options options;
  options.capacity = 8;
  options.ttl_s = 10.0;
  options.measure_fn = FakeMeasure;
  options.now_fn = [&fake_now] { return fake_now; };
  CostMatrixCache cache(options);

  ASSERT_TRUE(cache.Get(TinyEnv(1)).ok());
  ASSERT_TRUE(cache.Get(TinyEnv(2)).ok());
  fake_now = 11.0;  // both expire
  ASSERT_TRUE(cache.Get(TinyEnv(3)).ok());  // insert sweeps 1 and 2
  EXPECT_EQ(cache.stats().expirations, 2u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 0u)
      << "sweeping expired entries must not count as LRU eviction";
}

TEST(CostMatrixCacheTest, PutRefreshesAnExistingEntryInPlace) {
  CostMatrixCache::Options options;
  options.capacity = 2;
  options.measure_fn = FakeMeasure;
  CostMatrixCache cache(options);

  auto stale = cache.Get(TinyEnv(1));
  ASSERT_TRUE(stale.ok());

  // The redeployment path re-measured the environment: feed the fresh
  // matrix back. The next lookup serves it without measuring.
  auto remeasured = FakeMeasure(TinyEnv(1), {});
  ASSERT_TRUE(remeasured.ok());
  for (int i = 0; i < remeasured->costs.size(); ++i) {
    for (int j = 0; j < remeasured->costs.size(); ++j) {
      if (i != j) remeasured->costs.At(i, j) *= 3.0;
    }
  }
  const deploy::CostMatrix refreshed_costs = remeasured->costs;
  cache.Put(std::move(remeasured).value());
  EXPECT_EQ(cache.size(), 1u) << "Put must replace, not duplicate";
  EXPECT_EQ(cache.stats().refreshes, 1u);

  auto fresh = cache.Get(TinyEnv(1));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->entry->costs, refreshed_costs);
  EXPECT_EQ(cache.stats().measurements, 1u) << "refresh must not re-measure";

  // Put on a cold key simply installs it (with LRU accounting).
  auto cold = FakeMeasure(TinyEnv(5), {});
  ASSERT_TRUE(cold.ok());
  cache.Put(std::move(cold).value());
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_TRUE(cache.Get(TinyEnv(5)).ok());
  EXPECT_EQ(cache.stats().measurements, 1u);
}

TEST(CostMatrixCacheTest, SingleFlightCoalescesConcurrentMeasurements) {
  std::atomic<int> measure_calls{0};
  CostMatrixCache::Options options;
  options.measure_fn = [&measure_calls](const EnvironmentSpec& spec,
                                        const CancelToken& cancel) {
    ++measure_calls;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return FakeMeasure(spec, cancel);
  };
  CostMatrixCache cache(options);

  constexpr int kThreads = 8;
  std::vector<CostMatrixCache::EntryPtr> entries(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &entries, t] {
      auto entry = cache.Get(TinyEnv());
      ASSERT_TRUE(entry.ok()) << entry.status().ToString();
      entries[static_cast<size_t>(t)] = entry->entry;
    });
  }
  for (std::thread& t : threads) t.join();

  // Exactly one measurement ran; every caller shares the same entry.
  EXPECT_EQ(measure_calls.load(), 1);
  EXPECT_EQ(cache.stats().measurements, 1u);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(entries[0].get(), entries[static_cast<size_t>(t)].get());
  }
}

TEST(CostMatrixCacheTest, FollowerCancellationDoesNotAbortTheMeasurement) {
  // Followers bailing out must not kill a measurement its leader still
  // wants: the measurement's token trips only when *every* registered
  // caller has cancelled (the leader's cancellation is covered by
  // FollowerRetriesWhenLeaderCancels below).
  std::atomic<int> measure_calls{0};
  CostMatrixCache::Options options;
  options.measure_fn = [&measure_calls](const EnvironmentSpec& spec,
                                        const CancelToken& cancel) {
    ++measure_calls;
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    return FakeMeasure(spec, cancel);
  };
  CostMatrixCache cache(options);

  Result<CostMatrixCache::Lookup> leader_result =
      Status::Internal("not run");
  std::thread leader([&cache, &leader_result] {
    leader_result = cache.Get(TinyEnv());  // never cancelled
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  CancelToken follower_token;
  Result<CostMatrixCache::Lookup> follower_result =
      Status::Internal("not run");
  std::thread follower([&cache, &follower_token, &follower_result] {
    follower_result = cache.Get(TinyEnv(), follower_token);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  follower_token.Cancel();
  leader.join();
  follower.join();

  // The abandoning follower resolves Cancelled (unless it lost the race to
  // the completed measurement, which is also fine); the leader's
  // measurement ran to completion exactly once.
  ASSERT_TRUE(leader_result.ok()) << leader_result.status().ToString();
  if (!follower_result.ok()) {
    EXPECT_EQ(follower_result.status().code(), StatusCode::kCancelled);
  }
  EXPECT_EQ(measure_calls.load(), 1);
  // The completed entry is cached despite the follower's cancellation.
  ASSERT_TRUE(cache.Get(TinyEnv()).ok());
  EXPECT_EQ(measure_calls.load(), 1);
}

TEST(CostMatrixCacheTest, FollowerRetriesWhenLeaderCancels) {
  // First measurement blocks until its token trips and reports Cancelled;
  // the second (the follower's retry) succeeds immediately.
  std::atomic<int> measure_calls{0};
  CostMatrixCache::Options options;
  options.measure_fn = [&measure_calls](const EnvironmentSpec& spec,
                                        const CancelToken& cancel) {
    if (++measure_calls == 1) {
      while (!cancel.Cancelled()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return Result<MeasuredEnvironment>(
          Status::Cancelled("fake measurement aborted"));
    }
    return FakeMeasure(spec, cancel);
  };
  CostMatrixCache cache(options);

  CancelToken leader_token;
  std::thread leader([&cache, &leader_token] {
    auto r = cache.Get(TinyEnv(), leader_token);
    EXPECT_FALSE(r.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  Result<CostMatrixCache::Lookup> follower_result =
      Status::Internal("not run");
  std::thread follower([&cache, &follower_result] {
    follower_result = cache.Get(TinyEnv());  // never cancelled
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Only the leader gives up. Its abandoned run completes Cancelled; the
  // follower transparently re-measures and gets the matrix.
  leader_token.Cancel();
  leader.join();
  follower.join();
  ASSERT_TRUE(follower_result.ok()) << follower_result.status().ToString();
  EXPECT_EQ(measure_calls.load(), 2);
}

TEST(CostMatrixCacheTest, CachedMatrixSolvesIdenticallyToFreshMeasurement) {
  // Determinism pin for the measure-once/solve-many contract: a solve on the
  // cache's matrix is bit-identical to one on a freshly measured matrix of
  // the same environment (real measurement path, single-threaded solver).
  EnvironmentSpec env = TinyEnv(/*seed=*/11, /*instances=*/12);
  CostMatrixCache cache;  // real MeasureEnvironment
  auto cached = cache.Get(env);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  auto fresh = MeasureEnvironment(env);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ASSERT_EQ(cached->entry->costs, fresh->costs);

  graph::CommGraph app = graph::Mesh2D(2, 5);
  deploy::NdpSolveOptions opts;
  opts.seed = 5;
  opts.threads = 1;
  deploy::SolveContext context_a(Deadline::After(1.0));
  auto a = deploy::SolveNodeDeploymentByName(app, cached->entry->costs, "local",
                                             opts, context_a);
  deploy::SolveContext context_b(Deadline::After(1.0));
  auto b = deploy::SolveNodeDeploymentByName(app, fresh->costs, "local", opts,
                                             context_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->deployment, b->deployment);
  EXPECT_EQ(a->cost, b->cost);  // bitwise: same matrix, same seed, one thread
}

TEST(CostMatrixCacheTest, MeasurementErrorsPropagateAndAreNotCached) {
  std::atomic<int> calls{0};
  CostMatrixCache::Options options;
  options.measure_fn = [&calls](const EnvironmentSpec& spec,
                                const CancelToken& cancel) {
    if (++calls == 1) {
      return Result<MeasuredEnvironment>(
          Status::Internal("provider rate limit"));
    }
    return FakeMeasure(spec, cancel);
  };
  CostMatrixCache cache(options);
  auto first = cache.Get(TinyEnv());
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kInternal);
  EXPECT_EQ(cache.size(), 0u);
  // Errors are not negative-cached: the next caller retries.
  ASSERT_TRUE(cache.Get(TinyEnv()).ok());
}

// Only a caller that really measures takes a lease, and the lease goes
// back whatever the measurement's outcome; hits take none.
TEST(CostMatrixCacheTest, MeasurementsGiveTheirThreadLeaseBack) {
  int leases = 0;
  int lent = 0;
  CostMatrixCache::Options options;
  options.lend_threads = [&](const EnvironmentSpec&) {
    ++leases;
    lent += 2;
    return ThreadLease(2, [&lent] { lent -= 2; });
  };
  CostMatrixCache cache(options);
  ASSERT_TRUE(cache.Get(TinyEnv(1)).ok());
  EXPECT_EQ(lent, 0);
  EnvironmentSpec unknown = TinyEnv(2);
  unknown.provider = "no-such-cloud";
  EXPECT_FALSE(cache.Get(unknown).ok());
  EXPECT_EQ(lent, 0);
  ASSERT_TRUE(cache.Get(TinyEnv(1)).ok());  // a hit
  EXPECT_EQ(leases, 2);
}

TEST(CostMatrixCacheTest, ClearDropsCompletedEntries) {
  CostMatrixCache::Options options;
  options.measure_fn = FakeMeasure;
  CostMatrixCache cache(options);
  ASSERT_TRUE(cache.Get(TinyEnv(1)).ok());
  ASSERT_TRUE(cache.Get(TinyEnv(2)).ok());
  EXPECT_EQ(cache.size(), 2u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  ASSERT_TRUE(cache.Get(TinyEnv(1)).ok());
  EXPECT_EQ(cache.stats().measurements, 3u);
}

// Stats reads must be coherent under concurrent mutation: every field is
// mutated and copied under the cache mutex, so a stats() snapshot taken
// mid-hammer is a point-in-time view, never a torn mix (this is also the
// TSan pin for the struct-copy read path). The obs mirror counters must
// fold to the same totals the struct reports.
TEST(CostMatrixCacheTest, StatsReadsAreCoherentUnderConcurrentMutation) {
  obs::MetricsRegistry registry;
  CostMatrixCache::Options options;
  options.measure_fn = FakeMeasure;
  options.capacity = 4;  // small: forces concurrent evictions too
  options.metrics = &registry;
  CostMatrixCache cache(options);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 200;
  std::atomic<bool> torn{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        // 6 keys over 4 slots: a mix of hits, misses, and evictions.
        ASSERT_TRUE(cache.Get(TinyEnv(1 + (t + i) % 6)).ok());
      }
    });
  }
  threads.emplace_back([&cache, &torn] {
    for (int i = 0; i < 400; ++i) {
      CostMatrixCache::Stats s = cache.stats();
      // Every lookup is a hit, a miss, or a coalesced wait -- a torn read
      // (e.g. hits incremented but misses from an older instant) can break
      // this only transiently, which coherent snapshots never show.
      if (s.hits + s.misses + s.coalesced < s.measurements) {
        torn.store(true);
      }
    }
  });
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(torn.load());

  const CostMatrixCache::Stats s = cache.stats();
  // Exactly one hit-or-miss per logical lookup. A lookup that coalesces
  // onto an in-flight measurement counts its miss AND a coalesced wait, so
  // misses exceed measurements by the follower count (at least: a follower
  // can re-join a second flight if the entry is evicted before it re-reads).
  EXPECT_EQ(s.hits + s.misses, static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_GE(s.misses, s.measurements);
  EXPECT_GE(s.coalesced, s.misses - s.measurements);

  // The obs mirrors were bumped at the same sites, so they agree exactly.
  std::map<std::string, double> folded;
  for (const obs::MetricValue& m : registry.Snapshot()) {
    folded[m.name] = m.value;
  }
  EXPECT_EQ(folded["cache.matrix.hits"], static_cast<double>(s.hits));
  EXPECT_EQ(folded["cache.matrix.misses"], static_cast<double>(s.misses));
  EXPECT_EQ(folded["cache.matrix.measurements"],
            static_cast<double>(s.measurements));
  EXPECT_EQ(folded["cache.matrix.single_flight_waits"],
            static_cast<double>(s.coalesced));
  EXPECT_EQ(folded["cache.matrix.evictions"], static_cast<double>(s.evictions));
}

}  // namespace
}  // namespace cloudia::service
