#include "service/advisor_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cloudia/session.h"
#include "graph/templates.h"

namespace cloudia::service {
namespace {

EnvironmentSpec TinyEnv(uint64_t seed = 7, int instances = 14) {
  EnvironmentSpec spec;
  spec.provider = "ec2";
  spec.instances = instances;
  spec.measure_duration_s = 10.0;
  spec.seed = seed;
  return spec;
}

// Synthetic instant measurement (mirrors test_cost_matrix_cache.cpp).
Result<MeasuredEnvironment> FakeMeasure(const EnvironmentSpec& spec,
                                        const CancelToken& cancel) {
  if (cancel.Cancelled()) return Status::Cancelled("fake measurement aborted");
  MeasuredEnvironment env;
  env.spec = spec;
  env.instances.resize(static_cast<size_t>(spec.instances));
  for (int i = 0; i < spec.instances; ++i) {
    env.instances[static_cast<size_t>(i)].id = i;
  }
  env.costs = deploy::CostMatrix(spec.instances, 1.0);
  for (int i = 0; i < spec.instances; ++i) {
    for (int j = 0; j < spec.instances; ++j) {
      env.costs.At(i, j) = i == j ? 0.0 : 1.0 + 0.01 * (i * 31 + j * 7) /
                                              static_cast<double>(
                                                  spec.instances);
    }
  }
  env.measure_virtual_s = spec.measure_duration_s;
  return env;
}

DeploymentRequest BasicRequest(const graph::CommGraph* app,
                               const char* method = "g2") {
  DeploymentRequest req;
  req.environment = TinyEnv();
  req.app = app;
  req.solve.method = method;
  req.solve.time_budget_s = 0.5;
  req.solve.seed = 3;
  return req;
}

TEST(AdvisorServiceTest, SubmitSolveAndWait) {
  graph::CommGraph app = graph::Mesh2D(3, 4);
  AdvisorService::Options options;
  options.threads = 2;
  AdvisorService service(options);

  RequestHandle handle = service.Submit(BasicRequest(&app));
  const ServiceResult& r = handle.Wait();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.routed_method, "g2");
  EXPECT_EQ(r.solve.placement.size(), 12u);
  EXPECT_LE(r.solve.cost_ms, r.solve.default_cost_ms + 1e-9);
  EXPECT_TRUE(handle.done());
  EXPECT_EQ(handle.progress().stage, RequestStage::kDone);
  EXPECT_EQ(service.stats().completed, 1u);
  EXPECT_EQ(service.cache_stats().measurements, 1u);
}

TEST(AdvisorServiceTest, InvalidRequestsFailThroughTheHandle) {
  AdvisorService service;
  DeploymentRequest no_graph;
  no_graph.environment = TinyEnv();
  auto h1 = service.Submit(std::move(no_graph));
  EXPECT_EQ(h1.Wait().status.code(), StatusCode::kInvalidArgument);

  graph::CommGraph big = graph::Mesh2D(10, 10);
  DeploymentRequest oversized = BasicRequest(&big);  // 100 nodes on 14 slots
  auto h2 = service.Submit(std::move(oversized));
  EXPECT_EQ(h2.Wait().status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.stats().failed, 2u);
}

TEST(AdvisorServiceTest, SharedEnvironmentMeasuresOnce) {
  graph::CommGraph app = graph::Mesh2D(3, 4);
  AdvisorService::Options options;
  options.threads = 1;
  options.start_paused = true;
  AdvisorService service(options);

  // Three *different* solves on one environment: one measurement.
  std::vector<RequestHandle> handles;
  for (const char* method : {"g2", "local", "cp"}) {
    handles.push_back(service.Submit(BasicRequest(&app, method)));
  }
  service.Resume();
  for (RequestHandle& handle : handles) {
    const ServiceResult& r = handle.Wait();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_FALSE(r.coalesced);  // different specs do not coalesce
  }
  EXPECT_EQ(service.cache_stats().measurements, 1u);
  EXPECT_EQ(service.cache_stats().hits, 2u);
}

TEST(AdvisorServiceTest, ByteIdenticalRequestsCoalesceOntoOneSolve) {
  graph::CommGraph app = graph::Mesh2D(3, 4);
  AdvisorService::Options options;
  options.threads = 1;
  options.start_paused = true;
  AdvisorService service(options);

  std::vector<RequestHandle> handles;
  for (int i = 0; i < 4; ++i) {
    handles.push_back(service.Submit(BasicRequest(&app, "local")));
  }
  // One field differs -> not byte-identical -> its own job.
  DeploymentRequest different = BasicRequest(&app, "local");
  different.solve.seed = 99;
  handles.push_back(service.Submit(std::move(different)));
  service.Resume();

  int coalesced = 0;
  for (RequestHandle& handle : handles) {
    const ServiceResult& r = handle.Wait();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    coalesced += r.coalesced ? 1 : 0;
  }
  EXPECT_EQ(coalesced, 3);  // the three twins attached to the first request
  EXPECT_EQ(service.stats().coalesced, 3u);
  // All four twins share one result bitwise.
  const ServiceResult& leader = handles[0].Wait();
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(handles[static_cast<size_t>(i)].Wait().solve.cost_ms,
              leader.solve.cost_ms);
    EXPECT_EQ(handles[static_cast<size_t>(i)].Wait().solve.result.deployment,
              leader.solve.result.deployment);
  }
}

TEST(AdvisorServiceTest, PriorityOrdersExecutionUnderOneWorker) {
  graph::CommGraph app = graph::Mesh2D(3, 4);
  std::mutex order_mu;
  std::vector<uint64_t> measured_seeds;
  AdvisorService::Options options;
  options.threads = 1;
  options.start_paused = true;
  options.measure_fn = [&order_mu, &measured_seeds](
                           const EnvironmentSpec& spec,
                           const CancelToken& cancel) {
    {
      std::lock_guard<std::mutex> lock(order_mu);
      measured_seeds.push_back(spec.seed);
    }
    return FakeMeasure(spec, cancel);
  };
  AdvisorService service(options);

  // Distinct environments (seed = id) so the measurement order *is* the
  // execution order. Submitted at priorities 0, 5, 5, 9; deadline breaks the
  // tie between the two priority-5 jobs in favor of the later-submitted one.
  std::vector<RequestHandle> handles;
  struct Spec {
    uint64_t seed;
    int priority;
    double deadline;
  };
  const Spec specs[] = {{1, 0, 1e18}, {2, 5, 1e18}, {3, 5, 60.0}, {4, 9, 1e18}};
  for (const Spec& s : specs) {
    DeploymentRequest req = BasicRequest(&app);
    req.environment.seed = s.seed;
    req.priority = s.priority;
    req.deadline_s = s.deadline;
    handles.push_back(service.Submit(std::move(req)));
  }
  service.Resume();
  for (RequestHandle& handle : handles) {
    ASSERT_TRUE(handle.Wait().status.ok());
  }
  EXPECT_EQ(measured_seeds, (std::vector<uint64_t>{4, 3, 2, 1}));
}

TEST(AdvisorServiceTest, CancelBeforeExecutionResolvesImmediately) {
  graph::CommGraph app = graph::Mesh2D(3, 4);
  AdvisorService::Options options;
  options.threads = 1;
  options.start_paused = true;
  options.measure_fn = FakeMeasure;
  AdvisorService service(options);

  RequestHandle keep = service.Submit(BasicRequest(&app));
  DeploymentRequest doomed = BasicRequest(&app);
  doomed.environment.seed = 2;
  RequestHandle dropped = service.Submit(std::move(doomed));
  dropped.Cancel();
  EXPECT_TRUE(dropped.done());  // resolves without the service running
  EXPECT_EQ(dropped.Wait().status.code(), StatusCode::kCancelled);
  service.Resume();
  EXPECT_TRUE(keep.Wait().status.ok());
  EXPECT_EQ(service.stats().cancelled, 1u);
  // The cancelled job never measured its environment.
  EXPECT_EQ(service.cache_stats().measurements, 1u);
}

TEST(AdvisorServiceTest, RequestTokenAloneCancelsAtTheStageBoundary) {
  // A caller may keep only a copy of request.cancel (no handle): tripping
  // the token is honored when the job reaches its next stage boundary.
  graph::CommGraph app = graph::Mesh2D(3, 4);
  AdvisorService::Options options;
  options.threads = 1;
  options.start_paused = true;
  options.measure_fn = FakeMeasure;
  AdvisorService service(options);

  DeploymentRequest req = BasicRequest(&app);
  CancelToken token = req.cancel;  // copies share state
  RequestHandle handle = service.Submit(std::move(req));
  token.Cancel();
  service.Resume();
  EXPECT_EQ(handle.Wait().status.code(), StatusCode::kCancelled);
  EXPECT_EQ(service.stats().cancelled, 1u);
  EXPECT_EQ(service.cache_stats().measurements, 0u);
}

TEST(AdvisorServiceTest, CancelAndRetryDoesNotInheritTheCancellation) {
  // Cancel a request, then resubmit the byte-identical request: the retry
  // must run on a fresh job, not coalesce onto the dying one and come back
  // Cancelled.
  graph::CommGraph app = graph::Mesh2D(3, 4);
  AdvisorService::Options options;
  options.threads = 1;
  options.start_paused = true;
  options.measure_fn = FakeMeasure;
  AdvisorService service(options);

  RequestHandle first = service.Submit(BasicRequest(&app));
  first.Cancel();
  EXPECT_EQ(first.Wait().status.code(), StatusCode::kCancelled);
  RequestHandle retry = service.Submit(BasicRequest(&app));
  service.Resume();
  const ServiceResult& r = retry.Wait();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_FALSE(r.coalesced);
}

TEST(AdvisorServiceTest, CancelMidMeasureAbortsTheMeasurement) {
  // The satellite guarantee end to end: a request cancelled while its
  // environment measurement is in flight aborts that measurement (the
  // token reaches DeploymentSession::Measure / the protocol loops).
  graph::CommGraph app = graph::Mesh2D(3, 4);
  std::atomic<bool> measuring{false};
  std::atomic<bool> observed_cancel{false};
  AdvisorService::Options options;
  options.threads = 1;
  options.measure_fn = [&measuring, &observed_cancel](
                           const EnvironmentSpec&, const CancelToken& cancel) {
    measuring = true;
    while (!cancel.Cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    observed_cancel = true;
    return Result<MeasuredEnvironment>(
        Status::Cancelled("measurement aborted"));
  };
  AdvisorService service(options);

  RequestHandle handle = service.Submit(BasicRequest(&app));
  while (!measuring.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  handle.Cancel();
  const ServiceResult& r = handle.Wait();
  EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
  // The measurement loop itself observed the token (bounded wait).
  for (int i = 0; i < 2000 && !observed_cancel.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(observed_cancel.load());
}

TEST(AdvisorServiceTest, RealMeasurementCancelsMidFlight) {
  // Same satellite, real protocol stack: a day-long virtual measurement is
  // cut short by a handle cancel (minutes of wall time if it were not).
  graph::CommGraph app = graph::Mesh2D(3, 4);
  AdvisorService::Options options;
  options.threads = 1;
  AdvisorService service(options);

  DeploymentRequest req = BasicRequest(&app);
  req.environment.measure_duration_s = 24.0 * 3600.0;
  RequestHandle handle = service.Submit(std::move(req));
  while (handle.progress().stage == RequestStage::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Stopwatch wall;
  handle.Cancel();
  EXPECT_EQ(handle.Wait().status.code(), StatusCode::kCancelled);
  // ~AdvisorService drains the pool, so its return proves the in-flight
  // measurement aborted; just bound how long the worker kept going.
  EXPECT_LT(wall.ElapsedSeconds(), 30.0);
}

TEST(AdvisorServiceTest, ExpiredDeadlineFailsWithTimeout) {
  graph::CommGraph app = graph::Mesh2D(3, 4);
  AdvisorService::Options options;
  options.threads = 1;
  options.start_paused = true;
  options.measure_fn = FakeMeasure;
  AdvisorService service(options);

  DeploymentRequest req = BasicRequest(&app);
  req.deadline_s = 0.02;  // must start within 20 ms of submission
  RequestHandle handle = service.Submit(std::move(req));
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  service.Resume();
  EXPECT_EQ(handle.Wait().status.code(), StatusCode::kTimeout);
  EXPECT_EQ(service.stats().expired, 1u);
}

TEST(AdvisorServiceTest, WarmStartCarriesIncumbentsAcrossSolves) {
  graph::CommGraph app = graph::Mesh2D(3, 4);
  AdvisorService::Options options;
  options.threads = 1;
  options.start_paused = true;
  AdvisorService service(options);

  // Two solves on the same (environment, graph, objective): the second is
  // seeded with the first one's best deployment, so it can never end worse.
  RequestHandle first = service.Submit(BasicRequest(&app, "local"));
  RequestHandle second = service.Submit(BasicRequest(&app, "cp"));
  service.Resume();
  const ServiceResult& a = first.Wait();
  const ServiceResult& b = second.Wait();
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  ASSERT_TRUE(b.status.ok()) << b.status.ToString();
  EXPECT_FALSE(a.warm_started);  // nothing to start from yet
  EXPECT_TRUE(b.warm_started);
  EXPECT_LE(b.solve.cost_ms, a.solve.cost_ms + 1e-9);
  EXPECT_EQ(service.stats().warm_starts, 1u);
}

TEST(AdvisorServiceTest, AutoRoutesBigInstancesToThePortfolio) {
  graph::CommGraph small = graph::Mesh2D(2, 5);
  graph::CommGraph big = graph::Mesh2D(3, 4);
  AdvisorService::Options options;
  options.threads = 2;
  options.portfolio_node_threshold = 12;  // "big" starts at 12 nodes
  options.portfolio_members = {"cp", "local"};
  AdvisorService service(options);

  DeploymentRequest small_req = BasicRequest(&small, "auto");
  RequestHandle h_small = service.Submit(std::move(small_req));
  DeploymentRequest big_req = BasicRequest(&big, "auto");
  big_req.solve.time_budget_s = 1.0;
  RequestHandle h_big = service.Submit(std::move(big_req));

  const ServiceResult& rs = h_small.Wait();
  const ServiceResult& rb = h_big.Wait();
  ASSERT_TRUE(rs.status.ok()) << rs.status.ToString();
  ASSERT_TRUE(rb.status.ok()) << rb.status.ToString();
  EXPECT_EQ(rs.routed_method, "cp");  // the default method
  EXPECT_EQ(rb.routed_method, "portfolio");
  EXPECT_EQ(service.stats().portfolio_routed, 1u);
}

TEST(AdvisorServiceTest, WeightOnlyDifferencesNeverCoalesceOrShareWarmStarts) {
  // Regression: the job fingerprint and the warm-start key must both use
  // ObjectiveSpecKey, not the bare objective name. Two requests identical in
  // every byte except the objective *weights* optimize different totals --
  // coalescing them would hand one caller the other's optimum, and sharing a
  // cached incumbent would warm-start a priced solve from a latency-scale
  // one.
  graph::CommGraph app = graph::Mesh2D(3, 4);
  AdvisorService::Options options;
  options.threads = 1;
  options.start_paused = true;
  AdvisorService service(options);

  RequestHandle plain = service.Submit(BasicRequest(&app, "local"));
  DeploymentRequest priced_req = BasicRequest(&app, "local");
  priced_req.solve.objective.price_weight = 0.5;  // only difference
  RequestHandle priced = service.Submit(std::move(priced_req));
  // A byte-identical twin of the priced request still coalesces normally.
  DeploymentRequest twin_req = BasicRequest(&app, "local");
  twin_req.solve.objective.price_weight = 0.5;
  RequestHandle twin = service.Submit(std::move(twin_req));
  service.Resume();

  const ServiceResult& a = plain.Wait();
  const ServiceResult& b = priced.Wait();
  const ServiceResult& c = twin.Wait();
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  ASSERT_TRUE(b.status.ok()) << b.status.ToString();
  ASSERT_TRUE(c.status.ok()) << c.status.ToString();

  EXPECT_FALSE(a.coalesced);
  EXPECT_FALSE(b.coalesced);  // weight difference -> distinct fingerprint
  EXPECT_TRUE(c.coalesced);   // identical weights -> same fingerprint
  EXPECT_EQ(service.stats().coalesced, 1u);
  // Distinct spec keys: the priced solve must not inherit the latency-only
  // incumbent as a warm start (and vice versa).
  EXPECT_FALSE(a.warm_started);
  EXPECT_FALSE(b.warm_started);
  EXPECT_EQ(service.stats().warm_starts, 0u);
}

TEST(AdvisorServiceTest, EverySolveKnobIsInTheCoalescingFingerprint) {
  // The job fingerprint lists SolveSpec's knobs by hand. A knob missing
  // there would let two different solves coalesce onto one answer, so each
  // request below differs from the base in exactly one knob. A tree, so
  // that the longest-path variant is solvable too.
  graph::CommGraph app = graph::AggregationTree(3, 3);  // 13 nodes
  AdvisorService::Options options;
  options.threads = 1;
  options.start_paused = true;
  options.measure_fn = FakeMeasure;
  AdvisorService service(options);

  using Tweak = void (*)(cloudia::SolveSpec&);
  const std::vector<std::pair<const char*, Tweak>> knobs = {
      {"method", [](cloudia::SolveSpec& s) { s.method = "g1"; }},
      {"objective primary",
       [](cloudia::SolveSpec& s) {
         s.objective.primary = deploy::Objective::kLongestPath;
       }},
      {"price weight",
       [](cloudia::SolveSpec& s) { s.objective.price_weight = 0.5; }},
      {"time_budget_s", [](cloudia::SolveSpec& s) { s.time_budget_s = 0.25; }},
      {"cost_clusters", [](cloudia::SolveSpec& s) { s.cost_clusters = 5; }},
      {"r1_samples", [](cloudia::SolveSpec& s) { s.r1_samples = 500; }},
      {"threads", [](cloudia::SolveSpec& s) { s.threads = 2; }},
      {"seed", [](cloudia::SolveSpec& s) { s.seed = 4; }},
      {"warm_start_hints",
       [](cloudia::SolveSpec& s) { s.warm_start_hints = true; }},
      {"hier_clusters", [](cloudia::SolveSpec& s) { s.hier_clusters = 3; }},
      {"hier_shard_solver",
       [](cloudia::SolveSpec& s) { s.hier_shard_solver = "g2"; }},
      {"hier_polish_steps",
       [](cloudia::SolveSpec& s) { s.hier_polish_steps = 100; }},
      {"portfolio_members",
       [](cloudia::SolveSpec& s) { s.portfolio_members = {"g2"}; }},
      {"initial",
       [](cloudia::SolveSpec& s) {
         s.initial = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
       }},
  };

  RequestHandle base = service.Submit(BasicRequest(&app));
  RequestHandle twin = service.Submit(BasicRequest(&app));  // byte-identical
  std::vector<RequestHandle> variants;
  for (const auto& [name, tweak] : knobs) {
    DeploymentRequest req = BasicRequest(&app);
    tweak(req.solve);
    variants.push_back(service.Submit(std::move(req)));
  }
  service.Resume();

  EXPECT_FALSE(base.Wait().coalesced);
  EXPECT_TRUE(twin.Wait().coalesced);
  for (size_t i = 0; i < knobs.size(); ++i) {
    const ServiceResult& r = variants[i].Wait();
    EXPECT_TRUE(r.status.ok()) << knobs[i].first << ": "
                               << r.status.ToString();
    EXPECT_FALSE(r.coalesced) << knobs[i].first;
  }
  EXPECT_EQ(service.stats().coalesced, 1u);
}

TEST(AdvisorServiceTest, ProgressReportsStagesAndIncumbents) {
  graph::CommGraph app = graph::Mesh2D(3, 4);
  AdvisorService::Options options;
  options.threads = 1;
  AdvisorService service(options);

  RequestHandle handle = service.Submit(BasicRequest(&app, "local"));
  const ServiceResult& r = handle.Wait();
  ASSERT_TRUE(r.status.ok());
  RequestProgress progress = handle.progress();
  EXPECT_EQ(progress.stage, RequestStage::kDone);
  EXPECT_GE(progress.incumbents, 1);
  EXPECT_DOUBLE_EQ(progress.best_cost_ms, r.solve.cost_ms);
}

TEST(AdvisorServiceTest, SingleThreadedServiceIsDeterministic) {
  // The full service pipeline -- priority scheduling, caching, coalescing,
  // warm starts -- is a pure function of the submitted workload when
  // threads = 1 and execution starts after submission.
  graph::CommGraph mesh = graph::Mesh2D(3, 4);
  graph::CommGraph tree = graph::AggregationTree(3, 2);

  auto run_workload = [&]() {
    AdvisorService::Options options;
    options.threads = 1;
    options.start_paused = true;
    AdvisorService service(options);
    std::vector<RequestHandle> handles;
    int i = 0;
    for (const char* method : {"local", "g2", "cp", "local", "r1", "local"}) {
      DeploymentRequest req = BasicRequest(i % 2 == 0 ? &mesh : &tree, method);
      req.environment.seed = static_cast<uint64_t>(7 + i % 2);
      req.priority = i % 3;
      req.solve.seed = static_cast<uint64_t>(11 + i);
      handles.push_back(service.Submit(std::move(req)));
      ++i;
    }
    service.Resume();
    std::vector<std::pair<double, deploy::Deployment>> outcomes;
    for (RequestHandle& handle : handles) {
      const ServiceResult& r = handle.Wait();
      EXPECT_TRUE(r.status.ok()) << r.status.ToString();
      outcomes.emplace_back(r.solve.cost_ms, r.solve.result.deployment);
    }
    return outcomes;
  };

  auto first = run_workload();
  auto second = run_workload();
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].first, second[i].first) << "request " << i;   // bitwise
    EXPECT_EQ(first[i].second, second[i].second) << "request " << i;
  }
}

TEST(AdvisorServiceTest, ServiceMatrixMatchesSessionMeasurement) {
  // The service's measurement path must stay bit-identical to a
  // DeploymentSession measuring the same environment: a service answer and
  // a session answer come from the same SolveOnPool on the same matrix.
  EnvironmentSpec env = TinyEnv(/*seed=*/5, /*instances=*/13);
  auto measured = MeasureEnvironment(env);
  ASSERT_TRUE(measured.ok());

  net::CloudSimulator cloud(net::AmazonEc2Profile(), env.seed);
  graph::CommGraph app = graph::Mesh2D(3, 4);  // 12 nodes -> 13 instances
  cloudia::SessionOptions sopts;
  sopts.measure_duration_s = env.measure_duration_s;
  sopts.seed = env.seed;
  cloudia::DeploymentSession session(&cloud, &app, sopts);
  ASSERT_TRUE(session.Measure().ok());
  ASSERT_EQ(session.allocated().size(), 13u);
  EXPECT_EQ(session.costs(), measured->costs);
}

// A lone request on an idle service measures on the service's idle
// thread budget, as much of it as its protocol puts to work, and the
// matrix must not depend on that budget.
TEST(AdvisorServiceTest, LoneRequestMeasuresOnTheIdleBudgetBitForBit) {
  graph::CommGraph app = graph::Mesh2D(3, 4);
  auto lone_matrix = [&app](int threads, obs::Tracer* tracer) {
    AdvisorService::Options options;
    options.threads = threads;
    options.obs.tracer = tracer;
    AdvisorService service(options);
    DeploymentRequest req = BasicRequest(&app);
    req.environment = TinyEnv(/*seed=*/11, /*instances=*/24);
    const EnvironmentSpec spec = req.environment;
    const ServiceResult result = service.Submit(std::move(req)).Wait();
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    auto cached = service.cache().Get(spec);
    EXPECT_TRUE(cached.ok() && cached->hit);
    return cached.ok() ? cached->entry->costs.values() : std::vector<double>{};
  };
  auto participants = [](const obs::Tracer& tracer) {
    double used = 0.0;
    for (const obs::TraceEvent& event : tracer.Snapshot()) {
      if (event.name != "measure.run") continue;
      for (const obs::TraceArg& arg : event.args) {
        if (arg.key == "participants") used = arg.number;
      }
    }
    return used;
  };
  const std::vector<double> one = lone_matrix(1, nullptr);
  ASSERT_FALSE(one.empty());
  obs::Tracer two_tracer;
  EXPECT_EQ(lone_matrix(2, &two_tracer), one);
  EXPECT_EQ(participants(two_tracer), 2.0);  // 12 pairs a stage
  // A budget above what the run puts to work lends it only that much:
  // 12 pairs a stage, kMinPairsPerParticipant = 4 each.
  obs::Tracer wide_tracer;
  EXPECT_EQ(lone_matrix(measure::ProtocolOptions::kMaxParticipants + 1,
                        &wide_tracer),
            one);
  EXPECT_EQ(participants(wide_tracer), 3.0);
}

// Runs one paused single-worker batch that exercises every counter behind
// stats() and cache_stats(): completed, rejected, cancelled, coalesced,
// deadline-expired, warm-started, portfolio- and hier-routed requests, a
// refused redeploy, a cache hit, an LRU eviction and a refresh.
struct BatchStats {
  AdvisorService::Stats service;
  CostMatrixCache::Stats cache;
};

BatchStats RunMixedBatch(obs::MetricsRegistry* metrics) {
  graph::CommGraph app = graph::Mesh2D(3, 4);
  graph::CommGraph small = graph::Mesh2D(2, 3);
  AdvisorService::Options options;
  options.threads = 1;
  options.start_paused = true;
  options.measure_fn = FakeMeasure;
  options.cache_capacity = 1;
  options.portfolio_node_threshold = 6;
  options.hier_node_threshold = 12;
  options.obs.metrics = metrics;
  AdvisorService service(options);

  std::vector<RequestHandle> handles;
  handles.push_back(service.Submit(BasicRequest(&app, "local")));
  handles.push_back(service.Submit(BasicRequest(&app, "local")));  // twin
  handles.push_back(service.Submit(BasicRequest(&app, "cp")));  // warm start
  DeploymentRequest to_hier = BasicRequest(&app, "auto");
  to_hier.solve.time_budget_s = 0.2;
  handles.push_back(service.Submit(std::move(to_hier)));
  DeploymentRequest to_portfolio = BasicRequest(&small, "auto");
  to_portfolio.solve.time_budget_s = 0.2;
  handles.push_back(service.Submit(std::move(to_portfolio)));
  DeploymentRequest other_env = BasicRequest(&app, "g2");
  other_env.environment.seed = 4;  // evicts seed 7 from the 1-slot cache
  handles.push_back(service.Submit(std::move(other_env)));
  DeploymentRequest no_graph;
  no_graph.environment = TinyEnv();
  handles.push_back(service.Submit(std::move(no_graph)));
  DeploymentRequest doomed = BasicRequest(&app);
  doomed.environment.seed = 2;
  handles.push_back(service.Submit(std::move(doomed)));
  handles.back().Cancel();
  DeploymentRequest late = BasicRequest(&app);
  late.environment.seed = 3;
  late.deadline_s = 0.02;
  handles.push_back(service.Submit(std::move(late)));
  RedeployRequest redeploy;
  redeploy.environment = TinyEnv();
  redeploy.app = &app;
  RedeployHandle refused = service.SubmitRedeploy(std::move(redeploy));
  service.cache().Put(*FakeMeasure(TinyEnv(9), CancelToken()));

  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  service.Resume();
  for (RequestHandle& handle : handles) handle.Wait();
  EXPECT_FALSE(refused.Wait().status.ok());
  return {service.stats(), service.cache_stats()};
}

// Every stats() and cache_stats() field, keyed by the counter it views.
std::vector<std::pair<std::string, uint64_t>> CounterFields(
    const BatchStats& batch) {
  const AdvisorService::Stats& s = batch.service;
  const CostMatrixCache::Stats& c = batch.cache;
  return {
      {"service.requests.submitted", s.submitted},
      {"service.requests.coalesced", s.coalesced},
      {"service.requests.completed", s.completed},
      {"service.requests.failed", s.failed},
      {"service.requests.cancelled", s.cancelled},
      {"service.requests.deadline_miss", s.expired},
      {"service.solve.warm_starts", s.warm_starts},
      {"service.route.portfolio", s.portfolio_routed},
      {"service.route.hier", s.hier_routed},
      {"service.redeploy.requests", s.redeploys},
      {"service.redeploy.drifted", s.redeploys_drifted},
      {"service.redeploy.failed", s.redeploys_failed},
      {"service.redeploy.matrix_refreshes", s.matrix_refreshes},
      {"cache.matrix.hits", c.hits},
      {"cache.matrix.misses", c.misses},
      {"cache.matrix.measurements", c.measurements},
      {"cache.matrix.single_flight_waits", c.coalesced},
      {"cache.matrix.evictions", c.evictions},
      {"cache.matrix.expirations", c.expirations},
      {"cache.matrix.refreshes", c.refreshes},
  };
}

TEST(AdvisorServiceTest, StatsAreViewsOverTheRegistryCounters) {
  obs::MetricsRegistry registry;
  const BatchStats batch = RunMixedBatch(&registry);
  const AdvisorService::Stats& s = batch.service;
  const CostMatrixCache::Stats& c = batch.cache;

  // The batch really is mixed: every outcome the counters track happened.
  EXPECT_EQ(s.submitted, 9u);
  EXPECT_EQ(s.coalesced, 1u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.cancelled, 1u);
  EXPECT_EQ(s.expired, 1u);
  EXPECT_EQ(s.completed, 6u);
  EXPECT_GE(s.warm_starts, 1u);
  EXPECT_EQ(s.portfolio_routed, 1u);
  EXPECT_EQ(s.hier_routed, 1u);
  EXPECT_EQ(s.redeploys, 1u);
  EXPECT_EQ(s.redeploys_failed, 1u);
  EXPECT_EQ(c.measurements, 2u);
  EXPECT_GE(c.hits, 1u);
  EXPECT_GE(c.evictions, 1u);
  EXPECT_EQ(c.refreshes, 1u);

  for (const auto& [name, value] : CounterFields(batch)) {
    EXPECT_EQ(registry.counter(name).value(), value) << name;
  }
}

TEST(AdvisorServiceTest, PrivateRegistryReportsTheSameStats) {
  obs::MetricsRegistry registry;
  EXPECT_EQ(CounterFields(RunMixedBatch(&registry)),
            CounterFields(RunMixedBatch(nullptr)));
}

TEST(AdvisorServiceTest, HandlesAnswerAfterTheServiceIsDestroyed) {
  // Handles share ownership of their outcome counters (and of the private
  // registry behind them), so every call stays valid once the service and
  // its registry pointer are gone.
  graph::CommGraph app = graph::Mesh2D(3, 4);
  std::vector<RequestHandle> handles;  // leader, coalesced twin, rejected
  std::vector<RedeployHandle> redeploys;
  {
    AdvisorService::Options options;
    options.threads = 1;
    options.start_paused = true;
    AdvisorService service(options);
    handles.push_back(service.Submit(BasicRequest(&app, "local")));
    handles.push_back(service.Submit(BasicRequest(&app, "local")));
    // A named request: GCC 12 reports a temporary DeploymentRequest{}
    // (whose SolveSpec has a user-written constructor) as maybe
    // uninitialized under -O2.
    DeploymentRequest no_app;
    handles.push_back(service.Submit(std::move(no_app)));
    RedeployPolicy policy;
    policy.checks = 2;
    service.EnableRedeployment(TinyEnv(), policy);
    RedeployRequest redeploy;
    redeploy.environment = TinyEnv();
    redeploy.app = &app;
    redeploy.solve.method = "g2";
    redeploys.push_back(service.SubmitRedeploy(std::move(redeploy)));
  }  // drains: every handle resolves before the destructor returns

  const RequestHandle& leader = handles[0];
  const RequestHandle& twin = handles[1];
  const RequestHandle& rejected = handles[2];
  for (const RequestHandle& handle : handles) {
    EXPECT_TRUE(handle.done());
    EXPECT_TRUE(handle.WaitFor(0.0));
    EXPECT_EQ(handle.progress().stage, RequestStage::kDone);
  }
  ASSERT_TRUE(leader.Wait().status.ok()) << leader.Wait().status.ToString();
  EXPECT_FALSE(leader.Wait().coalesced);
  ASSERT_TRUE(twin.Wait().status.ok()) << twin.Wait().status.ToString();
  EXPECT_TRUE(twin.Wait().coalesced);
  EXPECT_EQ(twin.Wait().solve.cost_ms, leader.Wait().solve.cost_ms);
  EXPECT_DOUBLE_EQ(twin.progress().best_cost_ms, leader.Wait().solve.cost_ms);
  EXPECT_EQ(rejected.Wait().status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(rejected.progress().incumbents, 0);

  // A late Cancel() is a no-op on a resolved request.
  for (const RequestHandle& handle : handles) handle.Cancel();
  EXPECT_TRUE(leader.Wait().status.ok());
  EXPECT_TRUE(twin.Wait().status.ok());
  EXPECT_EQ(rejected.Wait().status.code(), StatusCode::kInvalidArgument);

  const RedeployHandle& redeploy = redeploys[0];
  EXPECT_TRUE(redeploy.done());
  EXPECT_TRUE(redeploy.WaitFor(0.0));
  ASSERT_TRUE(redeploy.Wait().status.ok())
      << redeploy.Wait().status.ToString();
  EXPECT_EQ(redeploy.Wait().checks_run, 2);
  redeploy.Cancel();
  EXPECT_TRUE(redeploy.Wait().status.ok());
  EXPECT_EQ(redeploy.Wait().checks_run, 2);
}

}  // namespace
}  // namespace cloudia::service
