#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "measure/protocols.h"
#include "netsim/dynamics.h"

namespace cloudia::measure {
namespace {

class ProtocolsTest : public ::testing::Test {
 protected:
  ProtocolsTest() : cloud_(net::AmazonEc2Profile(), 7) {
    auto alloc = cloud_.Allocate(20);
    CLOUDIA_CHECK(alloc.ok());
    instances_ = std::move(alloc).value();
  }

  // Normalized-vector relative error of the estimates against ground truth
  // (mirrors the paper's Fig. 4 methodology).
  double MaxRelativeError(const MeasurementResult& r) {
    std::vector<double> truth, est;
    for (size_t i = 0; i < instances_.size(); ++i) {
      for (size_t j = 0; j < instances_.size(); ++j) {
        if (i == j) continue;
        if (r.Link(static_cast<int>(i), static_cast<int>(j)).count() == 0) {
          continue;
        }
        truth.push_back(cloud_.ExpectedRtt(instances_[i], instances_[j]));
        est.push_back(r.Link(static_cast<int>(i), static_cast<int>(j)).mean());
      }
    }
    truth = NormalizeToUnitVector(truth);
    est = NormalizeToUnitVector(est);
    double worst = 0;
    for (size_t k = 0; k < truth.size(); ++k) {
      worst = std::max(worst, std::fabs(est[k] - truth[k]) / truth[k]);
    }
    return worst;
  }

  net::CloudSimulator cloud_;
  std::vector<net::Instance> instances_;
};

TEST_F(ProtocolsTest, AllProtocolsRejectTooFewInstances) {
  std::vector<net::Instance> one = {instances_[0]};
  ProtocolOptions opts;
  EXPECT_FALSE(RunTokenPassing(cloud_, one, opts).ok());
  EXPECT_FALSE(RunUncoordinated(cloud_, one, opts).ok());
  EXPECT_FALSE(RunStaged(cloud_, one, opts).ok());
}

TEST_F(ProtocolsTest, AllProtocolsAbortOnCancelledToken) {
  // A pre-tripped token must abort every protocol at its first poll with
  // Status::Cancelled -- the service layer relies on this to stop billed
  // measurement work for abandoned requests.
  ProtocolOptions options;
  options.duration_s = 60.0;
  options.cancel.Cancel();
  for (Protocol protocol : {Protocol::kTokenPassing, Protocol::kUncoordinated,
                            Protocol::kStaged}) {
    auto r = RunProtocol(cloud_, instances_, protocol, options);
    ASSERT_FALSE(r.ok()) << ProtocolName(protocol);
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
        << ProtocolName(protocol) << ": " << r.status().ToString();
  }
}

// Invalid options fail with InvalidArgument before any probe: an infinite
// duration would otherwise spin until the cancel token trips, and a NaN one
// would return an empty run that then fails the coverage check.
TEST_F(ProtocolsTest, AllProtocolsRejectInvalidOptions) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::pair<const char*, ProtocolOptions>> bad;
  for (double d : {inf, -inf, nan, 0.0, -1.0}) {
    ProtocolOptions o;
    o.duration_s = d;
    bad.push_back({"duration_s", o});
  }
  for (double b : {-1.0, inf, nan}) {
    ProtocolOptions o;
    o.msg_bytes = b;
    bad.push_back({"msg_bytes", o});
  }
  for (double t : {inf, -inf, nan}) {
    ProtocolOptions o;
    o.start_t_hours = t;
    bad.push_back({"start_t_hours", o});
  }
  using Runner = Result<MeasurementResult> (*)(
      const net::CloudSimulator&, const std::vector<net::Instance>&,
      const ProtocolOptions&);
  const std::pair<const char*, Runner> runners[] = {
      {"RunTokenPassing", &RunTokenPassing},
      {"RunUncoordinated", &RunUncoordinated},
      {"RunStaged", &RunStaged},
  };
  for (const auto& [field, options] : bad) {
    EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument)
        << field;
    for (Protocol protocol : {Protocol::kTokenPassing,
                              Protocol::kUncoordinated, Protocol::kStaged}) {
      auto r = RunProtocol(cloud_, instances_, protocol, options);
      ASSERT_FALSE(r.ok()) << field << " " << ProtocolName(protocol);
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
          << r.status().ToString();
    }
    for (const auto& [name, run] : runners) {
      auto r = run(cloud_, instances_, options);
      ASSERT_FALSE(r.ok()) << field << " " << name;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
          << r.status().ToString();
    }
  }
  // The boundary values stay valid: 0-byte probes, negative start hours.
  ProtocolOptions edge;
  edge.duration_s = 1.0;
  edge.msg_bytes = 0.0;
  edge.start_t_hours = -3.0;
  EXPECT_TRUE(edge.Validate().ok());
  EXPECT_TRUE(RunStaged(cloud_, instances_, edge).ok());
}

// Protocol runs share the simulator as const (the service's workers do):
// concurrent staged runs with dynamics attached must not race and must
// measure bit-identical matrices.
TEST_F(ProtocolsTest, ConcurrentStagedRunsOnOneCloudAreIdentical) {
  net::DynamicsConfig config;
  config.start_hours = 2.0 / 3600.0;  // relocations start mid-run
  config.episode_rate = 0.3;
  config.relocation_prob = 0.3;
  net::NetworkDynamics dynamics(config, &cloud_.topology());
  cloud_.AttachDynamics(&dynamics);
  const net::CloudSimulator& cloud = cloud_;
  ProtocolOptions opts;
  opts.duration_s = 4;
  opts.seed = 23;
  constexpr int kThreads = 4;
  std::vector<Result<deploy::CostMatrix>> matrices(
      kThreads, Status::Internal("not run"));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto r = RunStaged(cloud, instances_, opts);
      matrices[static_cast<size_t>(t)] =
          r.ok() ? BuildCostMatrix(*r, CostMetric::kMean)
                 : Result<deploy::CostMatrix>(r.status());
    });
  }
  for (std::thread& thread : threads) thread.join();
  cloud_.AttachDynamics(nullptr);
  for (int t = 0; t < kThreads; ++t) {
    const auto& m = matrices[static_cast<size_t>(t)];
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    for (int i = 0; i < m->size(); ++i) {
      for (int j = 0; j < m->size(); ++j) {
        ASSERT_EQ(m->At(i, j), matrices[0]->At(i, j))
            << "thread " << t << " link " << i << "->" << j;
      }
    }
  }
}

// Threads of this process, from /proc/self/task; -1 where there is none.
int ProcessThreads() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return -1;
  int threads = 0;
  for (; it != std::filesystem::directory_iterator(); it.increment(ec)) {
    if (ec) return -1;
    ++threads;
  }
  return threads;
}

// One staged run's bits: every metric's matrix, the virtual time and the
// sample count.
struct StagedBits {
  std::vector<std::vector<double>> matrices;
  double virtual_time_ms = 0.0;
  int64_t total_samples = 0;
  size_t min_link_samples = 0;
};

StagedBits RunStagedBits(const net::CloudSimulator& cloud,
                         const std::vector<net::Instance>& pool,
                         ProtocolOptions options) {
  StagedBits bits;
  auto run = RunStaged(cloud, pool, options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  if (!run.ok()) return bits;
  // A short run over a large pool leaves links unmeasured: fill them, the
  // bits compared are those of the measured links.
  const BuildCostMatrixOptions partial{.allow_missing = true};
  for (CostMetric metric : {CostMetric::kMean, CostMetric::kMeanPlusStdDev,
                            CostMetric::kP99}) {
    auto m = BuildCostMatrix(*run, metric, partial);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    if (m.ok()) bits.matrices.push_back(m->values());
  }
  bits.virtual_time_ms = run->virtual_time_ms;
  bits.total_samples = run->total_samples();
  bits.min_link_samples = std::numeric_limits<size_t>::max();
  const int n = static_cast<int>(pool.size());
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j) {
        bits.min_link_samples =
            std::min(bits.min_link_samples, run->Link(i, j).count());
      }
    }
  }
  return bits;
}

// Each stage's pairs may be split over any number of participants: each
// draws its block's samples from a copy of the stream at the block's
// start, so the matrices of all three metrics (the p99 one through
// reservoirs filled past their 128 slots on pools up to 55), the virtual
// time and the sample count are bit-identical to a one-thread run, on a
// static cloud and with relocation mid-run. Pools of 2, 3 and 5 hold too
// few pairs per stage to split and run on one thread.
TEST(StagedParticipantsTest, EveryParticipantCountMeasuresTheSameBits) {
  struct Case {
    int instances;
    double duration_s;
    bool past_reservoir;  // every link ends with > kReservoirCap samples
  };
  const Case cases[] = {{2, 1.0, true},   {3, 1.0, true},
                        {5, 1.5, true},   {55, 26.0, true},
                        {66, 3.0, false}, {220, 1.0, false}};
  for (const Case& c : cases) {
    for (bool relocation : {false, true}) {
      net::CloudSimulator cloud(net::AmazonEc2Profile(),
                                100 + static_cast<uint64_t>(c.instances));
      auto pool = cloud.Allocate(c.instances);
      ASSERT_TRUE(pool.ok()) << pool.status().ToString();
      net::DynamicsConfig config;
      config.start_hours = 0.25 * c.duration_s / 3600.0;  // moves mid-run
      config.episode_rate = 0.3;
      config.relocation_window_hours = 0.25 * c.duration_s / 3600.0;
      config.relocation_prob = 0.3;
      config.seed = 5;
      net::NetworkDynamics dynamics(config, &cloud.topology());
      if (relocation) cloud.AttachDynamics(&dynamics);

      ProtocolOptions options;
      options.duration_s = c.duration_s;
      options.seed = 31;
      const StagedBits one = RunStagedBits(cloud, *pool, options);
      ASSERT_EQ(one.matrices.size(), 3u);
      if (c.past_reservoir) {
        EXPECT_GT(one.min_link_samples, MeasurementResult::kReservoirCap)
            << c.instances << " instances";
      }
      for (int participants = 2; participants <= 4; ++participants) {
        options.participants = participants;
        const StagedBits many = RunStagedBits(cloud, *pool, options);
        const std::string what = std::to_string(c.instances) +
                                 " instances, " +
                                 std::to_string(participants) +
                                 " participants" +
                                 (relocation ? ", relocation" : "");
        ASSERT_EQ(many.matrices.size(), one.matrices.size()) << what;
        for (size_t m = 0; m < one.matrices.size(); ++m) {
          ASSERT_EQ(many.matrices[m].size(), one.matrices[m].size()) << what;
          EXPECT_EQ(std::memcmp(many.matrices[m].data(),
                                one.matrices[m].data(),
                                one.matrices[m].size() * sizeof(double)),
                    0)
              << what << ", metric " << m;
        }
        EXPECT_EQ(std::memcmp(&many.virtual_time_ms, &one.virtual_time_ms,
                              sizeof(double)),
                  0)
            << what;
        EXPECT_EQ(many.total_samples, one.total_samples) << what;
      }
      cloud.AttachDynamics(nullptr);
    }
  }
}

TEST(StagedParticipantsTest, UsefulParticipantsFollowPairsPerStage) {
  EXPECT_EQ(UsefulParticipants(Protocol::kStaged, 2), 1);
  EXPECT_EQ(UsefulParticipants(Protocol::kStaged, 15), 1);  // 7 pairs
  EXPECT_EQ(UsefulParticipants(Protocol::kStaged, 16), 2);  // 8 pairs
  EXPECT_EQ(UsefulParticipants(Protocol::kStaged, 55), 6);  // 27 pairs
  EXPECT_EQ(UsefulParticipants(Protocol::kStaged, 1000),
            ProtocolOptions::kMaxParticipants);
  EXPECT_EQ(UsefulParticipants(Protocol::kTokenPassing, 55), 1);
  EXPECT_EQ(UsefulParticipants(Protocol::kUncoordinated, 55), 1);
}

// A run given more participants than it puts to work measures on the
// useful number, however many it is given, and reports the number it used.
TEST(StagedParticipantsTest, RunsReportTheParticipantsTheyUsed) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 3);
  auto pool = cloud.Allocate(55);
  ASSERT_TRUE(pool.ok());
  const std::vector<net::Instance> few(pool->begin(), pool->begin() + 5);
  struct Case {
    const std::vector<net::Instance>* instances;
    int given;
    int used;
  };
  const Case cases[] = {{&*pool, 1, 1},
                        {&*pool, 4, 4},
                        {&*pool, ProtocolOptions::kMaxParticipants + 1, 6},
                        {&few, 4, 1}};
  for (const Case& c : cases) {
    ProtocolOptions options;
    options.duration_s = 0.2;
    options.keep_percentiles = false;
    options.participants = c.given;
    EXPECT_TRUE(options.Validate().ok());
    auto r = RunStaged(cloud, *c.instances, options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->participants, c.used)
        << c.instances->size() << " instances, " << c.given << " given";
  }
}

TEST(StagedParticipantsTest, ParticipantsBelowOneAreRejected) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 3);
  auto pool = cloud.Allocate(20);
  ASSERT_TRUE(pool.ok());
  for (int participants : {0, -1}) {
    ProtocolOptions options;
    options.participants = participants;
    EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
    auto r = RunStaged(cloud, *pool, options);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

// A cancel tripped while helpers measure a stage ends the run with
// Cancelled, and every helper is joined before the call returns, on this
// path and on a run that completes.
TEST(StagedParticipantsTest, CancelMidRunReturnsCancelledAndJoinsHelpers) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 9);
  auto pool = cloud.Allocate(55);
  ASSERT_TRUE(pool.ok());
  const int threads_before = ProcessThreads();

  ProtocolOptions options;
  options.participants = 4;
  options.keep_percentiles = false;
  options.duration_s = 1e6;  // runs until cancelled
  std::thread canceller([&options] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    options.cancel.Cancel();
  });
  auto cancelled = RunStaged(cloud, *pool, options);
  canceller.join();
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(ProcessThreads(), threads_before);

  options.cancel = CancelToken();
  options.duration_s = 0.5;
  EXPECT_TRUE(RunStaged(cloud, *pool, options).ok());
  EXPECT_EQ(ProcessThreads(), threads_before);
}

TEST_F(ProtocolsTest, StagedRejectsBadKs) {
  ProtocolOptions opts;
  opts.ks = 0;
  EXPECT_FALSE(RunStaged(cloud_, instances_, opts).ok());
}

TEST_F(ProtocolsTest, TokenPassingCoversAllLinksWithoutInterference) {
  ProtocolOptions opts;
  opts.duration_s = 60;
  opts.seed = 3;
  auto r = RunTokenPassing(cloud_, instances_, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->CoverageFraction(1), 1.0);
  EXPECT_LT(MaxRelativeError(*r), 0.35);  // only sampling noise
}

TEST_F(ProtocolsTest, StagedIsAccurateAndParallel) {
  ProtocolOptions opts;
  opts.duration_s = 60;
  opts.seed = 5;
  auto staged = RunStaged(cloud_, instances_, opts);
  ASSERT_TRUE(staged.ok());
  EXPECT_EQ(staged->CoverageFraction(1), 1.0);
  // Parallelism: staged collects far more samples than token in equal time.
  auto token = RunTokenPassing(cloud_, instances_, opts);
  ASSERT_TRUE(token.ok());
  EXPECT_GT(staged->total_samples(), 3 * token->total_samples());
}

TEST_F(ProtocolsTest, StagedBeatsUncoordinatedAccuracy) {
  // The paper's Fig. 4 finding. Uncoordinated suffers queueing inflation.
  ProtocolOptions opts;
  opts.duration_s = 60;
  opts.seed = 11;
  auto staged = RunStaged(cloud_, instances_, opts);
  auto uncoord = RunUncoordinated(cloud_, instances_, opts);
  ASSERT_TRUE(staged.ok() && uncoord.ok());
  std::vector<double> staged_err, uncoord_err;
  std::vector<double> truth_s, est_s, truth_u, est_u;
  for (size_t i = 0; i < instances_.size(); ++i) {
    for (size_t j = 0; j < instances_.size(); ++j) {
      if (i == j) continue;
      double truth = cloud_.ExpectedRtt(instances_[i], instances_[j]);
      const auto& ls = staged->Link(static_cast<int>(i), static_cast<int>(j));
      const auto& lu = uncoord->Link(static_cast<int>(i), static_cast<int>(j));
      if (ls.count() > 0) {
        truth_s.push_back(truth);
        est_s.push_back(ls.mean());
      }
      if (lu.count() > 0) {
        truth_u.push_back(truth);
        est_u.push_back(lu.mean());
      }
    }
  }
  truth_s = NormalizeToUnitVector(truth_s);
  est_s = NormalizeToUnitVector(est_s);
  truth_u = NormalizeToUnitVector(truth_u);
  est_u = NormalizeToUnitVector(est_u);
  for (size_t k = 0; k < truth_s.size(); ++k) {
    staged_err.push_back(std::fabs(est_s[k] - truth_s[k]) / truth_s[k]);
  }
  for (size_t k = 0; k < truth_u.size(); ++k) {
    uncoord_err.push_back(std::fabs(est_u[k] - truth_u[k]) / truth_u[k]);
  }
  EXPECT_LT(Percentile(staged_err, 90), Percentile(uncoord_err, 90));
  EXPECT_LT(Mean(staged_err), Mean(uncoord_err));
}

TEST_F(ProtocolsTest, LongerMeasurementReducesError) {
  ProtocolOptions shorter, longer;
  shorter.duration_s = 5;
  longer.duration_s = 120;
  shorter.seed = longer.seed = 13;
  auto a = RunStaged(cloud_, instances_, shorter);
  auto b = RunStaged(cloud_, instances_, longer);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LT(MaxRelativeError(*b), MaxRelativeError(*a) + 1e-12);
}

TEST_F(ProtocolsTest, DeterministicGivenSeed) {
  ProtocolOptions opts;
  opts.duration_s = 10;
  opts.seed = 17;
  auto a = RunStaged(cloud_, instances_, opts);
  auto b = RunStaged(cloud_, instances_, opts);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->total_samples(), b->total_samples());
  EXPECT_DOUBLE_EQ(a->Link(0, 1).mean(), b->Link(0, 1).mean());
}

TEST_F(ProtocolsTest, VirtualTimeRoughlyMatchesBudget) {
  ProtocolOptions opts;
  opts.duration_s = 30;
  opts.seed = 19;
  for (Protocol p : {Protocol::kTokenPassing, Protocol::kUncoordinated,
                     Protocol::kStaged}) {
    auto r = RunProtocol(cloud_, instances_, p, opts);
    ASSERT_TRUE(r.ok()) << ProtocolName(p);
    EXPECT_GE(r->virtual_time_ms, 0.9 * 30e3) << ProtocolName(p);
    EXPECT_LE(r->virtual_time_ms, 1.2 * 30e3) << ProtocolName(p);
  }
}

TEST(ProtocolNamesTest, Names) {
  EXPECT_STREQ(ProtocolName(Protocol::kStaged), "Staged");
  EXPECT_STREQ(ProtocolName(Protocol::kTokenPassing), "TokenPassing");
  EXPECT_STREQ(CostMetricName(CostMetric::kMean), "Mean");
  EXPECT_STREQ(CostMetricName(CostMetric::kP99), "99%");
}

TEST(LinkSamplesTest, MomentsAndPercentiles) {
  Rng rng(1);
  MeasurementResult r(2);
  for (int i = 1; i <= 100; ++i) r.Add(0, 1, i, rng);
  const LinkView s = r.Link(0, 1);
  EXPECT_EQ(s.count(), 100u);
  EXPECT_NEAR(s.mean(), 50.5, 1e-9);
  EXPECT_NEAR(s.Percentile(99), 99, 2.0);
  EXPECT_EQ(r.Link(1, 0).count(), 0u);
  EXPECT_EQ(r.total_samples(), 100);
}

TEST(LinkSamplesTest, ReservoirBounded) {
  Rng rng(2);
  MeasurementResult r(2);
  for (int i = 0; i < 100000; ++i) r.Add(1, 0, rng.Uniform(), rng);
  EXPECT_EQ(r.Link(1, 0).count(), 100000u);
  // Percentile still sane from the bounded reservoir.
  EXPECT_NEAR(r.Link(1, 0).Percentile(50), 0.5, 0.15);
}

// The flat moments match OnlineStats bit for bit.
TEST(LinkSamplesTest, MomentsMatchOnlineStats) {
  Rng rng(6), draws(7);
  MeasurementResult r(2, /*keep_percentiles=*/false);
  OnlineStats want;
  for (int i = 0; i < 1000; ++i) {
    const double x = 0.3 + draws.Exponential(4.0);
    r.Add(0, 1, x, rng);
    want.Add(x);
  }
  EXPECT_EQ(r.Link(0, 1).count(), want.count());
  EXPECT_EQ(r.Link(0, 1).mean(), want.mean());
  EXPECT_EQ(r.Link(0, 1).stddev(), want.stddev());
}

TEST(BuildCostMatrixTest, MetricsOrdering) {
  Rng rng(3);
  MeasurementResult r(3);
  for (int k = 0; k < 500; ++k) {
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        if (i != j) r.Add(i, j, 0.5 + rng.Exponential(10.0), rng);
      }
    }
  }
  auto mean = BuildCostMatrix(r, CostMetric::kMean);
  auto mean_sd = BuildCostMatrix(r, CostMetric::kMeanPlusStdDev);
  auto p99 = BuildCostMatrix(r, CostMetric::kP99);
  ASSERT_TRUE(mean.ok() && mean_sd.ok() && p99.ok());
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i == j) continue;
      EXPECT_GT(mean_sd->At(i, j), mean->At(i, j));
      EXPECT_GT(p99->At(i, j), mean->At(i, j));
    }
  }
}

// Unsampled links fail the build by default (a silent 1e6 sentinel poisons
// every downstream solve); opting into the fill reports the gap count.
TEST(BuildCostMatrixTest, UnsampledLinksFailTheBuildByDefault) {
  Rng rng(4);
  MeasurementResult r(3);
  r.Add(0, 1, 0.7, rng);  // 1 of 6 ordered links sampled
  auto failed = BuildCostMatrix(r, CostMetric::kMean);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInvalidArgument);
  // The message carries the counted coverage report.
  EXPECT_NE(failed.status().ToString().find("1 of 6"), std::string::npos)
      << failed.status().ToString();
}

TEST(BuildCostMatrixTest, ExplicitFallbackFillsAndReportsMissingLinks) {
  MeasurementResult r(2);
  BuildCostMatrixOptions opts;
  opts.allow_missing = true;
  opts.fallback_ms = 123.0;
  CostMatrixCoverage coverage;
  auto m = BuildCostMatrix(r, CostMetric::kMean, opts, &coverage);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->At(0, 1), 123.0);
  EXPECT_DOUBLE_EQ(m->At(0, 0), 0.0);
  EXPECT_EQ(coverage.total_links, 2);
  EXPECT_EQ(coverage.missing_links, 2);
  EXPECT_DOUBLE_EQ(coverage.fraction(), 0.0);
}

// min_samples thresholds coverage, not just presence: a link with one sample
// is not covered at min_samples=2.
TEST(BuildCostMatrixTest, MinSamplesGatesCoverage) {
  Rng rng(5);
  MeasurementResult r(2);
  r.Add(0, 1, 0.6, rng);
  r.Add(1, 0, 0.8, rng);
  r.Add(1, 0, 0.9, rng);
  BuildCostMatrixOptions opts;
  opts.min_samples = 2;
  EXPECT_FALSE(BuildCostMatrix(r, CostMetric::kMean, opts).ok());
  opts.min_samples = 1;
  EXPECT_TRUE(BuildCostMatrix(r, CostMetric::kMean, opts).ok());
}

}  // namespace
}  // namespace cloudia::measure
