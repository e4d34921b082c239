#include <gtest/gtest.h>

#include <cmath>
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
  LinkSamples s;
  for (int i = 1; i <= 100; ++i) s.Add(i, rng);
  EXPECT_EQ(s.count(), 100u);
  EXPECT_NEAR(s.mean(), 50.5, 1e-9);
  EXPECT_NEAR(s.Percentile(99), 99, 2.0);
}

TEST(LinkSamplesTest, ReservoirBounded) {
  Rng rng(2);
  LinkSamples s;
  for (int i = 0; i < 100000; ++i) s.Add(rng.Uniform(), rng);
  EXPECT_EQ(s.count(), 100000u);
  // Percentile still sane from the bounded reservoir.
  EXPECT_NEAR(s.Percentile(50), 0.5, 0.15);
}

TEST(BuildCostMatrixTest, MetricsOrdering) {
  Rng rng(3);
  MeasurementResult r(3);
  for (int k = 0; k < 500; ++k) {
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        if (i != j) r.Link(i, j).Add(0.5 + rng.Exponential(10.0), rng);
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
  r.Link(0, 1).Add(0.7, rng);  // 1 of 6 ordered links sampled
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
  r.Link(0, 1).Add(0.6, rng);
  r.Link(1, 0).Add(0.8, rng);
  r.Link(1, 0).Add(0.9, rng);
  BuildCostMatrixOptions opts;
  opts.min_samples = 2;
  EXPECT_FALSE(BuildCostMatrix(r, CostMetric::kMean, opts).ok());
  opts.min_samples = 1;
  EXPECT_TRUE(BuildCostMatrix(r, CostMetric::kMean, opts).ok());
}

}  // namespace
}  // namespace cloudia::measure
