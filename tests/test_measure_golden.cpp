// Bit-identity golden checksums of the measurement protocols.
//
// Each case hashes (FNV-1a) the bits of the measured cost matrices, the
// virtual time and the sample count of one protocol run. The pinned values
// are those of deriving every probe's link afresh with LatencyModel::Link;
// the protocols' per-run net::LinkTable must reproduce them bit for bit.
// Any change to how a probe's RTT is derived, to the order of the RNG draws
// or to the floating-point order of the sample formula changes them. Every
// protocol runs on a static cloud and on one whose NetworkDynamics
// (congestion plus relocation) starts mid-run, so probes both before and
// after VMs move are covered. A run that keeps moments only must agree bit
// for bit with a full run on everything both keep.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "cloudia/session.h"
#include "graph/templates.h"
#include "measure/protocols.h"
#include "netsim/cloud.h"
#include "netsim/dynamics.h"
#include "service/advisor_service.h"
#include "service/environment.h"

namespace cloudia::measure {
namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

uint64_t Fnv1a(const void* data, size_t bytes, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t HashMatrix(const deploy::CostMatrix& m, uint64_t h) {
  return Fnv1a(m.data(),
               static_cast<size_t>(m.size()) * static_cast<size_t>(m.size()) *
                   sizeof(double),
               h);
}

// Mean and p99 matrices (the p99 one pins the reservoir draws too), then
// the virtual time and the sample count.
uint64_t HashRun(const MeasurementResult& r) {
  uint64_t h = kFnvOffset;
  for (CostMetric metric : {CostMetric::kMean, CostMetric::kP99}) {
    auto m = BuildCostMatrix(r, metric);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    if (m.ok()) h = HashMatrix(*m, h);
  }
  h = Fnv1a(&r.virtual_time_ms, sizeof(r.virtual_time_ms), h);
  const int64_t samples = r.total_samples();
  return Fnv1a(&samples, sizeof(samples), h);
}

struct GoldenCase {
  Protocol protocol;
  bool dynamic;
  double duration_s;
  uint64_t want;
};

constexpr GoldenCase kCases[] = {
    {Protocol::kStaged, false, 20.0, 0xc53fba82942ea992ULL},
    {Protocol::kStaged, true, 20.0, 0x0f91b5bccc37aceeULL},
    {Protocol::kTokenPassing, false, 10.0, 0x8531691fe9cdd34bULL},
    {Protocol::kTokenPassing, true, 10.0, 0x84f7d69121041a41ULL},
    {Protocol::kUncoordinated, false, 10.0, 0x103650ef4bc1eb0cULL},
    {Protocol::kUncoordinated, true, 10.0, 0x6d07d2cfa8d67871ULL},
};

Result<MeasurementResult> RunCase(const GoldenCase& c, bool keep_percentiles) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 21);
  auto pool = cloud.Allocate(16);
  EXPECT_TRUE(pool.ok());
  ProtocolOptions options;
  options.duration_s = c.duration_s;
  options.start_t_hours = 2.0;
  options.seed = 99;
  options.keep_percentiles = keep_percentiles;
  net::DynamicsConfig config;
  // Both processes switch on halfway through the run: about 30% of the
  // VMs move to another host and a third of the rack pairs congest.
  config.start_hours = options.start_t_hours + 0.5 * c.duration_s / 3600.0;
  config.episode_rate = 0.3;
  config.relocation_prob = 0.3;
  config.seed = 5;
  net::NetworkDynamics dynamics(config, &cloud.topology());
  if (c.dynamic) cloud.AttachDynamics(&dynamics);
  return RunProtocol(cloud, *pool, c.protocol, options);
}

std::string CaseName(const GoldenCase& c) {
  return std::string(ProtocolName(c.protocol)) +
         (c.dynamic ? " dynamic" : " static");
}

TEST(MeasureGoldenTest, ProtocolRunsAreBitIdentical) {
  for (const GoldenCase& c : kCases) {
    auto r = RunCase(c, /*keep_percentiles=*/true);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const uint64_t got = HashRun(*r);
    EXPECT_EQ(got, c.want) << CaseName(c) << ": got 0x" << std::hex << got;
  }
}

// A moments-only run takes the same random draws as a full one, so the
// mean and mean+SD matrices, the virtual time and the sample count agree
// bit for bit; only the p99 build is refused.
TEST(MeasureGoldenTest, MomentsOnlyRunsMatchFullRuns) {
  for (const GoldenCase& c : kCases) {
    auto full = RunCase(c, /*keep_percentiles=*/true);
    auto moments = RunCase(c, /*keep_percentiles=*/false);
    ASSERT_TRUE(full.ok() && moments.ok()) << CaseName(c);
    EXPECT_TRUE(full->keeps_percentiles());
    EXPECT_FALSE(moments->keeps_percentiles());
    for (CostMetric metric : {CostMetric::kMean, CostMetric::kMeanPlusStdDev}) {
      auto a = BuildCostMatrix(*full, metric);
      auto b = BuildCostMatrix(*moments, metric);
      ASSERT_TRUE(a.ok() && b.ok()) << CaseName(c);
      EXPECT_EQ(HashMatrix(*a, kFnvOffset), HashMatrix(*b, kFnvOffset))
          << CaseName(c) << " " << CostMetricName(metric);
    }
    EXPECT_EQ(full->virtual_time_ms, moments->virtual_time_ms) << CaseName(c);
    EXPECT_EQ(full->total_samples(), moments->total_samples()) << CaseName(c);
    auto p99 = BuildCostMatrix(*moments, CostMetric::kP99);
    ASSERT_FALSE(p99.ok()) << CaseName(c);
    EXPECT_EQ(p99.status().code(), StatusCode::kInvalidArgument);
  }
}

// The dynamic cases must actually see relocations during the run, or they
// would not exercise the relocated-endpoint path.
TEST(MeasureGoldenTest, DynamicCasesRelocateMidRun) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 21);
  auto pool = cloud.Allocate(16);
  ASSERT_TRUE(pool.ok());
  net::DynamicsConfig config;
  config.start_hours = 2.0 + 0.5 * 10.0 / 3600.0;
  config.relocation_prob = 0.3;
  config.seed = 5;
  net::NetworkDynamics dynamics(config, &cloud.topology());
  int before = 0, after = 0;
  for (const net::Instance& inst : *pool) {
    before += dynamics.Relocated(inst.id, inst.host, 2.0) ? 1 : 0;
    after += dynamics.Relocated(inst.id, inst.host, 2.0 + 10.0 / 3600.0) ? 1
                                                                           : 0;
  }
  EXPECT_EQ(before, 0);
  EXPECT_GT(after, 0);
}

// The service's measurement recipe at a cold_measure-sized pool.
TEST(MeasureGoldenTest, MeasureEnvironmentIsBitIdentical) {
  service::EnvironmentSpec spec;
  spec.provider = "ec2";
  spec.instances = 55;
  spec.measure_duration_s = 30.0;
  spec.seed = 7;
  auto env = service::MeasureEnvironment(spec);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  uint64_t h = HashMatrix(env->costs, kFnvOffset);
  h = Fnv1a(&env->measure_virtual_s, sizeof(env->measure_virtual_s), h);
  EXPECT_EQ(h, 0x4b50983145f412a5ULL) << "got 0x" << std::hex << h;
}

// A p99 request through the service and a p99 session both keep the
// percentile reservoirs their matrix is built from.
TEST(MeasureGoldenTest, P99ServiceRequestAndSessionAreBitIdentical) {
  graph::CommGraph app = graph::Mesh2D(3, 4);
  service::DeploymentRequest req;
  req.environment.provider = "ec2";
  req.environment.instances = 14;
  req.environment.metric = CostMetric::kP99;
  req.environment.measure_duration_s = 20.0;
  req.environment.seed = 7;
  req.app = &app;
  req.solve.method = "g2";
  service::AdvisorService::Options options;
  options.threads = 1;
  service::AdvisorService service(options);
  const service::EnvironmentSpec spec = req.environment;
  ASSERT_TRUE(service.Submit(std::move(req)).Wait().status.ok());
  auto cached = service.cache().Get(spec);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  EXPECT_TRUE(cached->hit);
  const uint64_t served = HashMatrix(cached->entry->costs, kFnvOffset);
  EXPECT_EQ(served, 0x68ab235b6b5d22b9ULL) << "got 0x" << std::hex << served;

  net::CloudSimulator cloud(net::AmazonEc2Profile(), 11);
  SessionOptions session_options;
  session_options.metric = CostMetric::kP99;
  session_options.measure_duration_s = 20.0;
  session_options.seed = 7;
  DeploymentSession session(&cloud, &app, session_options);
  ASSERT_TRUE(session.Measure().ok());
  const uint64_t measured = HashMatrix(session.costs(), kFnvOffset);
  EXPECT_EQ(measured, 0x00cbe4f1c5499f98ULL)
      << "got 0x" << std::hex << measured;
}

}  // namespace
}  // namespace cloudia::measure
