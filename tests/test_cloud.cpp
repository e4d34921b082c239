#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/stats.h"
#include "netsim/cloud.h"
#include "netsim/dynamics.h"
#include "netsim/link_table.h"

namespace cloudia::net {
namespace {

TEST(CloudTest, AllocateBasics) {
  CloudSimulator cloud(AmazonEc2Profile(), 1);
  auto alloc = cloud.Allocate(100);
  ASSERT_TRUE(alloc.ok()) << alloc.status().ToString();
  EXPECT_EQ(alloc->size(), 100u);
  std::set<int> ids;
  for (const Instance& inst : *alloc) ids.insert(inst.id);
  EXPECT_EQ(ids.size(), 100u);  // distinct ids
}

TEST(CloudTest, RejectsNonPositive) {
  CloudSimulator cloud(AmazonEc2Profile(), 1);
  EXPECT_FALSE(cloud.Allocate(0).ok());
  EXPECT_FALSE(cloud.Allocate(-5).ok());
}

TEST(CloudTest, HostSlotsRespectCapacity) {
  CloudSimulator cloud(AmazonEc2Profile(), 2);
  auto alloc = cloud.Allocate(120);
  ASSERT_TRUE(alloc.ok());
  std::map<int, int> per_host;
  for (const Instance& inst : *alloc) ++per_host[inst.host];
  for (auto& [host, n] : per_host) EXPECT_LE(n, 2);
}

TEST(CloudTest, SomeColocationHappens) {
  CloudSimulator cloud(AmazonEc2Profile(), 3);
  auto alloc = cloud.Allocate(100);
  ASSERT_TRUE(alloc.ok());
  std::map<int, int> per_host;
  for (const Instance& inst : *alloc) ++per_host[inst.host];
  int colocated_hosts = 0;
  for (auto& [host, n] : per_host) colocated_hosts += (n == 2);
  EXPECT_GT(colocated_hosts, 5);  // colocate_prob=0.35 should co-locate some
}

TEST(CloudTest, AllocationStaysWithinOnePod) {
  CloudSimulator cloud(AmazonEc2Profile(), 4);
  auto alloc = cloud.Allocate(100);
  ASSERT_TRUE(alloc.ok());
  std::set<int> pods;
  for (const Instance& inst : *alloc) {
    pods.insert(cloud.topology().PodOf(inst.host));
  }
  EXPECT_EQ(pods.size(), 1u);
}

TEST(CloudTest, TerminateFreesSlots) {
  ProviderProfile p = AmazonEc2Profile();
  p.allocation_racks = 2;  // tiny capacity: 2 racks * 20 hosts * 2 slots = 80
  CloudSimulator cloud(p, 5);
  auto a1 = cloud.Allocate(80);
  ASSERT_TRUE(a1.ok());
  cloud.Terminate(*a1);
  auto a2 = cloud.Allocate(60);
  EXPECT_TRUE(a2.ok()) << a2.status().ToString();
}

TEST(CloudTest, CapacityExhaustionIsReported) {
  ProviderProfile p = AmazonEc2Profile();
  p.allocation_racks = 1;  // 20 hosts * 2 slots = 40 VMs max
  CloudSimulator cloud(p, 6);
  auto r = cloud.Allocate(100);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInfeasible);
}

TEST(CloudTest, ExpectedRttMatrixShape) {
  CloudSimulator cloud(AmazonEc2Profile(), 7);
  auto alloc = cloud.Allocate(10);
  ASSERT_TRUE(alloc.ok());
  auto m = cloud.ExpectedRttMatrix(*alloc);
  ASSERT_EQ(m.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(m[i][i], 0.0);
    for (size_t j = 0; j < 10; ++j) {
      if (i != j) {
        EXPECT_GT(m[i][j], 0.0);
      }
    }
  }
}

// Calibration against paper Fig. 1: CDF of mean pairwise latencies of 100
// m1.large instances; ~10% of pairs above 0.7 ms, bottom ~10% below 0.4 ms,
// range roughly [0.2, 1.4] ms.
TEST(CloudTest, Ec2LatencyCdfMatchesPaperFig1) {
  CloudSimulator cloud(AmazonEc2Profile(), 8);
  auto alloc = cloud.Allocate(100);
  ASSERT_TRUE(alloc.ok());
  std::vector<double> lat;
  for (size_t i = 0; i < alloc->size(); ++i) {
    for (size_t j = 0; j < alloc->size(); ++j) {
      if (i == j) continue;
      lat.push_back(cloud.ExpectedRtt((*alloc)[i], (*alloc)[j]));
    }
  }
  double q10 = Percentile(lat, 10), q90 = Percentile(lat, 90);
  double lo = Percentile(lat, 0.5), hi = Percentile(lat, 99.5);
  EXPECT_LT(q10, 0.45) << "bottom decile should be below ~0.4-0.45 ms";
  EXPECT_GT(q90, 0.62) << "top decile should exceed ~0.65-0.7 ms";
  EXPECT_GT(lo, 0.15);
  EXPECT_LT(hi, 1.6);
  double median = Percentile(lat, 50);
  EXPECT_GT(median, 0.40);
  EXPECT_LT(median, 0.75);
}

// Calibration against paper Fig. 18 (GCE) and Fig. 20 (Rackspace): narrower
// heterogeneity, lower absolute levels.
TEST(CloudTest, GceAndRackspaceCdfShapes) {
  {
    CloudSimulator cloud(GoogleComputeEngineProfile(), 9);
    auto alloc = cloud.Allocate(50);
    ASSERT_TRUE(alloc.ok());
    std::vector<double> lat;
    for (size_t i = 0; i < alloc->size(); ++i)
      for (size_t j = 0; j < alloc->size(); ++j)
        if (i != j) lat.push_back(cloud.ExpectedRtt((*alloc)[i], (*alloc)[j]));
    EXPECT_LT(Percentile(lat, 5), 0.37);
    EXPECT_GT(Percentile(lat, 95), 0.47);
    EXPECT_LT(Percentile(lat, 99.5), 0.9);
  }
  {
    CloudSimulator cloud(RackspaceCloudProfile(), 10);
    auto alloc = cloud.Allocate(50);
    ASSERT_TRUE(alloc.ok());
    std::vector<double> lat;
    for (size_t i = 0; i < alloc->size(); ++i)
      for (size_t j = 0; j < alloc->size(); ++j)
        if (i != j) lat.push_back(cloud.ExpectedRtt((*alloc)[i], (*alloc)[j]));
    EXPECT_LT(Percentile(lat, 5), 0.29);
    EXPECT_GT(Percentile(lat, 95), 0.36);
  }
}

TEST(CloudTest, HopCountTakesKnownValues) {
  CloudSimulator cloud(AmazonEc2Profile(), 11);
  auto alloc = cloud.Allocate(100);
  ASSERT_TRUE(alloc.ok());
  std::set<int> hops;
  for (size_t i = 0; i < alloc->size(); ++i) {
    for (size_t j = i + 1; j < alloc->size(); ++j) {
      hops.insert(cloud.HopCount((*alloc)[i], (*alloc)[j]));
    }
  }
  // Within one pod we can only see same-host/same-rack/same-pod: {0, 1, 3}
  // -- exactly the values the paper observed (Fig. 17).
  for (int h : hops) EXPECT_TRUE(h == 0 || h == 1 || h == 3) << h;
  EXPECT_TRUE(hops.count(3));
}

TEST(CloudTest, IpDistanceDefinition) {
  auto ip = [](int a, int b, int c, int d) {
    return (static_cast<uint32_t>(a) << 24) | (static_cast<uint32_t>(b) << 16) |
           (static_cast<uint32_t>(c) << 8) | static_cast<uint32_t>(d);
  };
  EXPECT_EQ(CloudSimulator::IpDistance(ip(10, 1, 2, 3), ip(10, 1, 2, 3)), 0);
  EXPECT_EQ(CloudSimulator::IpDistance(ip(10, 1, 2, 3), ip(10, 1, 2, 9)), 1);
  EXPECT_EQ(CloudSimulator::IpDistance(ip(10, 1, 2, 3), ip(10, 1, 7, 3)), 2);
  EXPECT_EQ(CloudSimulator::IpDistance(ip(10, 1, 2, 3), ip(10, 9, 2, 3)), 3);
  EXPECT_EQ(CloudSimulator::IpDistance(ip(10, 1, 2, 3), ip(11, 1, 2, 3)), 4);
  // Finer granularity: 16-bit groups.
  EXPECT_EQ(CloudSimulator::IpDistance(ip(10, 1, 2, 3), ip(10, 1, 7, 3), 16), 1);
  EXPECT_EQ(CloudSimulator::IpDistance(ip(10, 1, 2, 3), ip(10, 9, 2, 3), 16), 2);
}

TEST(CloudTest, SameHostPairsHaveIpDistanceTwo) {
  CloudSimulator cloud(AmazonEc2Profile(), 12);
  auto alloc = cloud.Allocate(120);
  ASSERT_TRUE(alloc.ok());
  std::map<int, std::vector<const Instance*>> by_host;
  for (const Instance& inst : *alloc) by_host[inst.host].push_back(&inst);
  int same_host_pairs = 0;
  for (auto& [host, vms] : by_host) {
    if (vms.size() == 2) {
      ++same_host_pairs;
      EXPECT_EQ(CloudSimulator::IpDistance(vms[0]->internal_ip,
                                           vms[1]->internal_ip),
                2);
    }
  }
  EXPECT_GT(same_host_pairs, 0);
}

TEST(CloudTest, IpToStringFormat) {
  EXPECT_EQ(IpToString((10u << 24) | (16u << 16) | (5u << 8) | 7u), "10.16.5.7");
}

TEST(CloudTest, DeterministicAcrossIdenticalSeeds) {
  CloudSimulator c1(AmazonEc2Profile(), 99), c2(AmazonEc2Profile(), 99);
  auto a1 = c1.Allocate(30), a2 = c2.Allocate(30);
  ASSERT_TRUE(a1.ok() && a2.ok());
  for (size_t i = 0; i < 30; ++i) {
    EXPECT_EQ((*a1)[i].host, (*a2)[i].host);
    EXPECT_EQ((*a1)[i].internal_ip, (*a2)[i].internal_ip);
  }
  EXPECT_DOUBLE_EQ(c1.ExpectedRtt((*a1)[0], (*a1)[1]),
                   c2.ExpectedRtt((*a2)[0], (*a2)[1]));
}

// A table sample is the simulator's sample, bit for bit: on a static
// cloud, and under dynamics both before relocation (table entry) and after
// it (the fallback derives the link on the effective hosts).
TEST(LinkTableTest, SampleMatchesCloudSampleRttBitForBit) {
  CloudSimulator cloud(AmazonEc2Profile(), 11);
  auto alloc = cloud.Allocate(12);
  ASSERT_TRUE(alloc.ok());
  const std::vector<Instance>& pool = *alloc;
  const LinkTable table(cloud, pool);
  DynamicsConfig config;
  config.start_hours = 1.0;
  config.episode_rate = 0.3;
  config.relocation_prob = 0.5;
  NetworkDynamics dynamics(config, &cloud.topology());
  int relocated_links = 0;
  const NetworkDynamics* overlays[] = {nullptr, &dynamics};
  for (const NetworkDynamics* attached : overlays) {
    cloud.AttachDynamics(attached);
    for (double t : {0.5, 1.5}) {
      Rng via_table(3), via_cloud(3);
      for (int i = 0; i < 12; ++i) {
        for (int j = 0; j < 12; ++j) {
          if (i == j) continue;
          const Instance& a = pool[static_cast<size_t>(i)];
          const Instance& b = pool[static_cast<size_t>(j)];
          if (attached != nullptr &&
              (dynamics.Relocated(a.id, a.host, t) ||
               dynamics.Relocated(b.id, b.host, t))) {
            ++relocated_links;
          }
          EXPECT_EQ(table.Sample(i, j, 1024, t, via_table),
                    cloud.SampleRtt(a, b, 1024, t, via_cloud))
              << i << "->" << j << " at " << t;
        }
      }
    }
  }
  cloud.AttachDynamics(nullptr);
  EXPECT_GT(relocated_links, 0);
}

}  // namespace
}  // namespace cloudia::net
