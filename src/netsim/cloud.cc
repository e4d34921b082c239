#include "netsim/cloud.h"

#include <algorithm>

#include "common/check.h"
#include "common/table.h"

namespace cloudia::net {

std::string IpToString(uint32_t ip) {
  return StrFormat("%u.%u.%u.%u", (ip >> 24) & 0xff, (ip >> 16) & 0xff,
                   (ip >> 8) & 0xff, ip & 0xff);
}

CloudSimulator::CloudSimulator(ProviderProfile profile, uint64_t seed)
    : profile_(std::move(profile)),
      topology_(profile_.topology),
      model_(profile_, topology_, seed),
      rng_(SplitMix64(seed)) {}

uint32_t CloudSimulator::AssignIp(int host, int slot) const {
  // Addressing scheme (loosely topology-correlated, like EC2's): each pod
  // owns two /16 blocks, 10.(16+2p).0.0/16 ("A") and 10.(17+2p).0.0/16 ("B").
  // A host draws its /24s from block A or B by host parity; the VM in slot s
  // lives in subnet (rack_in_pod + s), so two VMs on one host land in
  // *adjacent* /24s of one /16 (IP distance 2), and adjacent rack indices
  // share /24s even though they are distinct network locations. This yields
  // the paper's Appendix 2 negative result: IP distance orders latency
  // inconsistently (Fig. 16).
  int pod = topology_.PodOf(host);
  int rack_in_pod = topology_.RackOf(host) % profile_.topology.racks_per_pod;
  uint64_t h = static_cast<uint64_t>(host);
  uint32_t block = 16 + 2 * static_cast<uint32_t>(pod) +
                   (static_cast<uint32_t>(SplitMix64(h)) & 1u);
  uint32_t octet3 = static_cast<uint32_t>(rack_in_pod + slot) & 0xff;
  uint32_t octet4 = 1 + static_cast<uint32_t>(
                            SplitMix64(h) >> 32) % 254;  // 1..254
  return (10u << 24) | (block << 16) | (octet3 << 8) | octet4;
}

Result<std::vector<Instance>> CloudSimulator::Allocate(int n) {
  if (n <= 0) return Status::InvalidArgument("allocation size must be > 0");

  // The provider places this request inside one pod, spread over a limited
  // set of racks (non-contiguous but not region-wide).
  int pod = static_cast<int>(rng_.Below(
      static_cast<uint64_t>(profile_.topology.pods)));
  int racks_in_pod = profile_.topology.racks_per_pod;
  int spread = std::min(profile_.allocation_racks, racks_in_pod);
  std::vector<int> rack_choices =
      rng_.SampleWithoutReplacement(racks_in_pod, spread);
  for (int& r : rack_choices) r += pod * racks_in_pod;

  const int slots_per_host = profile_.topology.vm_slots_per_host;
  const int hosts_per_rack = profile_.topology.hosts_per_rack;

  // Hosts of the chosen racks in provider-internal scan order.
  std::vector<int> candidate_hosts;
  for (int rack : rack_choices) {
    int first = topology_.FirstHostOfRack(rack);
    for (int i = 0; i < hosts_per_rack; ++i) candidate_hosts.push_back(first + i);
  }
  rng_.Shuffle(candidate_hosts);

  std::vector<Instance> out;
  out.reserve(static_cast<size_t>(n));
  std::vector<int> partially_used;  // hosts with >=1 of our VMs and free slots
  size_t next_fresh = 0;
  for (int k = 0; k < n; ++k) {
    int host = -1;
    if (!partially_used.empty() && rng_.Bernoulli(profile_.colocate_prob)) {
      size_t idx = static_cast<size_t>(rng_.Below(partially_used.size()));
      host = partially_used[idx];
    } else {
      while (next_fresh < candidate_hosts.size() &&
             host_occupancy_[candidate_hosts[next_fresh]] > 0) {
        ++next_fresh;
      }
      if (next_fresh < candidate_hosts.size()) {
        host = candidate_hosts[next_fresh++];
      } else if (!partially_used.empty()) {
        size_t idx = static_cast<size_t>(rng_.Below(partially_used.size()));
        host = partially_used[idx];
      } else {
        return Status::Infeasible(
            StrFormat("cloud capacity exhausted after %d of %d instances", k,
                      n));
      }
    }
    int slot = host_occupancy_[host]++;
    CLOUDIA_CHECK(slot < slots_per_host);
    if (host_occupancy_[host] >= slots_per_host) {
      partially_used.erase(
          std::remove(partially_used.begin(), partially_used.end(), host),
          partially_used.end());
    } else if (slot == 0) {
      partially_used.push_back(host);
    }
    Instance inst;
    inst.id = next_instance_id_++;
    inst.host = host;
    inst.slot = slot;
    inst.internal_ip = AssignIp(host, slot);
    out.push_back(inst);
  }
  return out;
}

void CloudSimulator::Terminate(const std::vector<Instance>& instances) {
  for (const Instance& inst : instances) {
    auto it = host_occupancy_.find(inst.host);
    if (it != host_occupancy_.end() && it->second > 0) --it->second;
  }
}

double CloudSimulator::ExpectedRtt(const Instance& a, const Instance& b,
                                   double msg_bytes, double t_hours) const {
  CLOUDIA_DCHECK(a.id != b.id);
  const LinkPath path = PathAt(a, b, t_hours);
  return path.multiplier * model_.ExpectedRtt(a.id, path.host_a, b.id,
                                              path.host_b, msg_bytes, t_hours);
}

double CloudSimulator::SampleRtt(const Instance& a, const Instance& b,
                                 double msg_bytes, double t_hours,
                                 Rng& rng) const {
  CLOUDIA_DCHECK(a.id != b.id);
  const LinkPath path = PathAt(a, b, t_hours);
  return path.multiplier * model_.SampleRtt(a.id, path.host_a, b.id,
                                            path.host_b, msg_bytes, t_hours,
                                            rng);
}

int CloudSimulator::HopCount(const Instance& a, const Instance& b) const {
  Proximity p = topology_.Classify(a.host, b.host);
  return profile_.hop_count[static_cast<int>(p)];
}

int CloudSimulator::IpDistance(uint32_t ip_a, uint32_t ip_b, int group_bits) {
  CLOUDIA_CHECK(group_bits >= 1 && group_bits <= 32);
  uint32_t diff = ip_a ^ ip_b;
  if (diff == 0) return 0;
  int common = __builtin_clz(diff);  // leading shared bits
  int differing = 32 - common;
  return (differing + group_bits - 1) / group_bits;
}

std::vector<std::vector<double>> CloudSimulator::ExpectedRttMatrix(
    const std::vector<Instance>& instances, double msg_bytes,
    double t_hours) const {
  size_t n = instances.size();
  std::vector<std::vector<double>> m(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      m[i][j] = ExpectedRtt(instances[i], instances[j], msg_bytes, t_hours);
    }
  }
  return m;
}

}  // namespace cloudia::net
