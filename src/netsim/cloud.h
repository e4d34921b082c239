// The simulated public cloud: allocation of VM instances onto the physical
// topology, internal IP assignment, hop counts, and pairwise RTT queries.
// This is the stand-in for Amazon EC2 / GCE / Rackspace in the paper's
// evaluation; see DESIGN.md "Substitutions" for the calibration rationale.
#ifndef CLOUDIA_NETSIM_CLOUD_H_
#define CLOUDIA_NETSIM_CLOUD_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "netsim/dynamics.h"
#include "netsim/latency_model.h"
#include "netsim/provider.h"
#include "netsim/topology.h"

namespace cloudia::net {

/// Message size used by the paper's probes (1 KB TCP round trips).
constexpr double kDefaultProbeBytes = 1024.0;

/// A virtual machine handed to the tenant. Tenants see only `id` and
/// `internal_ip`; `host`/`slot` are simulator-internal placement facts that
/// no ClouDiA component reads (the advisor works purely from measurements).
struct Instance {
  int id = 0;
  int host = 0;
  int slot = 0;  ///< which VM slot on the host (0-based)
  uint32_t internal_ip = 0;
};

/// Renders an IPv4 address as dotted quad.
std::string IpToString(uint32_t ip);

/// The physical path an ordered link a->b takes at one instant.
struct LinkPath {
  int host_a = 0;  ///< where a runs (its allocation host unless relocated)
  int host_b = 0;
  double multiplier = 1.0;  ///< congestion factor on that path
};

/// A simulated cloud region for one provider profile.
///
/// Placement mimics public-cloud behavior the paper observes: instances of an
/// allocation land non-contiguously over a limited set of racks inside one
/// availability pod, with occasional co-location of two VMs on one host.
class CloudSimulator {
 public:
  CloudSimulator(ProviderProfile profile, uint64_t seed);

  /// Allocates `n` instances at once (like one ec2-run-instance call).
  /// Instance ids continue across calls. Fails when capacity is exhausted.
  Result<std::vector<Instance>> Allocate(int n);

  /// Releases the instances' slots (ClouDiA's "terminate extra instances").
  void Terminate(const std::vector<Instance>& instances);

  /// Overlays time-varying behavior (congestion episodes, VM relocation; see
  /// netsim/dynamics.h) on every subsequent RTT query. Non-owning: the
  /// dynamics must outlive the simulator (or be detached with nullptr). The
  /// overlay is deterministic in (dynamics seed, t_hours), so attaching it
  /// keeps whole-pipeline runs reproducible.
  void AttachDynamics(const NetworkDynamics* dynamics) {
    dynamics_ = dynamics;
  }
  const NetworkDynamics* dynamics() const { return dynamics_; }

  /// Hosts and congestion of the ordered link a->b at `t_hours`: the
  /// allocation hosts and multiplier 1 without dynamics; with dynamics,
  /// relocation first (a live-migrated VM's links take the new path), then
  /// the congestion of the path actually traversed.
  LinkPath PathAt(const Instance& a, const Instance& b, double t_hours) const {
    if (dynamics_ == nullptr) return {a.host, b.host, 1.0};
    LinkPath path;
    path.host_a = dynamics_->EffectiveHost(a.id, a.host, t_hours);
    path.host_b = dynamics_->EffectiveHost(b.id, b.host, t_hours);
    path.multiplier =
        dynamics_->LinkMultiplier(path.host_a, path.host_b, t_hours);
    return path;
  }

  /// Mean RTT of the ordered link a->b (ms) for `msg_bytes` messages at
  /// absolute time `t_hours`; this is the ground truth the measurement
  /// protocols estimate.
  double ExpectedRtt(const Instance& a, const Instance& b,
                     double msg_bytes = kDefaultProbeBytes,
                     double t_hours = 0.0) const;

  /// One stochastic RTT sample (ms), excluding any cross-flow interference
  /// (interference is modeled by the measurement engine, which knows about
  /// concurrency; see measure/probe_engine.h).
  double SampleRtt(const Instance& a, const Instance& b, double msg_bytes,
                   double t_hours, Rng& rng) const;

  /// Router hops between the two instances as TTL probing would report.
  int HopCount(const Instance& a, const Instance& b) const;

  /// IP distance with `group_bits` granularity (paper Appendix 2): number of
  /// leading bit-groups by which the two addresses differ; 0 for identical.
  static int IpDistance(uint32_t ip_a, uint32_t ip_b, int group_bits = 8);

  /// Dense matrix M[i][j] = ExpectedRtt(instances[i], instances[j]) with 0 on
  /// the diagonal.
  std::vector<std::vector<double>> ExpectedRttMatrix(
      const std::vector<Instance>& instances,
      double msg_bytes = kDefaultProbeBytes, double t_hours = 0.0) const;

  const Topology& topology() const { return topology_; }
  const LatencyModel& model() const { return model_; }
  const ProviderProfile& profile() const { return profile_; }

 private:
  uint32_t AssignIp(int host, int slot) const;

  ProviderProfile profile_;
  Topology topology_;
  LatencyModel model_;
  const NetworkDynamics* dynamics_ = nullptr;
  Rng rng_;
  int next_instance_id_ = 0;
  /// host -> number of our VMs currently on it.
  std::unordered_map<int, int> host_occupancy_;
};

}  // namespace cloudia::net

#endif  // CLOUDIA_NETSIM_CLOUD_H_
