// Per-link latency generation. Every quantity is a *deterministic* function of
// (cloud seed, endpoints), derived via SplitMix64 hash chains, so the same
// cloud seed always yields the same network -- which is what makes whole-
// pipeline experiments reproducible and lets ground truth be recomputed on
// demand without caching matrices.
//
// Model of a single RTT sample between VM a on host ha and VM b on host hb at
// absolute time t (hours), message size m bytes:
//
//   rtt = [ base(proximity) * rackmult(rack_a, rack_b) * pairnoise(ha, hb)
//           + hot(ha) + hot(hb) + vm(a) + vm(b) + asym(a, b) ]   (static mean)
//         * drift(link, t)                                        (Figs 2/19/21)
//         + 2 * serialization(m) + 2 * per_message_overhead
//         + Exp(jitter_scale(link))                               (jitter)
//         + [spike? Exp(spike_mean)]                              (rare spikes)
//
// The *expected* RTT (the "mean latency" of the paper's Figs. 1/2/10 etc.) is
// the same expression with the jitter/spike terms replaced by their means.
#ifndef CLOUDIA_NETSIM_LATENCY_MODEL_H_
#define CLOUDIA_NETSIM_LATENCY_MODEL_H_

#include <cstdint>

#include "common/rng.h"
#include "netsim/provider.h"
#include "netsim/topology.h"

namespace cloudia::net {

/// Static per-ordered-link parameters (derived on demand by
/// LatencyModel::Link; a net::LinkTable keeps them for one protocol run).
struct LinkParams {
  double static_mean_ms = 0.0;  ///< mean RTT at t=0 for 0-byte messages
  double jitter_scale_ms = 0.0; ///< mean of the exponential jitter term
  double burst_frac = 0.0;      ///< long-run fraction of time in burst state
  double burst_magnitude_ms = 0.0;  ///< latency added while bursting
  uint64_t burst_key = 0;       ///< hash key for per-window burst decisions
  double drift_phase1 = 0.0;    ///< link-specific drift phases (radians)
  double drift_phase2 = 0.0;
};

class LatencyModel {
 public:
  LatencyModel(const ProviderProfile& profile, const Topology& topology,
               uint64_t seed);

  /// Derives the static parameters of the ordered link (a@ha -> b@hb).
  LinkParams Link(int vm_a, int host_a, int vm_b, int host_b) const;

  /// Mean RTT (ms) including expected jitter/spike contribution, for
  /// `msg_bytes`-sized request+reply at time `t_hours`.
  double ExpectedRtt(int vm_a, int host_a, int vm_b, int host_b,
                     double msg_bytes, double t_hours) const;

  /// One stochastic RTT sample (ms): SampleRtt(Link(...), ...).
  double SampleRtt(int vm_a, int host_a, int vm_b, int host_b,
                   double msg_bytes, double t_hours, Rng& rng) const;

  /// One stochastic RTT sample (ms) of a link whose parameters were derived
  /// already (see net::LinkTable). The one sampling formula.
  double SampleRtt(const LinkParams& link, double msg_bytes, double t_hours,
                   Rng& rng) const;

  /// One-way wire time for `msg_bytes` (ms), used by the interference model.
  double SerializationMs(double msg_bytes) const;

  /// The drift multiplier at time `t_hours` for a given link.
  double DriftMultiplier(const LinkParams& link, double t_hours) const;

  /// Burst latency (ms) the link adds at time `t_hours`: its magnitude when
  /// the enclosing burst window is active, 0 otherwise. Deterministic in
  /// (seed, link, window), so concurrent observers see the same bursts.
  double BurstAt(const LinkParams& link, double t_hours) const;

  const ProviderProfile& profile() const { return profile_; }

 private:
  // Deterministic uniform in [0,1) from hashing `key` into the seed space.
  double HashUniform(uint64_t key) const;
  // Standard normal from two hash-uniforms (Box-Muller).
  double HashNormal(uint64_t key) const;

  ProviderProfile profile_;
  const Topology* topology_;
  uint64_t seed_;
  // Angular frequencies (rad/h) of the two drift components.
  double drift_w1_;
  double drift_w2_;
};

}  // namespace cloudia::net

#endif  // CLOUDIA_NETSIM_LATENCY_MODEL_H_
