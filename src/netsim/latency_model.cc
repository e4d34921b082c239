#include "netsim/latency_model.h"

#include <cmath>
#include <numbers>

#include "common/check.h"

namespace cloudia::net {

namespace {

// Domain-separation tags for the hash chains.
constexpr uint64_t kTagPairNoise = 0x70616972;   // "pair"
constexpr uint64_t kTagRackMult = 0x7261636b;    // "rack"
constexpr uint64_t kTagHotHost = 0x686f7421;     // "hot!"
constexpr uint64_t kTagVmOverhead = 0x766d6f76;  // "vmov"
constexpr uint64_t kTagAsym = 0x6173796d;        // "asym"
constexpr uint64_t kTagJitter = 0x6a697474;      // "jitt"
constexpr uint64_t kTagBurstFrac = 0x62757266;   // "burf"
constexpr uint64_t kTagBurstMag = 0x6275726d;    // "burm"
constexpr uint64_t kTagBurstWin = 0x62757277;    // "burw"
constexpr uint64_t kTagPhase = 0x70686173;       // "phas"

uint64_t Combine(uint64_t a, uint64_t b) {
  uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  return SplitMix64(s);
}

}  // namespace

LatencyModel::LatencyModel(const ProviderProfile& profile,
                           const Topology& topology, uint64_t seed)
    : profile_(profile),
      topology_(&topology),
      seed_(seed),
      drift_w1_(2.0 * std::numbers::pi / profile_.drift_period1_h),
      drift_w2_(2.0 * std::numbers::pi / profile_.drift_period2_h) {}

double LatencyModel::HashUniform(uint64_t key) const {
  uint64_t s = Combine(seed_, key);
  return static_cast<double>(SplitMix64(s) >> 11) * 0x1.0p-53;
}

double LatencyModel::HashNormal(uint64_t key) const {
  double u1 = 1.0 - HashUniform(Combine(key, 1));
  double u2 = HashUniform(Combine(key, 2));
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

LinkParams LatencyModel::Link(int vm_a, int host_a, int vm_b, int host_b) const {
  const Proximity prox = topology_->Classify(host_a, host_b);
  const int level = static_cast<int>(prox);
  double mean = profile_.base_rtt_ms[level];

  // Unordered host-pair key so both directions share the path parameters.
  const uint64_t h_lo = static_cast<uint64_t>(std::min(host_a, host_b));
  const uint64_t h_hi = static_cast<uint64_t>(std::max(host_a, host_b));
  const uint64_t host_pair = Combine(h_lo, h_hi);

  if (prox == Proximity::kSamePod || prox == Proximity::kCrossPod) {
    const uint64_t r_lo = static_cast<uint64_t>(
        std::min(topology_->RackOf(host_a), topology_->RackOf(host_b)));
    const uint64_t r_hi = static_cast<uint64_t>(
        std::max(topology_->RackOf(host_a), topology_->RackOf(host_b)));
    double u = HashUniform(Combine(kTagRackMult, Combine(r_lo, r_hi)));
    mean *= profile_.rack_path_mult_lo +
            u * (profile_.rack_path_mult_hi - profile_.rack_path_mult_lo);
  }

  // Per-host-pair multiplicative lognormal noise.
  mean *= std::exp(profile_.pair_noise_sigma *
                   HashNormal(Combine(kTagPairNoise, host_pair)));

  // Hot (noisy-neighbor) hosts add a fixed penalty to everything they touch.
  for (int h : {host_a, host_b}) {
    double u = HashUniform(Combine(kTagHotHost, static_cast<uint64_t>(h)));
    if (u < profile_.hot_host_fraction) {
      // Second, independent draw for the magnitude.
      mean += profile_.hot_host_extra_ms *
              HashUniform(Combine(kTagHotHost, Combine(7, static_cast<uint64_t>(h))));
    }
  }

  // Per-VM virtualization overhead.
  for (int v : {vm_a, vm_b}) {
    mean += profile_.vm_overhead_ms *
            HashUniform(Combine(kTagVmOverhead, static_cast<uint64_t>(v)));
  }

  // Small directional asymmetry (ordered key).
  const uint64_t ordered =
      Combine(static_cast<uint64_t>(vm_a), static_cast<uint64_t>(vm_b) + 1);
  mean += profile_.asymmetry_ms *
          (2.0 * HashUniform(Combine(kTagAsym, ordered)) - 1.0);

  LinkParams lp;
  lp.static_mean_ms = mean;
  // Jitter scale and burst behavior are properties of the unordered link.
  double ju = HashUniform(Combine(kTagJitter, host_pair));
  lp.jitter_scale_ms =
      profile_.jitter_scale_lo_ms +
      ju * (profile_.jitter_scale_hi_ms - profile_.jitter_scale_lo_ms);
  lp.jitter_rate = 1.0 / lp.jitter_scale_ms;
  double fu = HashUniform(Combine(kTagBurstFrac, host_pair));
  lp.burst_frac = profile_.burst_frac_max * fu * fu * fu;
  double mu = HashUniform(Combine(kTagBurstMag, host_pair));
  lp.burst_magnitude_ms =
      profile_.burst_magnitude_lo_ms +
      mu * mu *
          (profile_.burst_magnitude_hi_ms - profile_.burst_magnitude_lo_ms);
  lp.burst_key = Combine(kTagBurstWin, Combine(seed_, host_pair));
  lp.drift_phase1 = 2.0 * std::numbers::pi *
                    HashUniform(Combine(kTagPhase, Combine(host_pair, 1)));
  lp.drift_phase2 = 2.0 * std::numbers::pi *
                    HashUniform(Combine(kTagPhase, Combine(host_pair, 2)));
  return lp;
}

double LatencyModel::BurstAt(const LinkParams& link, double t_hours) const {
  if (link.burst_frac <= 0.0) return 0.0;
  uint64_t window = static_cast<uint64_t>(
      t_hours * 3600.0 / profile_.burst_window_s);
  uint64_t s = Combine(link.burst_key, window);
  double u = static_cast<double>(SplitMix64(s) >> 11) * 0x1.0p-53;
  if (u >= link.burst_frac) return 0.0;
  // Magnitude wobbles +-30% between windows of the same link.
  double wobble =
      0.7 + 0.6 * (static_cast<double>(SplitMix64(s) >> 11) * 0x1.0p-53);
  return link.burst_magnitude_ms * wobble;
}

double LatencyModel::DriftMultiplier(const LinkParams& link,
                                     double t_hours) const {
  return 1.0 + profile_.drift_amplitude *
                   (0.65 * std::sin(drift_w1_ * t_hours + link.drift_phase1) +
                    0.35 * std::sin(drift_w2_ * t_hours + link.drift_phase2));
}

double LatencyModel::SerializationMs(double msg_bytes) const {
  return msg_bytes * 8.0 / (profile_.bandwidth_gbps * 1e6);
}

double LatencyModel::ExpectedRtt(int vm_a, int host_a, int vm_b, int host_b,
                                 double msg_bytes, double t_hours) const {
  LinkParams lp = Link(vm_a, host_a, vm_b, host_b);
  double rtt = lp.static_mean_ms * DriftMultiplier(lp, t_hours);
  rtt += 2.0 * SerializationMs(msg_bytes);
  rtt += 2.0 * profile_.per_message_overhead_ms;
  rtt += lp.jitter_scale_ms;  // E[Exp(scale)] = scale
  // Long-run expected burst contribution (time-average over windows).
  rtt += lp.burst_frac * lp.burst_magnitude_ms;
  return rtt;
}

double LatencyModel::SampleRtt(int vm_a, int host_a, int vm_b, int host_b,
                               double msg_bytes, double t_hours,
                               Rng& rng) const {
  return SampleRtt(Link(vm_a, host_a, vm_b, host_b), msg_bytes, t_hours, rng);
}

double LatencyModel::SampleRtt(const LinkParams& link, double msg_bytes,
                               double t_hours, Rng& rng) const {
  return SampleRtt(link, msg_bytes, t_hours, rng.Uniform());
}

double LatencyModel::SampleRtt(const LinkParams& link, double msg_bytes,
                               double t_hours, double jitter_u) const {
  double rtt = link.static_mean_ms * DriftMultiplier(link, t_hours);
  rtt += 2.0 * SerializationMs(msg_bytes);
  rtt += 2.0 * profile_.per_message_overhead_ms;
  // Rng::Exponential(rate) of the uniform, term for term.
  rtt += -std::log(1.0 - jitter_u) / link.jitter_rate;
  rtt += BurstAt(link, t_hours);
  return rtt;
}

}  // namespace cloudia::net
