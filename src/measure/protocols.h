// The three pairwise-latency measurement protocols of paper Sect. 5, run
// against the simulated cloud in virtual time:
//
//   Token passing  -- one probe in flight globally: interference-free but
//                     serial, so coverage grows slowly.
//   Uncoordinated  -- every instance probes a random destination in
//                     parallel; busy destinations queue replies, inflating
//                     measured RTTs (the cross-link correlation the paper
//                     warns about; Fig. 4 shows its error).
//   Staged         -- a coordinator forms floor(n/2) disjoint pairs per
//                     stage, each measuring Ks consecutive RTTs: parallel
//                     *and* interference-free (the paper's choice).
#ifndef CLOUDIA_MEASURE_PROTOCOLS_H_
#define CLOUDIA_MEASURE_PROTOCOLS_H_

#include <cstdint>

#include "common/cancel.h"
#include "common/result.h"
#include "measure/probe_engine.h"
#include "netsim/cloud.h"

namespace cloudia::measure {

enum class Protocol { kTokenPassing, kUncoordinated, kStaged };

const char* ProtocolName(Protocol protocol);

struct ProtocolOptions {
  /// Probe message size (paper: 1 KB TCP round trips).
  double msg_bytes = net::kDefaultProbeBytes;
  /// Virtual measurement duration in seconds.
  double duration_s = 300.0;
  /// Staged only: consecutive RTTs per pair within one stage.
  int ks = 10;
  /// Hour-of-day at which measurement starts (drives mean drift).
  double start_t_hours = 0.0;
  uint64_t seed = 1;
  /// Whether the result keeps a percentile reservoir per link (see
  /// MeasurementResult). Only BuildCostMatrix(kP99) reads one; without it a
  /// run keeps per-link moments only (24 bytes a link instead of 1 KB more),
  /// and a kP99 build on its result fails with InvalidArgument. The random
  /// stream is the same either way, so the mean and mean+SD matrices, the
  /// virtual time and the sample count are bit-identical. Callers that
  /// build one known metric set this to `metric == CostMetric::kP99`.
  bool keep_percentiles = true;
  /// Staged only: threads that measure each stage's pairs, the caller
  /// included (>= 1). Every draw is taken in one stream order before the
  /// stage's pairs are priced, so the result is bit-identical for any
  /// value; only the wall time changes. A run uses at most
  /// UsefulParticipants() of them and reports the number it used in
  /// MeasurementResult::participants.
  int participants = 1;
  /// Cooperative abort: the protocols poll this token between probes and
  /// fail with Status::Cancelled when tripped. A measurement is the billed,
  /// minutes-long step of a real run, so an abandoned request must be able
  /// to stop it mid-flight, not only at the next stage boundary.
  CancelToken cancel;

  /// OK iff duration_s is finite and > 0, msg_bytes finite and >= 0,
  /// start_t_hours finite and participants >= 1. Every
  /// protocol entry point checks this first, so an infinite duration cannot
  /// spin a run until its cancel token trips and a NaN one cannot return an
  /// empty run.
  Status Validate() const;

  /// A staged run splits each stage over at most
  /// floor(pairs per stage / kMinPairsPerParticipant) participants: with
  /// fewer pairs each, the stage handoff costs more than the split saves.
  static constexpr int kMinPairsPerParticipant = 4;
  /// And over at most this many, however large the pool.
  static constexpr int kMaxParticipants = 64;
};

/// Derives the protocol seed from a measurement seed. Applied by
/// MeasureCostMatrix (measure/recipe.h), the recipe every measuring layer
/// goes through.
uint64_t MeasurementProtocolSeed(uint64_t seed);

/// The paper's default measurement budget: 5 minutes per 100 instances,
/// scaled linearly (Sect. 6.2).
double DefaultMeasureDurationS(size_t instance_count);

/// Runs the unique-token protocol. Fails on fewer than 2 instances or
/// invalid options (as do the other protocols). Each run derives every
/// link's parameters once, into a net::LinkTable it owns.
Result<MeasurementResult> RunTokenPassing(
    const net::CloudSimulator& cloud,
    const std::vector<net::Instance>& instances,
    const ProtocolOptions& options);

/// Runs the uncoordinated parallel protocol.
Result<MeasurementResult> RunUncoordinated(
    const net::CloudSimulator& cloud,
    const std::vector<net::Instance>& instances,
    const ProtocolOptions& options);

/// The most participants a run of `protocol` over `instances` puts to
/// work, however many it is given: for a staged run one per
/// kMinPairsPerParticipant pairs of a stage, at most kMaxParticipants and
/// at least 1; 1 for the other protocols. A caller that lends a run
/// threads need lend no more than this.
int UsefulParticipants(Protocol protocol, size_t instances);

/// Runs the staged protocol with a coordinator, each stage's pairs split
/// over min(options.participants, UsefulParticipants()) threads (the caller
/// and helpers it starts and joins before returning, on every path; fewer
/// if the system refuses a thread).
Result<MeasurementResult> RunStaged(const net::CloudSimulator& cloud,
                                    const std::vector<net::Instance>& instances,
                                    const ProtocolOptions& options);

/// Dispatch helper.
Result<MeasurementResult> RunProtocol(const net::CloudSimulator& cloud,
                                      const std::vector<net::Instance>& instances,
                                      Protocol protocol,
                                      const ProtocolOptions& options);

}  // namespace cloudia::measure

#endif  // CLOUDIA_MEASURE_PROTOCOLS_H_
