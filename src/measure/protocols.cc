#include "measure/protocols.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/check.h"
#include "common/rng.h"
#include "measure/event_queue.h"
#include "netsim/link_table.h"

namespace cloudia::measure {

namespace {

// Time an endpoint is occupied handling one message (send or receive): the
// fixed per-message CPU cost plus wire serialization.
double OccupancyMs(const net::CloudSimulator& cloud, double msg_bytes) {
  return cloud.profile().per_message_overhead_ms +
         cloud.model().SerializationMs(msg_bytes);
}

double HoursAt(double start_t_hours, double now_ms) {
  return start_t_hours + now_ms / 3.6e6;
}

Status CancelledStatus(const char* protocol) {
  return Status::Cancelled(std::string(protocol) +
                           " measurement aborted by its cancel token");
}

// Polls a participant spends on a stage handoff before it blocks, about
// 30 us of pause instructions on a 4-core Xeon VM: well above the few us a
// participant waits between two stages of a pool of 55, so a crew on idle
// cores never sleeps mid-run, while one on oversubscribed (or sanitized)
// cores soon stops burning them.
constexpr int kSpinsBeforeBlocking = 2048;

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#endif
}

// Waits until `flag` no longer holds `old` and returns its new value:
// spins briefly, then blocks in std::atomic::wait.
template <typename T>
T AwaitChange(const std::atomic<T>& flag, T old) {
  for (int spin = 0; spin < kSpinsBeforeBlocking; ++spin) {
    const T now = flag.load(std::memory_order_acquire);
    if (now != old) return now;
    CpuRelax();
  }
  T now = flag.load(std::memory_order_acquire);
  while (now == old) {
    flag.wait(old, std::memory_order_acquire);
    now = flag.load(std::memory_order_acquire);
  }
  return now;
}

// Runs one callable on a fixed crew: helper threads started once per
// protocol run, plus the calling leader. Run() releases every helper into
// work(h), h = 0..helpers-1, runs work(helpers) on the leader, and returns
// once each helper has finished; all writes of that round are then visible
// to the leader. The destructor stops and joins the helpers, so none
// outlives the run on any path. Handing each stage's blocks to a
// common/thread_pool ThreadPool instead (a condition-variable wake and a
// future per block) measured slower than one thread on a pool of 55: a
// stage lasts about 10 us, under the pool's wake-up latency.
class StageCrew {
 public:
  StageCrew(int helpers, std::function<void(int)> work)
      : work_(std::move(work)) {
    threads_.reserve(static_cast<size_t>(std::max(helpers, 0)));
    for (int h = 0; h < helpers; ++h) {
      try {
        threads_.emplace_back([this, h] { HelperLoop(h); });
      } catch (const std::system_error&) {
        break;  // no thread to spare: run with the crew started so far
      }
    }
  }
  StageCrew(const StageCrew&) = delete;
  StageCrew& operator=(const StageCrew&) = delete;
  ~StageCrew() {
    stop_.store(true, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    for (std::thread& thread : threads_) thread.join();
  }

  /// Helpers started plus the leader.
  int size() const { return static_cast<int>(threads_.size()) + 1; }

  void Run() {
    const int helpers = static_cast<int>(threads_.size());
    pending_.store(helpers, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    work_(helpers);
    for (int left = pending_.load(std::memory_order_acquire); left != 0;) {
      left = AwaitChange(pending_, left);
    }
  }

 private:
  void HelperLoop(int helper) {
    uint32_t seen = 0;
    for (;;) {
      seen = AwaitChange(epoch_, seen);
      if (stop_.load(std::memory_order_relaxed)) return;
      work_(helper);
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        pending_.notify_one();
      }
    }
  }

  const std::function<void(int)> work_;
  std::atomic<uint32_t> epoch_{0};  // bumped once per round, and to stop
  std::atomic<int> pending_{0};     // helpers still inside this round
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// The random draws of one staged sample, in stream order: its jitter
// uniform, then the reservoir slot of the link's `count`-th sample.
struct SampleDraw {
  double jitter_u;
  uint64_t slot;
};

SampleDraw DrawSample(Rng& rng, size_t count) {
  const double jitter_u = rng.Uniform();
  return {jitter_u, MeasurementResult::DrawSlot(count, rng)};
}

// The shared prologue of every protocol.
Status CheckRun(const std::vector<net::Instance>& instances,
                const ProtocolOptions& options) {
  if (instances.size() < 2) {
    return Status::InvalidArgument("need at least 2 instances");
  }
  return options.Validate();
}

}  // namespace

Status ProtocolOptions::Validate() const {
  if (!std::isfinite(duration_s) || duration_s <= 0) {
    return Status::InvalidArgument(
        "measurement duration_s must be finite and > 0");
  }
  if (!std::isfinite(msg_bytes) || msg_bytes < 0) {
    return Status::InvalidArgument("probe msg_bytes must be finite and >= 0");
  }
  if (!std::isfinite(start_t_hours)) {
    return Status::InvalidArgument("start_t_hours must be finite");
  }
  if (participants < 1) {
    return Status::InvalidArgument("participants must be >= 1, got " +
                                   std::to_string(participants));
  }
  return Status::OK();
}

uint64_t MeasurementProtocolSeed(uint64_t seed) {
  uint64_t s = seed ^ 0x6d656173756572ULL;  // "measur"
  return SplitMix64(s);
}

int UsefulParticipants(Protocol protocol, size_t instances) {
  if (protocol != Protocol::kStaged) return 1;
  const size_t per_pairs =
      instances / 2 / ProtocolOptions::kMinPairsPerParticipant;
  return static_cast<int>(std::clamp<size_t>(
      per_pairs, 1, ProtocolOptions::kMaxParticipants));
}

double DefaultMeasureDurationS(size_t instance_count) {
  return 300.0 * static_cast<double>(instance_count) / 100.0;
}

const char* ProtocolName(Protocol protocol) {
  switch (protocol) {
    case Protocol::kTokenPassing:
      return "TokenPassing";
    case Protocol::kUncoordinated:
      return "Uncoordinated";
    case Protocol::kStaged:
      return "Staged";
  }
  return "Unknown";
}

Result<MeasurementResult> RunTokenPassing(
    const net::CloudSimulator& cloud,
    const std::vector<net::Instance>& instances,
    const ProtocolOptions& options) {
  CLOUDIA_RETURN_IF_ERROR(CheckRun(instances, options));
  const int n = static_cast<int>(instances.size());
  const net::LinkTable links(cloud, instances);
  Rng rng(options.seed);
  MeasurementResult result(n, options.keep_percentiles);
  const double budget_ms = options.duration_s * 1e3;
  // Token passing cost: a small control message to the next holder. Model it
  // as half an RTT of a tiny (64-byte) message.
  const double kTokenBytes = 64;

  // Visit ordered pairs in repeated random sweeps so coverage stays even.
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(static_cast<size_t>(n) * static_cast<size_t>(n - 1));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j) pairs.push_back({i, j});
    }
  }
  double now = 0.0;
  int holder = 0;
  while (now < budget_ms) {
    rng.Shuffle(pairs);
    for (const auto& [i, j] : pairs) {
      if (now >= budget_ms) break;
      if (options.cancel.Cancelled()) return CancelledStatus("token-passing");
      // Pass the token from the current holder to i (unless i holds it).
      if (holder != i) {
        now += 0.5 * links.Sample(holder, i, kTokenBytes,
                                  HoursAt(options.start_t_hours, now), rng);
        holder = i;
      }
      double rtt = links.Sample(i, j, options.msg_bytes,
                                HoursAt(options.start_t_hours, now), rng);
      now += rtt;
      result.Add(i, j, rtt, rng);
    }
  }
  result.virtual_time_ms = now;
  return result;
}

Result<MeasurementResult> RunUncoordinated(
    const net::CloudSimulator& cloud,
    const std::vector<net::Instance>& instances,
    const ProtocolOptions& options) {
  CLOUDIA_RETURN_IF_ERROR(CheckRun(instances, options));
  const int n = static_cast<int>(instances.size());
  const net::LinkTable links(cloud, instances);
  Rng rng(options.seed);
  MeasurementResult result(n, options.keep_percentiles);
  EventQueue queue;
  const double budget_ms = options.duration_s * 1e3;
  const double occupy = OccupancyMs(cloud, options.msg_bytes);
  // busy_until[k]: instance k's NIC/CPU is occupied until this time.
  std::vector<double> busy_until(static_cast<size_t>(n), 0.0);

  // Forward declaration idiom for recursive lambdas via std::function.
  std::function<void(int)> start_probe = [&](int i) {
    // A tripped token stops new probes; the event queue then drains the few
    // replies still in flight and RunAll() returns promptly.
    if (options.cancel.Cancelled()) return;
    if (queue.now_ms() >= budget_ms) return;
    int j = static_cast<int>(rng.Below(static_cast<uint64_t>(n - 1)));
    if (j >= i) ++j;
    double depart = std::max(queue.now_ms(), busy_until[static_cast<size_t>(i)]);
    busy_until[static_cast<size_t>(i)] = depart + occupy;
    double base = links.Sample(
        i, j, options.msg_bytes,
        HoursAt(options.start_t_hours, queue.now_ms()), rng);
    double one_way = std::max(0.0, 0.5 * (base - occupy));
    // Probe arrives at j; waits while j is busy; j replies (occupying
    // itself); the reply flies back to i. A probe that found its target
    // busy additionally pays the VM-scheduling contention penalty ([61]),
    // the cross-link correlation the paper warns about.
    queue.ScheduleAt(depart + occupy + one_way, [&, i, j, depart, one_way]() {
      double handle_start =
          std::max(queue.now_ms(), busy_until[static_cast<size_t>(j)]);
      if (handle_start > queue.now_ms() + 1e-12) {
        handle_start +=
            rng.Exponential(1.0 / cloud.profile().contention_penalty_ms);
      }
      busy_until[static_cast<size_t>(j)] = handle_start + occupy;
      queue.ScheduleAt(handle_start + occupy + one_way,
                       [&, i, j, depart]() {
                         double measured = queue.now_ms() - depart;
                         result.Add(i, j, measured, rng);
                         start_probe(i);  // immediately start the next probe
                       });
    });
  };

  for (int i = 0; i < n; ++i) {
    // Staggered starts within the first millisecond.
    queue.ScheduleAt(rng.Uniform() * 1.0, [&, i]() { start_probe(i); });
  }
  queue.RunAll();
  if (options.cancel.Cancelled()) return CancelledStatus("uncoordinated");
  result.virtual_time_ms = std::min(queue.now_ms(), budget_ms);
  return result;
}

Result<MeasurementResult> RunStaged(const net::CloudSimulator& cloud,
                                    const std::vector<net::Instance>& instances,
                                    const ProtocolOptions& options) {
  CLOUDIA_RETURN_IF_ERROR(CheckRun(instances, options));
  const int n = static_cast<int>(instances.size());
  if (options.ks < 1) return Status::InvalidArgument("ks must be >= 1");
  const net::LinkTable links(cloud, instances);
  Rng rng(options.seed);
  MeasurementResult result(n, options.keep_percentiles);
  const double budget_ms = options.duration_s * 1e3;
  // Stage coordination: the coordinator notifies each pair's prober and
  // waits for completion notices. Modeled as one tiny-message RTT of
  // overhead per stage (notifications to all pairs happen in parallel).
  const double kControlBytes = 64;

  // Round-robin tournament (circle method): nn-1 rounds cover every
  // unordered pair exactly once, so coverage of all links is guaranteed
  // after one full cycle; directions alternate between cycles. This is the
  // coordinator's "picks floor(n/2) pairs such that ..." of Sect. 5.
  const int nn = n + (n % 2);  // odd n gets a bye slot
  std::vector<int> circle(static_cast<size_t>(nn));
  for (int i = 0; i < nn; ++i) circle[static_cast<size_t>(i)] = i;

  // Each stage's live pairs are split into contiguous blocks, one per
  // participant; the leader prices the last. A pair keeps its position in
  // every cycle, so a link stays with one participant. No draw depends on
  // an RTT, so before a stage the leader walks the stream through the
  // draws of every block but the last, handing each block a copy of the
  // stream at its start; each participant then draws its block's samples
  // in stream order from its copy, and the last block's copy ends where
  // the control probe draws next. The result is bit-identical for any crew
  // size, and participants write no shared cache line during a stage.
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(static_cast<size_t>(nn / 2));
  const size_t ks = static_cast<size_t>(options.ks);
  struct alignas(64) Block {  // a cache line per participant
    Rng draws{0};             // the stream at the block's first draw
    double longest_ms = 0.0;  // the block's longest pair
  };
  std::vector<Block> blocks;
  double now = 0.0;
  // A link is measured every other cycle (directions alternate), ks
  // samples at a time, so each of a stage's links holds this many.
  size_t seen = 0;
  auto block_range = [&](int b) {
    const size_t count = pairs.size();
    const size_t participants = blocks.size();
    return std::pair{count * static_cast<size_t>(b) / participants,
                     count * static_cast<size_t>(b + 1) / participants};
  };
  // Prices block `b` from its stream, polling the cancel token per pair.
  auto measure_block = [&](int b) {
    Block& block = blocks[static_cast<size_t>(b)];
    const auto [begin, end] = block_range(b);
    double longest = 0.0;
    for (size_t p = begin; p < end; ++p) {
      if (options.cancel.Cancelled()) return;
      const auto [i, j] = pairs[p];
      CLOUDIA_DCHECK(result.Link(i, j).count() == seen);
      double pair_time = 0.0;
      for (size_t k = 0; k < ks; ++k) {
        const SampleDraw draw = DrawSample(block.draws, seen + k + 1);
        double rtt = links.Sample(
            i, j, options.msg_bytes,
            HoursAt(options.start_t_hours, now + pair_time), draw.jitter_u);
        pair_time += rtt;
        result.Add(i, j, rtt, draw.slot);
      }
      longest = std::max(longest, pair_time);
    }
    block.longest_ms = longest;
  };
  StageCrew crew(std::min(options.participants,
                          UsefulParticipants(Protocol::kStaged,
                                             instances.size())) -
                     1,
                 measure_block);
  blocks.resize(static_cast<size_t>(crew.size()));
  result.participants = crew.size();

  int round = 0;
  int cycle = 0;
  while (now < budget_ms) {
    if (options.cancel.Cancelled()) return CancelledStatus("staged");
    pairs.clear();
    for (int p = 0; p < nn / 2; ++p) {
      int i = circle[static_cast<size_t>(p)];
      int j = circle[static_cast<size_t>(nn - 1 - p)];
      if (i >= n || j >= n) continue;  // bye
      if ((cycle + p) % 2 == 1) std::swap(i, j);  // alternate directions
      pairs.push_back({i, j});
    }
    seen = ks * static_cast<size_t>(cycle / 2);
    for (size_t b = 0; b < blocks.size(); ++b) {
      blocks[b].draws = rng;
      if (b + 1 == blocks.size()) break;
      const auto [begin, end] = block_range(static_cast<int>(b));
      for (size_t draw = begin * ks; draw < end * ks; ++draw) {
        DrawSample(rng, seen + draw % ks + 1);
      }
    }
    crew.Run();
    if (options.cancel.Cancelled()) return CancelledStatus("staged");
    rng = blocks.back().draws;

    double stage_time = 0.0;
    for (const Block& block : blocks) {
      stage_time = std::max(stage_time, block.longest_ms);
    }
    // Coordination overhead: notify + completion, pipelined across pairs.
    stage_time += links.Sample(0, 1, kControlBytes,
                               HoursAt(options.start_t_hours, now), rng);
    now += stage_time;
    // Rotate the circle: position 0 fixed, the rest shift by one.
    std::rotate(circle.begin() + 1, circle.begin() + 2, circle.end());
    if (++round == nn - 1) {
      round = 0;
      ++cycle;
    }
  }
  result.virtual_time_ms = now;
  return result;
}

Result<MeasurementResult> RunProtocol(const net::CloudSimulator& cloud,
                                      const std::vector<net::Instance>& instances,
                                      Protocol protocol,
                                      const ProtocolOptions& options) {
  switch (protocol) {
    case Protocol::kTokenPassing:
      return RunTokenPassing(cloud, instances, options);
    case Protocol::kUncoordinated:
      return RunUncoordinated(cloud, instances, options);
    case Protocol::kStaged:
      return RunStaged(cloud, instances, options);
  }
  return Status::InvalidArgument("unknown protocol");
}

}  // namespace cloudia::measure
