#include "measure/protocols.h"

#include <algorithm>
#include <cmath>

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
  return Status::OK();
}

uint64_t MeasurementProtocolSeed(uint64_t seed) {
  uint64_t s = seed ^ 0x6d656173756572ULL;  // "measur"
  return SplitMix64(s);
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

  double now = 0.0;
  int round = 0;
  int cycle = 0;
  while (now < budget_ms) {
    if (options.cancel.Cancelled()) return CancelledStatus("staged");
    double stage_time = 0.0;
    for (int p = 0; p < nn / 2; ++p) {
      if (options.cancel.Cancelled()) return CancelledStatus("staged");
      int i = circle[static_cast<size_t>(p)];
      int j = circle[static_cast<size_t>(nn - 1 - p)];
      if (i >= n || j >= n) continue;  // bye
      if ((cycle + p) % 2 == 1) std::swap(i, j);  // alternate directions
      double pair_time = 0.0;
      for (int k = 0; k < options.ks; ++k) {
        double rtt = links.Sample(
            i, j, options.msg_bytes,
            HoursAt(options.start_t_hours, now + pair_time), rng);
        pair_time += rtt;
        result.Add(i, j, rtt, rng);
      }
      stage_time = std::max(stage_time, pair_time);
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
