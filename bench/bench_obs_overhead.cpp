// Observability overhead: the disabled path must be free, the enabled path
// cheap, and tracing must never change what a solver computes.
//
// Three claims, each a gated metric:
//
//   * obs.disabled_ratio ("lower", baseline 1.0): a hot swap-delta loop
//     with detached obs handles (one null check per iteration -- exactly
//     what instrumented solver code pays when no registry/tracer is
//     attached) vs the same loop bare, timed by bench::AlternatingMinSeconds
//     (short alternating blocks on the thread's CPU clock, ratio of the two
//     minimum block times). PASS requires < 1% overhead.
//   * obs.bit_identical ("near", 1.0): a single-threaded local-search solve
//     with a tracer + registry attached returns the same cost, deployment,
//     and iteration count as the same solve with observability off.
//   * obs.enabled_counter_ns / obs.enabled_span_ns (informational): cost of
//     one attached Counter::Add and one full Begin/End span round trip.
//
// Flags: --nodes=N (default 20), --instances=M (default 40),
// --iters=N (hot-loop iterations per rep and variant, default 2000000),
// --reps=R (reps; min-of-R timing of the enabled path, default 5),
// --seed=N (default 7), --json=PATH.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/timer.h"
#include "deploy/cost.h"
#include "deploy/solve.h"
#include "graph/templates.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using namespace cloudia;

deploy::CostMatrix RandomCosts(int m, Rng& rng) {
  deploy::CostMatrix costs(m);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) {
      if (i != j) costs.At(i, j) = rng.Uniform(0.2, 1.4);
    }
  }
  return costs;
}

// Min-of-reps wall time of `body(iters)`; the min discards scheduler noise.
template <typename Body>
double MinSeconds(int reps, const Body& body) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    body();
    best = std::min(best, watch.ElapsedSeconds());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = Flags::Parse(argc, argv);
  CLOUDIA_CHECK(flags.ok());
  auto nodes_flag = flags->GetInt("nodes", 20);
  auto instances_flag = flags->GetInt("instances", 40);
  auto iters_flag = flags->GetInt("iters", 2000000);
  auto reps_flag = flags->GetInt("reps", 5);
  auto seed_flag = flags->GetInt("seed", 7);
  CLOUDIA_CHECK(nodes_flag.ok() && instances_flag.ok() && iters_flag.ok() &&
                reps_flag.ok() && seed_flag.ok());
  const int nodes = static_cast<int>(*nodes_flag);
  const int instances = static_cast<int>(*instances_flag);
  const long long iters = *iters_flag;
  const int reps = static_cast<int>(*reps_flag);
  const uint64_t seed = static_cast<uint64_t>(*seed_flag);
  const std::string json = flags->GetString("json", "");

  bench::PrintHeader(
      "obs-overhead",
      "observability must observe, not participate: disabled handles cost "
      "one null check and tracing never changes solver output",
      "swap-delta hot loop bare vs with detached obs handles; "
      "single-threaded local solve with and without a tracer attached");

  Rng rng(seed);
  graph::CommGraph app = graph::Mesh2D(4, std::max(2, nodes / 4));
  const int n = app.num_nodes();
  deploy::CostMatrix costs = RandomCosts(std::max(instances, n + 4), rng);
  auto eval = deploy::CostEvaluator::Create(&app, &costs,
                                            deploy::Objective::kLongestLink);
  CLOUDIA_CHECK(eval.ok());
  deploy::Deployment d(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) d[static_cast<size_t>(i)] = i;
  const double base_cost = eval->Cost(d);

  // -- Disabled-path overhead ------------------------------------------------
  // The loop the instrumented solvers actually run: delta-evaluate a swap,
  // and (in the instrumented variant) tick a detached counter + check a null
  // tracer -- the exact disabled-path cost of the call sites added in
  // src/deploy, src/hier, and src/service.
  // Every block runs the same kBlockIters probes, so the blocks of both
  // variants do equal work and their minimums compare directly.
  constexpr long long kBlockIters = 10000;
  volatile double sink = 0.0;
  auto bare = [&] {
    double acc = 0.0;
    for (long long i = 0; i < kBlockIters; ++i) {
      const int a = static_cast<int>(i % n);
      const int b = static_cast<int>((i * 7 + 1) % n);
      acc += eval->SwapDelta(d, base_cost, a, b);
    }
    sink = acc;
  };
  obs::Counter detached_counter;  // no registry: the no-op path
  obs::Tracer* null_tracer = nullptr;
  auto instrumented = [&] {
    double acc = 0.0;
    for (long long i = 0; i < kBlockIters; ++i) {
      const int a = static_cast<int>(i % n);
      const int b = static_cast<int>((i * 7 + 1) % n);
      acc += eval->SwapDelta(d, base_cost, a, b);
      detached_counter.Add();
      if (null_tracer != nullptr) {
        null_tracer->Instant("never", "bench", 0);
      }
    }
    sink = acc;
  };
  const long long blocks =
      std::max(1LL, static_cast<long long>(reps) * iters / kBlockIters);
  const bench::MinBlockSeconds best =
      bench::AlternatingMinSeconds(bare, instrumented, blocks);
  const double bare_s = best.a_s;
  const double instrumented_s = best.b_s;
  const double disabled_ratio = instrumented_s / bare_s;
  std::printf("hot loop: %lld blocks of %lld swap-delta evaluations per "
              "variant, min block on the thread CPU clock\n",
              blocks, kBlockIters);
  std::printf("  bare          : %8.3f us\n", bare_s * 1e6);
  std::printf("  disabled obs  : %8.3f us  (ratio %.4f)\n",
              instrumented_s * 1e6, disabled_ratio);

  // -- Enabled-path cost (informational) -------------------------------------
  obs::MetricsRegistry registry;
  obs::Counter live_counter = registry.counter("bench.ticks");
  const long long counter_iters = std::max(1LL, iters / 4);
  const double counter_s = MinSeconds(reps, [&] {
    for (long long i = 0; i < counter_iters; ++i) live_counter.Add();
  });
  const double counter_ns =
      counter_s / static_cast<double>(counter_iters) * 1e9;
  obs::Tracer tracer;
  const int span_iters = 20000;
  const double span_s = MinSeconds(reps, [&] {
    for (int i = 0; i < span_iters; ++i) {
      obs::Span span(&tracer, "bench", "bench");
    }
  });
  const double span_ns = span_s / span_iters * 1e9;
  std::printf("enabled path: counter add %.1f ns, span begin+end %.0f ns "
              "(mutexed; spans are for stages, not inner loops)\n",
              counter_ns, span_ns);

  // -- Bit-identity under tracing --------------------------------------------
  deploy::NdpSolveOptions sopts;
  sopts.objective = deploy::Objective::kLongestLink;
  sopts.threads = 1;
  sopts.seed = seed;
  sopts.time_budget_s = 5.0;

  deploy::SolveContext plain_context(Deadline::After(10.0));
  plain_context.set_max_threads(1);
  auto plain = deploy::SolveNodeDeploymentByName(app, costs, "local", sopts,
                                                 plain_context);
  CLOUDIA_CHECK(plain.ok());

  obs::Tracer solve_tracer;
  deploy::SolveContext traced_context(Deadline::After(10.0));
  traced_context.set_max_threads(1);
  traced_context.set_obs(&solve_tracer, 0, "local");
  auto traced = deploy::SolveNodeDeploymentByName(app, costs, "local", sopts,
                                                  traced_context);
  CLOUDIA_CHECK(traced.ok());

  const bool bit_identical = plain->cost == traced->cost &&
                             plain->deployment == traced->deployment &&
                             plain->iterations == traced->iterations;
  std::printf("traced solve: cost %.6f vs %.6f, %s (%zu trace events)\n",
              plain->cost, traced->cost,
              bit_identical ? "bit-identical" : "DIVERGED",
              solve_tracer.event_count());

  const bool pass = disabled_ratio < 1.01 && bit_identical;
  std::printf("overall: %s (disabled ratio %.4f < 1.01, outputs %s)\n",
              pass ? "PASS" : "FAIL", disabled_ratio,
              bit_identical ? "identical" : "diverged");

  if (!json.empty()) {
    std::vector<bench::Metric> metrics;
    metrics.push_back({"obs.disabled_ratio", disabled_ratio, "ratio",
                       "lower"});
    metrics.push_back({"obs.bit_identical", bit_identical ? 1.0 : 0.0, "bool",
                       "near"});
    metrics.push_back({"obs.enabled_counter_ns", counter_ns, "ns", ""});
    metrics.push_back({"obs.enabled_span_ns", span_ns, "ns", ""});
    if (!bench::WriteMetricsJson(json, "bench_obs_overhead", metrics)) {
      return 1;
    }
  }
  return pass ? 0 : 1;
}
