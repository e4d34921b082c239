// Micro-benchmarks (google-benchmark) of the computational kernels under
// ClouDiA: RNG, statistics, 1-D k-means, RTT sampling and the staged
// measurement protocol, CP propagation, subgraph isomorphism, the LP
// simplex, MIP branch-and-bound nodes, cost evaluation, and the DES event
// queue.
#include <benchmark/benchmark.h>

#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "cluster/kmeans1d.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "deploy/cost.h"
#include "deploy/mip_ndp.h"
#include "graph/templates.h"
#include "measure/event_queue.h"
#include "measure/protocols.h"
#include "netsim/cloud.h"
#include "netsim/link_table.h"
#include "solver/cp/alldifferent.h"
#include "solver/cp/subgraph_iso.h"
#include "solver/lp/simplex.h"

namespace {

using namespace cloudia;

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.Next());
}
BENCHMARK(BM_RngNext);

void BM_RngNormal(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.Normal());
}
BENCHMARK(BM_RngNormal);

void BM_OnlineStatsAdd(benchmark::State& state) {
  OnlineStats s;
  Rng rng(2);
  for (auto _ : state) {
    s.Add(rng.Uniform());
    benchmark::DoNotOptimize(s.mean());
  }
}
BENCHMARK(BM_OnlineStatsAdd);

void BM_KMeans1D(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> values;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    values.push_back(std::round(rng.Uniform(0.2, 1.4) * 100) / 100);
  }
  for (auto _ : state) {
    auto r = cluster::KMeans1D(values, 20);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_KMeans1D)->Arg(1000)->Arg(10000);

void BM_ExpectedRtt(benchmark::State& state) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 4);
  auto alloc = cloud.Allocate(100);
  const auto& inst = *alloc;
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cloud.ExpectedRtt(inst[static_cast<size_t>(i % 100)],
                          inst[static_cast<size_t>((i + 7) % 100)]));
    ++i;
  }
}
BENCHMARK(BM_ExpectedRtt);

void BM_SampleRtt(benchmark::State& state) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 5);
  auto alloc = cloud.Allocate(10);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cloud.SampleRtt((*alloc)[0], (*alloc)[1], 1024, 0.0, rng));
  }
}
BENCHMARK(BM_SampleRtt);

// The protocols' per-probe path: parameters from the run's link table.
void BM_LinkTableSample(benchmark::State& state) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 5);
  auto alloc = cloud.Allocate(10);
  const net::LinkTable links(cloud, *alloc);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(links.Sample(0, 1, 1024, 0.0, rng));
  }
}
BENCHMARK(BM_LinkTableSample);

// One staged measurement of an ec2 pool over 5 virtual s, reported per
// sample (the "samples" counter): link-table build, RTT sampling and sample
// accumulation together, the work a cold advise request is made of.
// BM_MeasureStaged keeps the percentile reservoirs (the p99 path);
// BM_MeasureStagedMoments keeps moments only, the path of every mean or
// mean+SD request.
void MeasureStaged(benchmark::State& state, bool keep_percentiles) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 12);
  auto alloc = cloud.Allocate(static_cast<int>(state.range(0)));
  CLOUDIA_CHECK(alloc.ok());
  measure::ProtocolOptions options;
  options.duration_s = 5.0;
  options.keep_percentiles = keep_percentiles;
  int64_t samples = 0;
  for (auto _ : state) {
    auto run = measure::RunStaged(cloud, *alloc, options);
    CLOUDIA_CHECK(run.ok());
    samples = run->total_samples();
    benchmark::DoNotOptimize(samples);
  }
  state.counters["samples"] = static_cast<double>(samples);
}
void BM_MeasureStaged(benchmark::State& state) { MeasureStaged(state, true); }
BENCHMARK(BM_MeasureStaged)->Arg(55);
void BM_MeasureStagedMoments(benchmark::State& state) {
  MeasureStaged(state, false);
}
BENCHMARK(BM_MeasureStagedMoments)->Arg(55);

void BM_AllDifferentPropagate(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  int m = n + n / 10;
  Rng rng(6);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<cp::BitSet> domains(static_cast<size_t>(n),
                                    cp::BitSet(m, true));
    for (auto& d : domains) {
      for (int v = 0; v < m; ++v) {
        if (rng.Bernoulli(0.3)) d.Remove(v);
      }
      if (d.Empty()) d.Insert(0);
    }
    cp::AllDifferent ad(n, m);
    state.ResumeTiming();
    std::vector<int> touched;
    benchmark::DoNotOptimize(ad.Propagate(domains, &touched));
  }
}
BENCHMARK(BM_AllDifferentPropagate)->Arg(50)->Arg(100);

void BM_SubgraphIsoMesh(benchmark::State& state) {
  int side = static_cast<int>(state.range(0));
  graph::CommGraph mesh = graph::Mesh2D(side, side);
  cp::BitMatrix target(mesh.num_nodes(), mesh.num_nodes());
  for (const graph::Edge& e : mesh.edges()) target.Set(e.src, e.dst);
  for (auto _ : state) {
    auto phi = cp::FindSubgraphIsomorphism(mesh, target);
    benchmark::DoNotOptimize(phi);
  }
}
BENCHMARK(BM_SubgraphIsoMesh)->Arg(4)->Arg(6);

void BM_SimplexAssignment(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(7);
  lp::LpProblem p;
  p.num_vars = n * n;
  p.objective.resize(static_cast<size_t>(n * n));
  for (auto& c : p.objective) c = rng.Uniform(1, 10);
  for (int i = 0; i < n; ++i) {
    lp::Row r;
    for (int j = 0; j < n; ++j) r.coeffs.push_back({n * i + j, 1.0});
    r.sense = lp::RowSense::kEq;
    r.rhs = 1;
    p.rows.push_back(r);
  }
  for (int j = 0; j < n; ++j) {
    lp::Row r;
    for (int i = 0; i < n; ++i) r.coeffs.push_back({n * i + j, 1.0});
    r.sense = lp::RowSense::kEq;
    r.rhs = 1;
    p.rows.push_back(r);
  }
  for (auto _ : state) {
    auto s = lp::SolveLp(p);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_SimplexAssignment)->Arg(10)->Arg(20);

// Random link costs in [0.2, 1.4] ms, each direction within 0.02 of a
// shared base (the tests' RandomCosts).
deploy::CostMatrix RandomCosts(int m, Rng& rng) {
  deploy::CostMatrix c(m);
  for (int i = 0; i < m; ++i) {
    for (int j = i + 1; j < m; ++j) {
      const double base = rng.Uniform(0.2, 1.4);
      c.At(i, j) = base + rng.Uniform(-0.02, 0.02);
      c.At(j, i) = base + rng.Uniform(-0.02, 0.02);
    }
  }
  return c;
}

// LPNDP branch and bound on a 13-node aggregation tree over 33 instances,
// capped at a fixed node count and reported per node (the "samples"
// counter): root lazy rounds, dual re-solves after each bound change and
// the cut pool together, the work of the mip class of requests.
void BM_MipNodes(benchmark::State& state) {
  Rng rng(21);
  const graph::CommGraph tree = graph::AggregationTree(3, 3);
  const deploy::CostMatrix costs = RandomCosts(33, rng);
  deploy::MipNdpOptions options;
  options.seed = 4;
  options.max_nodes = state.range(0);
  int64_t nodes = 0;
  for (auto _ : state) {
    auto r = deploy::SolveLpndpMip(tree, costs, options);
    CLOUDIA_CHECK(r.ok());
    nodes = r->iterations;
    benchmark::DoNotOptimize(r->cost);
  }
  state.counters["samples"] = static_cast<double>(nodes);
}
BENCHMARK(BM_MipNodes)->Arg(200);

void BM_CostEvaluatorLongestLink(benchmark::State& state) {
  Rng rng(8);
  graph::CommGraph mesh = graph::Mesh2D(10, 10);
  deploy::CostMatrix costs(110);
  for (int i = 0; i < costs.size(); ++i) {
    for (int j = 0; j < costs.size(); ++j) costs.At(i, j) = rng.Uniform(0.2, 1.4);
  }
  auto eval = deploy::CostEvaluator::Create(&mesh, &costs,
                                            deploy::Objective::kLongestLink);
  deploy::Deployment d = rng.SampleWithoutReplacement(110, 100);
  for (auto _ : state) benchmark::DoNotOptimize(eval->Cost(d));
}
BENCHMARK(BM_CostEvaluatorLongestLink);

// Local-search swap-evaluation kernels: pricing the candidate "swap nodes
// a and b" on a side x side mesh (LLNDP). The Full variant is what the
// descent loop cost before the incremental API (mutate, full O(E)
// re-evaluation, revert); the Delta variant prices the same candidate in
// O(deg) through the evaluator's incident-edge lists. Same probe sequence,
// same answers -- the ratio is the hot-path speedup.
struct SwapEvalFixture {
  explicit SwapEvalFixture(int side, uint64_t seed = 9)
      : rng(seed), mesh(graph::Mesh2D(side, side)) {
    const int n = mesh.num_nodes();
    const int m = n + n / 10;  // the paper's 10% over-allocation
    costs = deploy::CostMatrix(m);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < m; ++j) {
        if (i != j) costs.At(i, j) = rng.Uniform(0.2, 1.4);
      }
    }
    auto created = deploy::CostEvaluator::Create(
        &mesh, &costs, deploy::Objective::kLongestLink);
    CLOUDIA_CHECK(created.ok());
    eval.emplace(std::move(created).value());
    d = rng.SampleWithoutReplacement(m, n);
    cost = eval->Cost(d);
  }

  // Deterministic non-degenerate probe sequence over node pairs.
  void Advance(int* a, int* b) const {
    const int n = mesh.num_nodes();
    *a = (*a + 7) % n;
    *b = (*b + 13) % n;
    if (*a == *b) *b = (*b + 1) % n;
  }

  // An instance no node occupies (exists: m > n), the move kernels' target.
  int FirstUnusedInstance() const {
    std::vector<bool> used(static_cast<size_t>(costs.size()), false);
    for (int s : d) used[static_cast<size_t>(s)] = true;
    int target = 0;
    while (used[static_cast<size_t>(target)]) ++target;
    return target;
  }

  Rng rng;
  graph::CommGraph mesh;
  deploy::CostMatrix costs;
  std::optional<deploy::CostEvaluator> eval;
  deploy::Deployment d;
  double cost = 0.0;
};

// One probe of each kernel: price the swap (a, b), or the move of node a
// to the unused instance `target`, by a full re-evaluation of the mutated
// deployment or through the evaluator's incremental API.
double SwapFull(SwapEvalFixture& fx, int a, int b) {
  std::swap(fx.d[static_cast<size_t>(a)], fx.d[static_cast<size_t>(b)]);
  double c = fx.eval->Cost(fx.d);
  std::swap(fx.d[static_cast<size_t>(a)], fx.d[static_cast<size_t>(b)]);
  return c;
}
double SwapDelta(SwapEvalFixture& fx, int a, int b) {
  return fx.eval->SwapCost(fx.d, fx.cost, a, b);
}
double MoveFull(SwapEvalFixture& fx, int a, int target) {
  int old = fx.d[static_cast<size_t>(a)];
  fx.d[static_cast<size_t>(a)] = target;
  double c = fx.eval->Cost(fx.d);
  fx.d[static_cast<size_t>(a)] = old;
  return c;
}
double MoveDelta(SwapEvalFixture& fx, int a, int target) {
  return fx.eval->MoveCost(fx.d, fx.cost, a, target);
}

// `probes` consecutive probes of one kernel, continuing the probe sequence
// at (*a, *b) for swaps or at *a for moves.
template <double (*Probe)(SwapEvalFixture&, int, int)>
void SwapProbes(SwapEvalFixture& fx, int64_t probes, int* a, int* b) {
  for (int64_t k = 0; k < probes; ++k) {
    benchmark::DoNotOptimize(Probe(fx, *a, *b));
    fx.Advance(a, b);
  }
}
template <double (*Probe)(SwapEvalFixture&, int, int)>
void MoveProbes(SwapEvalFixture& fx, int64_t probes, int target, int* a) {
  const int n = fx.mesh.num_nodes();
  for (int64_t k = 0; k < probes; ++k) {
    benchmark::DoNotOptimize(Probe(fx, *a, target));
    *a = (*a + 7) % n;
  }
}

template <double (*Probe)(SwapEvalFixture&, int, int)>
void BM_SwapEval(benchmark::State& state) {
  SwapEvalFixture fx(static_cast<int>(state.range(0)));
  int a = 0, b = 1;
  for (auto _ : state) SwapProbes<Probe>(fx, 1, &a, &b);
}
template <double (*Probe)(SwapEvalFixture&, int, int)>
void BM_MoveEval(benchmark::State& state) {
  SwapEvalFixture fx(static_cast<int>(state.range(0)));
  const int target = fx.FirstUnusedInstance();
  int a = 0;
  for (auto _ : state) MoveProbes<Probe>(fx, 1, target, &a);
}
void BM_SwapEvalLongestLinkFull(benchmark::State& state) {
  BM_SwapEval<SwapFull>(state);
}
BENCHMARK(BM_SwapEvalLongestLinkFull)->Arg(15)->Arg(24);
void BM_SwapEvalLongestLinkDelta(benchmark::State& state) {
  BM_SwapEval<SwapDelta>(state);
}
BENCHMARK(BM_SwapEvalLongestLinkDelta)->Arg(15)->Arg(24);
void BM_MoveEvalLongestLinkFull(benchmark::State& state) {
  BM_MoveEval<MoveFull>(state);
}
BENCHMARK(BM_MoveEvalLongestLinkFull)->Arg(15)->Arg(24);
void BM_MoveEvalLongestLinkDelta(benchmark::State& state) {
  BM_MoveEval<MoveDelta>(state);
}
BENCHMARK(BM_MoveEvalLongestLinkDelta)->Arg(15)->Arg(24);

// Full/Delta speedups of the evaluator kernels, timed apart from the
// benchmarks above with bench::AlternatingMinSeconds: blocks of the same
// probes alternate on the thread's CPU clock, so a slow phase of the
// machine cannot fall on one side of a pair only.
std::vector<cloudia::bench::Metric> EvalSpeedups() {
  constexpr int64_t kProbes = 512;
  constexpr long long kBlocks = 100;
  std::vector<cloudia::bench::Metric> speedups;
  for (int side : {15, 24}) {
    SwapEvalFixture fx(side);
    const int target = fx.FirstUnusedInstance();
    auto swaps = [&](auto probes) {
      return [&fx, probes] {
        int a = 0, b = 1;
        probes(fx, kProbes, &a, &b);
      };
    };
    auto moves = [&](auto probes) {
      return [&fx, probes, target] {
        int a = 0;
        probes(fx, kProbes, target, &a);
      };
    };
    const cloudia::bench::MinBlockSeconds swap =
        cloudia::bench::AlternatingMinSeconds(
            swaps(SwapProbes<SwapFull>), swaps(SwapProbes<SwapDelta>),
            kBlocks);
    const cloudia::bench::MinBlockSeconds move =
        cloudia::bench::AlternatingMinSeconds(
            moves(MoveProbes<MoveFull>), moves(MoveProbes<MoveDelta>),
            kBlocks);
    const std::string arg = std::to_string(side);
    speedups.push_back({"micro.BM_SwapEvalLongestLink/" + arg + ".speedup",
                        swap.a_s / swap.b_s, "x", "higher"});
    speedups.push_back({"micro.BM_MoveEvalLongestLink/" + arg + ".speedup",
                        move.a_s / move.b_s, "x", "higher"});
  }
  return speedups;
}

void BM_EventQueueChain(benchmark::State& state) {
  for (auto _ : state) {
    measure::EventQueue q;
    int fired = 0;
    std::function<void()> chain = [&] {
      if (++fired < 1000) q.ScheduleAfter(0.1, chain);
    };
    q.ScheduleAt(0, chain);
    benchmark::DoNotOptimize(q.RunAll());
  }
}
BENCHMARK(BM_EventQueueChain);

// Console reporting plus capture of (name, ns/iter) for the unified
// metrics JSON (see bench_util.h) -- the same schema every other bench
// binary emits, so tools/bench_snapshot.cpp needs no per-bench parsing.
// A benchmark that sets a "samples" counter is captured in ns per sample
// (per branch-and-bound node for BM_MipNodes).
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      double ns = run.GetAdjustedRealTime();
      const auto samples = run.counters.find("samples");
      if (samples != run.counters.end() && samples->second.value > 0) {
        ns /= samples->second.value;
      }
      runs_.emplace_back(run.benchmark_name(), ns);
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }

  const std::vector<std::pair<std::string, double>>& runs() const {
    return runs_;
  }

 private:
  std::vector<std::pair<std::string, double>> runs_;
};

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): --json=PATH (or --json PATH) is
// the repo-wide machine-readable-output flag. Most per-kernel times are
// informational (gate ""); the Full/Delta ratios of the cost-eval kernels
// are gated "speedup" metrics (EvalSpeedups), and the staged measurements'
// ns per sample (with and without reservoirs), the MIP's ns per node and
// the 20x20 assignment LP are gated "lower" on absolute time
// (bench_snapshot takes their min over interleaved reps, which discards
// the load noise).
int main(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<size_t>(argc));
  std::string json_path;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      args.push_back(arg);
    }
  }
  std::vector<char*> argp;
  argp.reserve(args.size() + 1);
  for (std::string& arg : args) argp.push_back(arg.data());
  argp.push_back(nullptr);
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, argp.data());
  if (benchmark::ReportUnrecognizedArguments(count, argp.data())) return 1;
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (json_path.empty()) return 0;

  std::vector<cloudia::bench::Metric> metrics;
  for (const auto& [name, ns] : reporter.runs()) {
    const bool gated = name.rfind("BM_MeasureStaged", 0) == 0 ||
                       name.rfind("BM_MipNodes", 0) == 0 ||
                       name == "BM_SimplexAssignment/20";
    metrics.push_back(
        {"micro." + name + ".ns", ns, "ns", gated ? "lower" : ""});
  }
  for (cloudia::bench::Metric& m : EvalSpeedups()) metrics.push_back(m);
  return cloudia::bench::WriteMetricsJson(json_path, "bench_micro_kernels",
                                          metrics)
             ? 0
             : 1;
}
