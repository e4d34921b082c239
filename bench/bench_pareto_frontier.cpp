// Multi-objective placement: the Pareto frontier over (latency, $/hour,
// migrations) on an over-allocated EC2 pool.
//
// The paper optimizes latency alone; Fig. 13 already shows the hidden
// second axis -- over-allocating instances buys latency at a price. This
// bench makes the trade-off explicit: SolveParetoFrontier sweeps weight
// vectors over the solver stack and returns the non-dominated menu of
// deployments. PASS (exit 0) requires:
//
//   * every frontier point is a valid deployment and no frontier point
//     dominates another (mutual non-dominance);
//   * the frontier covers both single-objective incumbents -- a pure-latency
//     solve and a price-dominant solve, each run independently with the
//     same method and budget slice, must be weakly dominated (or matched)
//     by some frontier point;
//   * the whole frontier repeats bit-identically at --threads=1.
//
// The Fig. 13 slice: the frontier is recomputed at 0% / 25% / 50%
// over-allocation; the minimum-latency point improves (or holds) as the
// pool grows while its price column shows what the improvement costs.
//
// Flags: --nodes=N (default 16), --budget=S (total per frontier, default 5),
// --threads=N (default 1), --seed=N (default 7), --skip-determinism,
// --json=PATH (unified metrics, see bench_util.h).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/timer.h"
#include "deploy/pareto.h"
#include "graph/templates.h"
#include "netsim/provider.h"

namespace {

using namespace cloudia;

struct FrontierRun {
  deploy::ParetoFrontier frontier;
  deploy::Deployment latency_incumbent;
  deploy::Deployment price_incumbent;
};

// The base spec for one pool: EC2 prices per instance, identity reference
// (the default placement node i -> instance i), weights installed per sweep
// point by SolveParetoFrontier.
deploy::ParetoOptions MakeOptions(const std::vector<double>& prices, int n,
                                  double budget_s, int threads,
                                  uint64_t seed) {
  deploy::ParetoOptions popts;
  popts.method = "portfolio";
  // Deterministic members only: g2 is closed-form, local runs a fixed
  // restart schedule -- with a sufficient budget slice neither depends on
  // wall time, so the sweep is bit-reproducible at threads = 1.
  popts.solve.portfolio_members = {"g2", "local"};
  popts.solve.time_budget_s = budget_s;
  popts.solve.threads = threads;
  popts.solve.seed = seed;
  popts.solve.objective.instance_prices = prices;
  popts.solve.objective.reference.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    popts.solve.objective.reference[static_cast<size_t>(i)] = i;
  }
  // Start from the reference so migration-weighted sweeps can stay home.
  popts.solve.initial = popts.solve.objective.reference;
  return popts;
}

deploy::ParetoPoint PricePoint(const deploy::ParetoOptions& popts,
                               const graph::CommGraph& graph,
                               const deploy::CostMatrix& costs,
                               deploy::Deployment d) {
  deploy::ParetoPoint p;
  auto eval = deploy::CostEvaluator::Create(
      &graph, &costs, popts.solve.objective.primary);
  CLOUDIA_CHECK(eval.ok());
  p.latency_ms = eval->LatencyCost(d);
  p.price_per_hour = 0.0;
  for (int inst : d) {
    p.price_per_hour +=
        popts.solve.objective.instance_prices[static_cast<size_t>(inst)];
  }
  p.migrations = 0;
  for (size_t v = 0; v < d.size(); ++v) {
    p.migrations += d[v] != popts.solve.objective.reference[v] ? 1 : 0;
  }
  p.deployment = std::move(d);
  return p;
}

// One single-objective incumbent: the same method, seed, and budget slice
// the sweep gives each weight vector, so the comparison is apples to apples.
deploy::Deployment SolveIncumbent(const deploy::ParetoOptions& popts,
                                  const graph::CommGraph& graph,
                                  const deploy::CostMatrix& costs,
                                  double price_weight, double slice_s) {
  deploy::NdpSolveOptions sopts = popts.solve;
  sopts.objective.price_weight = price_weight;
  sopts.objective.migration_weight = 0.0;
  deploy::SolveContext context(Deadline::After(slice_s));
  context.set_max_threads(sopts.threads);
  auto solved = deploy::SolveNodeDeploymentByName(graph, costs, popts.method,
                                                  sopts, context);
  CLOUDIA_CHECK(solved.ok());
  return std::move(solved->deployment);
}

FrontierRun RunFrontier(const deploy::ParetoOptions& popts,
                        const graph::CommGraph& graph,
                        const deploy::CostMatrix& costs) {
  FrontierRun run;
  auto frontier = deploy::SolveParetoFrontier(graph, costs, popts);
  CLOUDIA_CHECK(frontier.ok());
  run.frontier = std::move(frontier).value();

  // The default sweep sizes its budget as total / (1 + 5 + 3 + 1) slices
  // (anchor, price alphas, migration alphas, mixed); give the incumbents
  // the same slice.
  const double slice_s = popts.solve.time_budget_s / 10.0;
  run.latency_incumbent =
      SolveIncumbent(popts, graph, costs, /*price_weight=*/0.0, slice_s);
  // Price-dominant: weigh a dollar per hour at 1000x the latency scale so
  // the solve is effectively "cheapest valid placement".
  auto anchor = PricePoint(popts, graph, costs, run.latency_incumbent);
  const double dominant =
      1000.0 * anchor.latency_ms / std::max(anchor.price_per_hour, 1e-9);
  run.price_incumbent =
      SolveIncumbent(popts, graph, costs, dominant, slice_s);
  return run;
}

bool WeaklyCovered(const deploy::ParetoFrontier& frontier,
                   const deploy::ParetoPoint& incumbent) {
  for (const deploy::ParetoPoint& p : frontier.points) {
    const bool leq = p.latency_ms <= incumbent.latency_ms &&
                     p.price_per_hour <= incumbent.price_per_hour &&
                     p.migrations <= incumbent.migrations;
    if (leq) return true;
  }
  return false;
}

// 2-D (latency, price) hypervolume proxy: the area weakly dominated by the
// frontier below a reference point set 5% beyond the frontier's own worst
// corner. Higher = a frontier that pushes further into the trade-off space.
double Hypervolume2D(const std::vector<deploy::ParetoPoint>& points) {
  if (points.empty()) return 0.0;
  double ref_latency = 0.0, ref_price = 0.0;
  for (const deploy::ParetoPoint& p : points) {
    ref_latency = std::max(ref_latency, p.latency_ms);
    ref_price = std::max(ref_price, p.price_per_hour);
  }
  ref_latency *= 1.05;
  ref_price *= 1.05;
  // Points arrive sorted by ascending latency; walk them keeping the
  // running price minimum (the 2-D staircase).
  double hv = 0.0;
  double best_price = ref_price;
  double prev_latency = 0.0;
  bool first = true;
  for (const deploy::ParetoPoint& p : points) {
    if (first) {
      prev_latency = p.latency_ms;
      first = false;
    } else if (p.latency_ms > prev_latency) {
      hv += (p.latency_ms - prev_latency) * (ref_price - best_price);
      prev_latency = p.latency_ms;
    }
    best_price = std::min(best_price, p.price_per_hour);
  }
  hv += (ref_latency - prev_latency) * (ref_price - best_price);
  return hv;
}

bool SameFrontier(const deploy::ParetoFrontier& a,
                  const deploy::ParetoFrontier& b) {
  if (a.points.size() != b.points.size()) return false;
  for (size_t i = 0; i < a.points.size(); ++i) {
    if (a.points[i].deployment != b.points[i].deployment ||
        a.points[i].latency_ms != b.points[i].latency_ms ||
        a.points[i].price_per_hour != b.points[i].price_per_hour ||
        a.points[i].migrations != b.points[i].migrations) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = Flags::Parse(argc, argv);
  CLOUDIA_CHECK(flags.ok());
  auto nodes = flags->GetInt("nodes", 16);
  auto budget = flags->GetDouble("budget", 5.0);
  auto threads = flags->GetInt("threads", 1);
  auto seed = flags->GetInt("seed", 7);
  CLOUDIA_CHECK(nodes.ok() && budget.ok() && threads.ok() && seed.ok());
  const bool skip_determinism = flags->GetBool("skip-determinism", false);
  const int n = static_cast<int>(*nodes);

  int rows = 1;
  for (int r = 2; r * r <= n; ++r) {
    if (n % r == 0) rows = r;
  }
  graph::CommGraph app = graph::Mesh2D(rows, n / rows);

  // 50% over-allocated pool; the Fig. 13 slice re-runs on prefixes.
  const int pool_size = n + n / 2;
  bench::CloudFixture fx(net::AmazonEc2Profile(),
                         static_cast<uint64_t>(*seed), pool_size);

  std::printf(
      "pareto frontier over (latency, $/hour, migrations): %d-node mesh,\n"
      "EC2 pool of %d (50%% over-allocated), price model per host, identity "
      "reference\n\n",
      n, pool_size);

  Stopwatch wall;
  auto frontier_at = [&](int used) {
    std::vector<net::Instance> subset(fx.instances.begin(),
                                      fx.instances.begin() + used);
    deploy::CostMatrix costs = bench::MeasuredMeanCosts(
        fx.cloud, subset, /*virtual_s=*/60.0, static_cast<uint64_t>(*seed));
    std::vector<double> prices;
    for (const net::Instance& inst : subset) {
      prices.push_back(net::InstancePrice(fx.cloud.profile(), inst.host));
    }
    deploy::ParetoOptions popts =
        MakeOptions(prices, n, *budget, static_cast<int>(*threads),
                    static_cast<uint64_t>(*seed));
    return std::make_tuple(RunFrontier(popts, app, costs), popts, costs);
  };

  auto [main_run, main_popts, main_costs] = frontier_at(pool_size);
  const deploy::ParetoFrontier& frontier = main_run.frontier;

  std::printf("  latency[ms]   price[$/h]  migrations   (price_w, migr_w)\n");
  for (const deploy::ParetoPoint& p : frontier.points) {
    std::printf("%12.4f %12.4f %11d   (%.4g, %.4g)\n", p.latency_ms,
                p.price_per_hour, p.migrations, p.weights.price_weight,
                p.weights.migration_weight);
  }
  std::printf("\nsolves %d, duplicates dropped %d, dominated dropped %d\n",
              frontier.solves, frontier.duplicates_dropped,
              frontier.dominated_dropped);

  // -- Invariant 1: validity + mutual non-dominance --------------------------
  bool valid = !frontier.points.empty();
  for (const deploy::ParetoPoint& p : frontier.points) {
    valid = valid && deploy::ValidateDeployment(
                         app, p.deployment, main_costs,
                         main_popts.solve.objective.primary)
                         .ok();
  }
  for (const deploy::ParetoPoint& a : frontier.points) {
    for (const deploy::ParetoPoint& b : frontier.points) {
      if (&a != &b && deploy::ParetoDominates(a, b)) valid = false;
    }
  }
  std::printf("frontier valid + mutually non-dominated: %s\n",
              valid ? "PASS" : "FAIL");

  // -- Invariant 2: covers both single-objective incumbents ------------------
  const deploy::ParetoPoint latency_inc =
      PricePoint(main_popts, app, main_costs, main_run.latency_incumbent);
  const deploy::ParetoPoint price_inc =
      PricePoint(main_popts, app, main_costs, main_run.price_incumbent);
  const bool covers = WeaklyCovered(frontier, latency_inc) &&
                      WeaklyCovered(frontier, price_inc);
  std::printf(
      "latency incumbent (%.4f ms, %.4f $/h, %d moves) covered; price\n"
      "incumbent (%.4f ms, %.4f $/h, %d moves) covered: %s\n",
      latency_inc.latency_ms, latency_inc.price_per_hour,
      latency_inc.migrations, price_inc.latency_ms, price_inc.price_per_hour,
      price_inc.migrations, covers ? "PASS" : "FAIL");

  // -- Fig. 13 slice: min-latency point vs over-allocation -------------------
  std::printf("\nFig. 13 slice (min-latency frontier point per pool):\n");
  std::printf("  over-allocation   latency[ms]   price[$/h]\n");
  std::vector<std::pair<int, deploy::ParetoPoint>> slice;
  for (int pct : {0, 25, 50}) {
    const int used = n + n * pct / 100;
    deploy::ParetoPoint best;
    if (pct == 50) {
      best = frontier.points.front();  // sorted by latency
    } else {
      auto [run, popts, costs] = frontier_at(used);
      (void)popts;
      (void)costs;
      CLOUDIA_CHECK(!run.frontier.points.empty());
      best = run.frontier.points.front();
    }
    std::printf("          %3d %%  %12.4f %12.4f\n", pct, best.latency_ms,
                best.price_per_hour);
    slice.emplace_back(pct, best);
  }

  // -- Invariant 3: bit-determinism ------------------------------------------
  bool deterministic = true;
  if (!skip_determinism) {
    auto [repeat, rpopts, rcosts] = frontier_at(pool_size);
    (void)rpopts;
    (void)rcosts;
    deterministic = SameFrontier(frontier, repeat.frontier) &&
                    repeat.latency_incumbent == main_run.latency_incumbent &&
                    repeat.price_incumbent == main_run.price_incumbent;
    std::printf("\nrepeat run bit-identical: %s\n",
                deterministic ? "PASS" : "FAIL");
  }

  const bool pass = valid && covers && deterministic;
  const double hv = Hypervolume2D(frontier.points);
  const int dominance_count =
      frontier.duplicates_dropped + frontier.dominated_dropped;

  const std::string json_path = flags->GetString("json", "");
  if (!json_path.empty()) {
    std::vector<bench::Metric> metrics;
    metrics.push_back({"pareto.hypervolume", hv, "ms*$/h", "higher"});
    metrics.push_back({"pareto.dominance_count",
                       static_cast<double>(dominance_count), "", "higher"});
    metrics.push_back({"pareto.frontier_size",
                       static_cast<double>(frontier.points.size()), "",
                       "near"});
    metrics.push_back(
        {"pareto.covers_incumbents", covers ? 1.0 : 0.0, "bool", "near"});
    metrics.push_back(
        {"pareto.deterministic", deterministic ? 1.0 : 0.0, "bool", "near"});
    for (const auto& [pct, best] : slice) {
      const std::string base = "pareto.oa" + std::to_string(pct) + ".";
      metrics.push_back({base + "latency", best.latency_ms, "ms", "near"});
      metrics.push_back({base + "price", best.price_per_hour, "$/h", ""});
    }
    metrics.push_back({"pareto.pass", pass ? 1.0 : 0.0, "bool", "near"});
    metrics.push_back({"pareto.wall", wall.ElapsedSeconds(), "s", ""});
    if (bench::WriteMetricsJson(json_path, "bench_pareto_frontier", metrics)) {
      std::printf("wrote %s\n", json_path.c_str());
    }
  }
  std::printf("\nwall time: %.2f s\noverall: %s\n", wall.ElapsedSeconds(),
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
