// Service-layer throughput: the cached/coalesced AdvisorService vs naive
// per-request sessions on a mixed multi-tenant workload.
//
// The paper's cost split (Sect. 6.2) is that measurement is the expensive,
// billed step while solving the cached matrix is cheap. A naive deployment
// advisor re-measures per request; the AdvisorService shares measurements
// through its cost-matrix cache (single-flight) and coalesces byte-identical
// requests, so a 32-request workload over a handful of environments pays for
// only a handful of measurements. This bench demonstrates:
//   * >= 5x fewer measurement runs than naive per-request sessions,
//   * higher end-to-end throughput on the same workload,
//   * bit-identical results across repeated --threads=1 service runs.
//
// Flags: --requests=N (default 32), --duration=S (virtual measurement
// seconds per environment, default 45), --threads=N (service workers,
// default 4), --skip-determinism, --json=PATH (unified metrics, see
// bench_util.h).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/timer.h"
#include "graph/templates.h"
#include "service/advisor_service.h"

namespace {

using namespace cloudia;

struct Workload {
  std::vector<service::DeploymentRequest> requests;
  // Graph storage the request pointers refer into (stable addresses).
  std::vector<graph::CommGraph> graphs;
};

// A mixed multi-tenant workload: `n` requests cycling over 4 environments,
// 3 application graphs, 4 solver methods, and 2 objectives, with every 8th
// request a byte-identical twin of its predecessor (coalescing fodder).
Workload BuildWorkload(int n, double measure_duration_s) {
  Workload w;
  w.graphs.push_back(graph::Mesh2D(5, 6));           // 30 nodes
  w.graphs.push_back(graph::AggregationTree(3, 3));  // 13 nodes
  w.graphs.push_back(graph::Mesh2D(4, 5));           // 20 nodes

  struct Env {
    const char* provider;
    int instances;
    uint64_t seed;
  };
  const Env envs[4] = {
      {"ec2", 33, 7}, {"ec2", 44, 8}, {"gce", 33, 9}, {"rackspace", 33, 10}};
  const char* methods[4] = {"g2", "local", "cp", "r1"};

  for (int i = 0; i < n; ++i) {
    if (i % 8 == 7 && !w.requests.empty()) {
      // Byte-identical twin of the previous request.
      w.requests.push_back(w.requests.back());
      continue;
    }
    const Env& env = envs[i % 4];
    service::DeploymentRequest req;
    req.environment.provider = env.provider;
    req.environment.instances = env.instances;
    req.environment.seed = env.seed;
    req.environment.measure_duration_s = measure_duration_s;
    const int graph_idx = i % 3;
    req.app = &w.graphs[static_cast<size_t>(graph_idx)];
    req.solve.method = methods[(i / 4) % 4];
    // LPNDP needs an acyclic graph (and CP is LLNDP-only, paper Sect. 4.4):
    // route longest-path only to non-CP solves on the aggregation tree.
    req.solve.objective = (graph_idx == 1 && i % 2 == 1 &&
                           req.solve.method != std::string("cp"))
                              ? deploy::Objective::kLongestPath
                              : deploy::Objective::kLongestLink;
    req.solve.time_budget_s = 0.3;
    req.solve.cost_clusters = 20;
    req.solve.seed = static_cast<uint64_t>(17 + i / 4);
    req.priority = i % 3;
    w.requests.push_back(std::move(req));
  }
  return w;
}

struct RunOutcome {
  double wall_s = 0.0;
  uint64_t measurements = 0;
  int failed = 0;
  std::vector<double> costs;                         // per request, in order
  std::vector<deploy::Deployment> deployments;       // per request, in order
};

// Naive baseline: every request hand-drives its own measure + solve, exactly
// what callers do without the service layer.
RunOutcome RunNaive(const Workload& w) {
  RunOutcome out;
  Stopwatch clock;
  for (const service::DeploymentRequest& req : w.requests) {
    auto measured = service::MeasureEnvironment(req.environment);
    ++out.measurements;
    if (!measured.ok()) {
      ++out.failed;
      out.costs.push_back(-1);
      out.deployments.emplace_back();
      continue;
    }
    cloudia::SolveSpec spec = req.solve;
    spec.threads = 1;
    auto solve = cloudia::SolveOnPool(*req.app, measured->instances,
                                      measured->costs, spec);
    if (!solve.ok()) {
      ++out.failed;
      out.costs.push_back(-1);
      out.deployments.emplace_back();
      continue;
    }
    out.costs.push_back(solve->cost_ms);
    out.deployments.push_back(solve->result.deployment);
  }
  out.wall_s = clock.ElapsedSeconds();
  return out;
}

RunOutcome RunService(const Workload& w, int threads) {
  service::AdvisorService::Options options;
  options.threads = threads;
  options.start_paused = true;  // schedule = pure function of the workload
  service::AdvisorService advisor(options);

  Stopwatch clock;
  std::vector<service::RequestHandle> handles;
  handles.reserve(w.requests.size());
  for (const service::DeploymentRequest& req : w.requests) {
    handles.push_back(advisor.Submit(req));
  }
  advisor.Resume();

  RunOutcome out;
  for (service::RequestHandle& handle : handles) {
    const service::ServiceResult& r = handle.Wait();
    if (!r.status.ok()) {
      ++out.failed;
      out.costs.push_back(-1);
      out.deployments.emplace_back();
      continue;
    }
    out.costs.push_back(r.solve.cost_ms);
    out.deployments.push_back(r.solve.result.deployment);
  }
  out.wall_s = clock.ElapsedSeconds();
  out.measurements = advisor.cache_stats().measurements;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = Flags::Parse(argc, argv);
  CLOUDIA_CHECK(flags.ok());
  auto requests = flags->GetInt("requests", 32);
  auto duration = flags->GetDouble("duration", 45.0);
  auto threads = flags->GetInt("threads", 4);
  CLOUDIA_CHECK(requests.ok() && duration.ok() && threads.ok());
  const bool skip_determinism = flags->GetBool("skip-determinism", false);

  std::printf(
      "service throughput: %lld mixed requests over 4 environments\n"
      "(measurement: staged protocol, %.0f virtual s per environment)\n\n",
      static_cast<long long>(*requests), *duration);

  Workload w = BuildWorkload(static_cast<int>(*requests), *duration);

  RunOutcome naive = RunNaive(w);
  std::printf("naive per-request sessions : %6.2f s wall, %llu measurements"
              ", %d failed\n",
              naive.wall_s,
              static_cast<unsigned long long>(naive.measurements),
              naive.failed);

  RunOutcome served = RunService(w, static_cast<int>(*threads));
  std::printf("AdvisorService (threads=%lld): %6.2f s wall, "
              "%llu measurements, %d failed\n\n",
              static_cast<long long>(*threads), served.wall_s,
              static_cast<unsigned long long>(served.measurements),
              served.failed);

  const double measure_ratio =
      served.measurements > 0
          ? static_cast<double>(naive.measurements) /
                static_cast<double>(served.measurements)
          : 0.0;
  const double speedup =
      served.wall_s > 0 ? naive.wall_s / served.wall_s : 0.0;
  std::printf("measurement runs : %llu -> %llu (%.1fx fewer; need >= 5x: %s)\n",
              static_cast<unsigned long long>(naive.measurements),
              static_cast<unsigned long long>(served.measurements),
              measure_ratio, measure_ratio >= 5.0 ? "PASS" : "FAIL");
  std::printf("throughput       : %.2fx vs naive (need > 1x: %s)\n", speedup,
              speedup > 1.0 ? "PASS" : "FAIL");

  bool deterministic = true;
  if (!skip_determinism) {
    // Two fresh single-threaded services over the same workload must agree
    // bit-for-bit: costs and deployments.
    RunOutcome a = RunService(w, 1);
    RunOutcome b = RunService(w, 1);
    deterministic = a.costs == b.costs && a.deployments == b.deployments &&
                    a.failed == 0 && b.failed == 0;
    std::printf("determinism      : --threads=1 repeats bit-identical: %s\n",
                deterministic ? "PASS" : "FAIL");
  }

  const bool pass = measure_ratio >= 5.0 && speedup > 1.0 && deterministic &&
                    naive.failed == 0 && served.failed == 0;
  const std::string json_path = flags->GetString("json", "");
  if (!json_path.empty()) {
    // Gated: the measurement-sharing ratio (a deterministic count ratio for
    // a fixed workload -- "near") and the PASS indicators. Informational:
    // wall clocks and the wall-clock speedup (machine-load dependent).
    std::vector<bench::Metric> metrics = {
        {"service.measure_ratio", measure_ratio, "x", "near"},
        {"service.measurements",
         static_cast<double>(served.measurements), "", "near"},
        {"service.speedup", speedup, "x", ""},
        {"service.naive_wall", naive.wall_s, "s", ""},
        {"service.served_wall", served.wall_s, "s", ""},
        {"service.deterministic", deterministic ? 1.0 : 0.0, "bool", "near"},
        {"service.pass", pass ? 1.0 : 0.0, "bool", "near"},
    };
    if (bench::WriteMetricsJson(json_path, "bench_service_throughput",
                                metrics)) {
      std::printf("wrote %s\n", json_path.c_str());
    }
  }
  std::printf("\noverall: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
