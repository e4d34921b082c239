// cloudia_cli -- command-line front end for the deployment advisor.
//
//   cloudia_cli advise   measure a simulated environment, solve on it and
//                        print the deployment plan (--out saves the matrix)
//   cloudia_cli measure  only measure; save the cost matrix to --out
//   cloudia_cli solve    search a deployment on a saved matrix (--costs)
//
// Flags are cloudia_serve's request keys spelled --key=value, parsed by the
// same grammar (service/request_grammar.h); --help lists them.
#include <cstdio>
#include <string>
#include <vector>

#include "cloudia/session.h"
#include "common/flags.h"
#include "measure/io.h"
#include "obs/obs.h"
#include "service/environment.h"
#include "service/request_grammar.h"

namespace {

using namespace cloudia;
using service::ParsedRequest;

// The --trace / --metrics sinks, attached only when requested so the
// default run pays nothing; Dump() writes them after the work finishes.
struct ObsSinks {
  explicit ObsSinks(const ParsedRequest& r) : request(r) {}
  const ParsedRequest& request;
  obs::Tracer tracer;
  obs::MetricsRegistry registry;

  obs::ObsConfig Config() {
    obs::ObsConfig config;
    if (!request.trace.empty()) config.tracer = &tracer;
    if (!request.metrics.empty()) config.metrics = &registry;
    return config;
  }
  /// Writes the requested files; returns false (with stderr) on I/O error.
  bool Dump() {
    const char* trace = request.trace.c_str();
    const char* metrics = request.metrics.c_str();
    if (*trace != '\0') {
      if (!tracer.WriteChromeTrace(trace)) {
        std::fprintf(stderr, "cannot write trace to %s\n", trace);
        return false;
      }
      std::printf("wrote %zu trace events to %s\n", tracer.event_count(),
                  trace);
    }
    if (*metrics != '\0') {
      if (!registry.WriteJson(metrics, "cloudia_cli")) {
        std::fprintf(stderr, "cannot write metrics to %s\n", metrics);
        return false;
      }
      std::printf("wrote metrics to %s\n", metrics);
    }
    return true;
  }
};

void PrintUsage() {
  std::printf(
      "usage: cloudia_cli <advise|measure|solve> [--key=value ...]\n"
      "\n"
      "keys (the request keys of cloudia_serve lines; [..] = modes that\n"
      "accept the key, none = all):\n%s",
      service::RequestKeyUsage(/*cli=*/true).c_str());
}

// The pool a request solves on: row i of `costs` is `instances[i]`.
struct Pool {
  std::vector<net::Instance> instances;
  deploy::CostMatrix costs;
  double measure_s = 0.0;
};

// solve loads its matrix; advise and measure measure the environment (and
// save the matrix when --out is set).
Result<Pool> ObtainPool(const ParsedRequest& request,
                        const obs::ObsConfig& obs) {
  Pool pool;
  if (request.verb == service::RequestVerb::kSolve) {
    CLOUDIA_ASSIGN_OR_RETURN(measure::LoadedCostMatrix loaded,
                             measure::LoadCostMatrix(request.costs));
    // A saved matrix carries no host identities: instance i is matrix row
    // i, priced as host i by the provider's price model.
    pool.instances.resize(static_cast<size_t>(loaded.costs.size()));
    for (size_t i = 0; i < pool.instances.size(); ++i) {
      pool.instances[i].id = pool.instances[i].host = static_cast<int>(i);
    }
    pool.costs = std::move(loaded.costs);
    return pool;
  }
  obs::Span span(obs.tracer, "cli.measure", "cli");
  CLOUDIA_ASSIGN_OR_RETURN(service::MeasuredEnvironment env,
                           service::MeasureEnvironment(request.environment));
  if (!request.out.empty()) {
    CLOUDIA_RETURN_IF_ERROR(measure::SaveCostMatrix(
        request.out, env.costs,
        measure::CostMetricName(request.environment.metric)));
    std::printf("saved measured cost matrix to %s\n", request.out.c_str());
  }
  return Pool{std::move(env.instances), std::move(env.costs),
              env.measure_virtual_s};
}

// Solves on the pool through the session path the service uses: price the
// pool, adopt the measurement, solve.
Result<SessionSolve> Solve(const ParsedRequest& request, Pool pool,
                           const obs::ObsConfig& obs) {
  SessionOptions options;
  options.obs = obs;
  DeploymentSession session(/*cloud=*/nullptr, request.app.get(), options);
  SolveSpec spec = request.solve;
  CLOUDIA_RETURN_IF_ERROR(service::FillInstancePrices(
      request.environment.provider, pool.instances, &spec.objective));
  CLOUDIA_RETURN_IF_ERROR(session.AdoptMeasurement(
      std::move(pool.instances), std::move(pool.costs), pool.measure_s));
  return session.Solve(spec);
}

void PrintReport(const SessionSolve& solve, size_t allocated,
                 double measure_s) {
  std::printf("ClouDiA deployment report\n");
  std::printf("  allocated instances : %zu\n", allocated);
  std::printf("  used instances      : %zu\n", solve.placement.size());
  std::printf("  spare instances     : %zu (terminate these)\n",
              allocated - solve.placement.size());
  std::printf("  measurement time    : %.1f s (virtual)\n", measure_s);
  std::printf("  search time         : %.2f s (wall, %s)\n", solve.wall_s,
              solve.method.c_str());
  std::printf("  default cost        : %.4f ms\n", solve.default_cost_ms);
  std::printf("  optimized cost      : %.4f ms%s\n", solve.cost_ms,
              solve.result.proven_optimal ? " (proven optimal)" : "");
  std::printf("  predicted reduction : %.1f %%\n",
              100.0 * solve.predicted_improvement);
  const deploy::ObjectiveSpec& objective = solve.objective;
  if (objective.price_weight > 0) {
    double plan_price = 0.0;
    for (int idx : solve.result.deployment) {
      plan_price += objective.instance_prices[static_cast<size_t>(idx)];
    }
    std::printf("  plan price          : %.4f $/hour (weight %g)\n",
                plan_price, objective.price_weight);
  }
  if (objective.migration_weight > 0) {
    int moves = 0;
    for (size_t i = 0; i < solve.result.deployment.size(); ++i) {
      moves += solve.result.deployment[i] != static_cast<int>(i) ? 1 : 0;
    }
    std::printf("  moves vs default    : %d (weight %g ms/move)\n", moves,
                objective.migration_weight);
  }
  std::printf("plan:\n");
  for (size_t i = 0; i < solve.placement.size(); ++i) {
    std::printf("  node %3zu -> instance %3d (%s)\n", i,
                solve.placement[i].id,
                net::IpToString(solve.placement[i].internal_ip).c_str());
  }
}

int Run(const ParsedRequest& request) {
  using service::RequestVerb;
  if (request.verb == RequestVerb::kAdvise) {
    std::printf("application graph: %s\n", request.app->ToString().c_str());
  }
  ObsSinks sinks(request);
  auto pool = ObtainPool(request, sinks.Config());
  if (!pool.ok()) {
    std::fprintf(stderr, "%s\n", pool.status().ToString().c_str());
    return 1;
  }
  const size_t allocated = pool->instances.size();
  const double measure_s = pool->measure_s;
  if (request.verb == RequestVerb::kMeasure) {
    std::printf("measured %zu instances over %.1f virtual s\n", allocated,
                measure_s);
    return 0;
  }
  auto solve = Solve(request, std::move(*pool), sinks.Config());
  if (!solve.ok()) {
    std::fprintf(stderr, "solve failed: %s\n",
                 solve.status().ToString().c_str());
    return 1;
  }
  if (!sinks.Dump()) return 1;
  if (request.verb == RequestVerb::kAdvise) {
    PrintReport(*solve, allocated, measure_s);
    return 0;
  }
  const deploy::NdpSolveResult& result = solve->result;
  std::printf("graph %s, %s / %s: cost %.4f ms%s after %.1f s\n",
              request.app->ToString().c_str(), solve->method.c_str(),
              deploy::ObjectiveName(solve->objective), solve->cost_ms,
              result.proven_optimal ? " (optimal)" : "",
              result.trace.empty() ? 0.0 : result.trace.back().seconds);
  for (size_t i = 0; i < result.deployment.size(); ++i) {
    std::printf("  node %3zu -> instance %3d\n", i, result.deployment[i]);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = cloudia::Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  if (flags->positional().empty() || flags->Has("help")) {
    PrintUsage();
    return flags->Has("help") ? 0 : 2;
  }
  auto request = service::ParseRequestFlags(*flags);
  if (!request.ok()) {
    std::fprintf(stderr, "%s\n", request.status().ToString().c_str());
    return 2;
  }
  return Run(*request);
}
