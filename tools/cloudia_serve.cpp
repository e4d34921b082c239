// cloudia_serve -- line-delimited request front end for the concurrent
// service::AdvisorService.
//
// Reads one deployment request per line from a file (or stdin), submits them
// all to the service, and streams results back in submission order. Requests
// against the same environment share one measurement through the service's
// cost-matrix cache; byte-identical requests are coalesced onto one solve.
//
// Request lines are whitespace-separated key=value tokens; '#' starts a
// comment. cloudia_cli takes the same keys as flags: both front ends parse
// them with service/request_grammar.h. Example (see
// examples/service_requests.txt):
//
//   provider=ec2 instances=33 graph=mesh nodes=30 method=auto budget=2
//       priority=1 seed=7
//
// Usage:
//   cloudia_serve --file=examples/service_requests.txt --threads=4
//   cloudia_serve --file=- < requests.txt        # stdin
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "obs/obs.h"
#include "service/advisor_service.h"
#include "service/request_grammar.h"

namespace {

using namespace cloudia;

void PrintUsage() {
  std::printf(
      "usage: cloudia_serve [flags]\n"
      "\n"
      "Reads line-delimited deployment requests and streams results.\n"
      "\n"
      "flags:\n"
      "  --file=PATH          request file; '-' = stdin (default '-')\n"
      "  --threads=N          global worker budget (default: hardware;\n"
      "                       1 = deterministic schedule)\n"
      "  --cache-capacity=N   cost-matrix cache slots (default 8)\n"
      "  --cache-ttl=SECONDS  cache entry TTL (default: never expires)\n"
      "  --portfolio-threshold=N  'auto' requests with >= N application\n"
      "                       nodes run the portfolio solver (default 100)\n"
      "  --default-method=M   solver for small 'auto' requests (default cp)\n"
      "  --batch              submit every line before executing, so the\n"
      "                       schedule is a pure function of the file\n"
      "  --trace=FILE         write a Chrome trace_event JSON of the run\n"
      "                       (open in chrome://tracing or Perfetto)\n"
      "  --metrics=FILE       write final counters as bench-schema JSON\n"
      "\n"
      "request line keys (whitespace-separated key=value; '#' comments;\n"
      "[redeploy] = verb=redeploy lines only, which opt the environment into\n"
      "online redeployment):\n%s",
      service::RequestKeyUsage(/*cli=*/false).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  if (flags->Has("help")) {
    PrintUsage();
    return 0;
  }
  auto threads = flags->GetInt("threads", 0);
  auto capacity = flags->GetInt("cache-capacity", 8);
  auto ttl = flags->GetDouble("cache-ttl", 0.0);
  auto threshold = flags->GetInt("portfolio-threshold", 100);
  const Status valid_threads =
      threads.ok() ? service::ValidateThreadCount("--threads", *threads)
                   : threads.status();
  for (const Status& status : {valid_threads, capacity.status(), ttl.status(),
                               threshold.status()}) {
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 2;
    }
  }
  const bool batch = flags->GetBool("batch", false);
  const std::string path = flags->GetString("file", "-");
  const std::string trace_path = flags->GetString("trace", "");
  const std::string metrics_path = flags->GetString("metrics", "");
  const std::string default_method = flags->GetString("default-method", "cp");
  const std::vector<std::string> unknown = flags->UnqueriedFlags();
  if (!unknown.empty()) {
    std::fprintf(stderr, "unknown flag --%s (see --help)\n",
                 unknown[0].c_str());
    return 2;
  }

  std::ifstream file;
  std::istream* in = &std::cin;
  if (path != "-") {
    file.open(path);
    if (!file) {
      std::fprintf(stderr, "cannot open request file '%s'\n", path.c_str());
      return 2;
    }
    in = &file;
  }

  // The registry is always attached (near-free when idle) so `verb=stats`
  // lines and --metrics have data; tracing stays opt-in via --trace.
  obs::MetricsRegistry registry;
  obs::Tracer tracer;

  service::AdvisorService::Options options;
  options.threads = static_cast<int>(*threads);
  options.cache_capacity = static_cast<size_t>(*capacity);
  if (*ttl > 0) options.cache_ttl_s = *ttl;
  options.portfolio_node_threshold = static_cast<int>(*threshold);
  options.default_method = default_method;
  options.start_paused = batch;
  options.obs.metrics = &registry;
  if (!trace_path.empty()) options.obs.tracer = &tracer;
  service::AdvisorService advisor(options);

  // Every request's graph, alive for the service's lifetime (requests hold
  // raw pointers; the service compares graphs by content, not address).
  std::vector<std::shared_ptr<const graph::CommGraph>> graphs;
  // Results print in submission order; deploy and redeploy handles live in
  // separate vectors, `order` interleaves them.
  struct Submitted {
    enum Kind { kDeploy, kRedeploy, kStats };
    Kind kind;
    size_t index;
  };
  std::vector<service::RequestHandle> handles;
  std::vector<service::RedeployHandle> redeploy_handles;
  std::vector<Submitted> order;
  /// Env key -> (policy, line that registered it); guards --batch conflicts.
  std::map<std::string, std::pair<service::RedeployPolicy, int>>
      redeploy_policies;
  std::string line;
  int line_no = 0;
  int parse_errors = 0;
  while (std::getline(*in, line)) {
    ++line_no;
    // Skip blanks and comment lines.
    size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    auto request = service::ParseRequestLine(line);
    if (!request.ok()) {
      std::fprintf(stderr, "line %d: %s\n", line_no,
                   request.status().ToString().c_str());
      ++parse_errors;
      continue;
    }
    if (request->verb == service::RequestVerb::kStats) {
      order.push_back({Submitted::kStats, 0});
    } else if (request->verb == service::RequestVerb::kRedeploy) {
      // The line is the environment's opt-in: register its drift policy.
      // Policies are per *environment* (last registration wins inside the
      // service), so in --batch mode a second line with different drift
      // knobs would silently re-scenario the first line's request -- fail
      // the conflicting line instead. Identical duplicates are fine.
      const std::string env_key = request->environment.Key();
      auto [it, inserted] = redeploy_policies.try_emplace(
          env_key, std::make_pair(request->policy, line_no));
      if (!inserted && !(it->second.first == request->policy)) {
        std::fprintf(stderr,
                     "line %d: environment already opted into redeployment "
                     "with a different drift policy on line %d\n",
                     line_no, it->second.second);
        ++parse_errors;
        continue;
      }
      advisor.EnableRedeployment(request->environment, request->policy);
      service::RedeployRequest redeploy;
      redeploy.environment = request->environment;
      redeploy.app = request->app.get();
      redeploy.solve = request->solve;  // solve.objective governs the plans
      redeploy.max_migrations = request->max_migrations;
      redeploy.checks = request->checks;
      order.push_back({Submitted::kRedeploy, redeploy_handles.size()});
      redeploy_handles.push_back(advisor.SubmitRedeploy(std::move(redeploy)));
    } else {
      service::DeploymentRequest deploy;
      deploy.environment = request->environment;
      deploy.app = request->app.get();
      deploy.solve = request->solve;
      deploy.priority = request->priority;
      deploy.deadline_s = request->deadline_s;
      order.push_back({Submitted::kDeploy, handles.size()});
      handles.push_back(advisor.Submit(std::move(deploy)));
    }
    graphs.push_back(request->app);
  }
  if (batch) advisor.Resume();

  int failed_requests = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i].kind == Submitted::kStats) {
      // Results are waited on in submission order, so by the time a stats
      // line prints, every request above it has completed (and is counted)
      // while none below it has been waited on.
      for (size_t j = 0; j < i; ++j) {
        if (order[j].kind == Submitted::kDeploy) {
          handles[order[j].index].Wait();
        } else if (order[j].kind == Submitted::kRedeploy) {
          redeploy_handles[order[j].index].Wait();
        }
      }
      const std::string snapshot = registry.SnapshotLine();
      std::printf("req %3zu: stats     %s\n", i + 1,
                  snapshot.empty() ? "(no metrics)" : snapshot.c_str());
      continue;
    }
    if (order[i].kind == Submitted::kRedeploy) {
      const service::RedeployResult& r =
          redeploy_handles[order[i].index].Wait();
      if (!r.status.ok()) {
        std::printf("req %3zu: redeploy FAILED %s\n", i + 1,
                    r.status.ToString().c_str());
        ++failed_requests;
        continue;
      }
      std::printf(
          "req %3zu: redeploy  drift=%s checks=%d escalations=%d "
          "migrations=%d stale=%.4fms replanned=%.4fms retained=%4.1f%% "
          "wall=%.2fs\n",
          i + 1, r.drift_detected ? "yes" : "no", r.checks_run,
          r.escalations, r.migrations, r.stale_cost_ms, r.final_cost_ms,
          r.stale_cost_ms > 0
              ? 100.0 * (r.stale_cost_ms - r.final_cost_ms) / r.stale_cost_ms
              : 0.0,
          r.total_s);
      continue;
    }
    const service::ServiceResult& r = handles[order[i].index].Wait();
    if (!r.status.ok()) {
      std::printf("req %3zu: FAILED %s\n", i + 1,
                  r.status.ToString().c_str());
      ++failed_requests;
      continue;
    }
    std::printf(
        "req %3zu: %-9s cost=%.4fms default=%.4fms improvement=%4.1f%% "
        "%s%s%swall=%.2fs\n",
        i + 1, r.routed_method.c_str(), r.solve.cost_ms,
        r.solve.default_cost_ms, 100.0 * r.solve.predicted_improvement,
        r.cache_hit ? "cache-hit "
                    : (r.measurement_shared ? "shared-measure " : "measured "),
        r.coalesced ? "coalesced " : "", r.warm_started ? "warm " : "",
        r.total_s);
  }

  service::AdvisorService::Stats s = advisor.stats();
  service::CostMatrixCache::Stats cs = advisor.cache_stats();
  std::printf(
      "served %llu requests (%llu coalesced, %llu failed, %llu cancelled, "
      "%llu expired); %llu measurements for %llu matrix lookups "
      "(%llu hits), %llu warm starts\n",
      static_cast<unsigned long long>(s.submitted),
      static_cast<unsigned long long>(s.coalesced),
      static_cast<unsigned long long>(s.failed),
      static_cast<unsigned long long>(s.cancelled),
      static_cast<unsigned long long>(s.expired),
      static_cast<unsigned long long>(cs.measurements),
      static_cast<unsigned long long>(cs.hits + cs.misses),
      static_cast<unsigned long long>(cs.hits),
      static_cast<unsigned long long>(s.warm_starts));
  if (s.redeploys > 0) {
    std::printf(
        "online redeployment: %llu requests (%llu detected drift), "
        "%llu failed; %llu refreshed matrices fed back into the cache\n",
        static_cast<unsigned long long>(s.redeploys),
        static_cast<unsigned long long>(s.redeploys_drifted),
        static_cast<unsigned long long>(s.redeploys_failed),
        static_cast<unsigned long long>(s.matrix_refreshes));
  }
  int io_errors = 0;
  if (!trace_path.empty()) {
    if (tracer.WriteChromeTrace(trace_path)) {
      std::printf("wrote %zu trace events to %s\n", tracer.event_count(),
                  trace_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_path.c_str());
      ++io_errors;
    }
  }
  if (!metrics_path.empty()) {
    if (registry.WriteJson(metrics_path, "cloudia_serve")) {
      std::printf("wrote metrics to %s\n", metrics_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write metrics to %s\n",
                   metrics_path.c_str());
      ++io_errors;
    }
  }
  // Repo convention: runtime failures exit 1 too, so scripts and CI notice
  // failed requests, not only unparsable ones.
  return parse_errors == 0 && failed_requests == 0 && io_errors == 0 ? 0 : 1;
}
