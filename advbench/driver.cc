// End-to-end advisor benchmark driver (see README.md in this directory).
//
//   advbench --workload cold_measure|warm_solve --seed N
//            --seconds S --trace 0|1
//
// One driver thread keeps a fixed number of requests outstanding against an
// in-process service::AdvisorService with 2 workers (a closed loop), checks
// every answer, and prints the end-to-end metrics (--trace 0) or, from a
// separate traced run plus direct replays into the layers, the per-layer
// metrics (--trace 1). The last line of stdout of a run whose every check
// passed is one JSON object:
//   {"correct": true, "attempted": ..., "failed": 0, "metrics": {...}}
// A run that fails a check prints no result and exits 1.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "deploy/cost.h"
#include "deploy/solve.h"
#include "graph/templates.h"
#include "helpers.h"
#include "hier/cost_source.h"
#include "hier/solver.h"
#include "measure/protocols.h"
#include "netsim/dynamics.h"
#include "netsim/provider.h"
#include "obs/obs.h"
#include "redeploy/online.h"
#include "service/advisor_service.h"
#include "service/environment.h"

namespace {

using namespace cloudia;

// The service gets 2 workers on a 4-core machine, so the numbers measure
// the program rather than the scheduler.
constexpr int kWorkers = 2;
// Nearest-rank percentiles reported; the p90 needs >= 100 samples so that
// at least 10 lie beyond it.
constexpr double kTailQuantile = 0.9;
const size_t kMinAnswered = advbench::MinSamplesForPercentile(kTailQuantile);

// cold_measure: virtual seconds of staged measurement per fresh pool.
constexpr double kColdMeasureS = 30.0;
// warm_solve: set-up measurement length and the anytime solvers' budgets.
constexpr double kWarmMeasureS = 60.0;
constexpr double kCpBudgetS = 0.25;
constexpr double kMipBudgetS = 0.25;
constexpr double kPortfolioBudgetS = 0.4;
constexpr double kPriceWeight = 0.002;
// The traced run's redeploy replay: the migration budget k and the checks.
constexpr int kMaxMigrations = 4;
constexpr int kRedeployChecks = 12;
// Environments (topologies and drift scenarios) come from a fixed catalog
// derived from this seed; the run seed drives the request stream: graphs,
// solver seeds, class order and method mix. Runs with different seeds then
// compare like with like: with seed-drawn environments, plan_cost_ratio and
// the measurement-bound latencies moved by 10-20% between seeds on the same
// code.
constexpr uint64_t kCatalogSeed = 7001;

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t state = a * 0x9e3779b97f4a7c15ULL + b;
  return SplitMix64(state);
}

// Solver-clock time of the earliest incumbent at the final cost: when the
// returned plan was first found (`wall_s` when the trace has none).
double TimeToBest(const deploy::NdpSolveResult& result, double wall_s) {
  for (const deploy::TracePoint& p : result.trace) {
    if (p.cost <= result.cost) return std::min(p.seconds, wall_s);
  }
  return wall_s;
}

// ---------------------------------------------------------------------------
// Requests and workloads
// ---------------------------------------------------------------------------

struct Request {
  std::string label;  ///< traffic class: "cp", "g2", "local@ec2", ...
  service::DeploymentRequest deploy;
};

// Inputs of the traced run's direct replays: graphs, and indices into
// Workload::ReplayEnvs() for the pools they are solved on.
struct ReplayInputs {
  const graph::CommGraph* cp = nullptr;  ///< cp, 20 clusters, LongestLink
  int cp_env = 0;
  const graph::CommGraph* tree = nullptr;  ///< mip, LongestPath
  int tree_env = 0;
  const graph::CommGraph* large = nullptr;  ///< local, g2 and the portfolio
  int large_env = 0;
  deploy::ObjectiveSpec local_objective = deploy::Objective::kLongestLink;
  const graph::CommGraph* hier = nullptr;
  int hier_env = 0;
  const graph::CommGraph* redeploy = nullptr;  ///< the redeploy cycle
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual int outstanding() const = 0;
  virtual service::AdvisorService::Options ServiceOptions() const {
    service::AdvisorService::Options options;
    options.threads = kWorkers;
    return options;
  }
  /// Requests answered before timing starts (they fill the cache).
  virtual std::vector<Request> SetupRequests() = 0;
  /// The next request for a freed slot of the closed loop.
  virtual Request Next() = 0;
  /// Cache measurements the whole run must have paid for, given the number
  /// of timed requests submitted.
  virtual uint64_t ExpectedMeasurements(uint64_t timed_requests) const = 0;

  // Inputs of the traced run's direct replays.
  virtual std::vector<service::EnvironmentSpec> ReplayEnvs() const = 0;
  virtual ReplayInputs Replay() const = 0;

 protected:
  const graph::CommGraph* Keep(graph::CommGraph g) {
    graphs_.push_back(std::move(g));
    return &graphs_.back();
  }
  std::deque<graph::CommGraph> graphs_;  // stable addresses
};

// The cloudia_serve drift defaults for the redeploy replay; the drift
// scenario and the monitor's link sample follow `drift_seed`.
service::RedeployPolicy DriftPolicy(uint64_t drift_seed) {
  service::RedeployPolicy policy;
  policy.check_interval_s = 1800.0;
  policy.checks = kRedeployChecks;
  policy.dynamics.epoch_minutes = 30.0;
  policy.dynamics.episode_rate = 0.35;
  policy.dynamics.severity_hi = 3.0;
  policy.dynamics.severity_lo = 1.0 + 0.6 * (3.0 - 1.0);
  policy.dynamics.recovery_per_epoch = 0.1;
  policy.dynamics.relocation_window_hours = 1.0;
  policy.dynamics.relocation_prob = 0.05;
  policy.dynamics.seed = drift_seed;
  policy.monitor.seed = drift_seed;
  policy.planner.time_budget_s = 1.0;
  policy.planner.max_migrations = kMaxMigrations;
  return policy;
}

service::EnvironmentSpec Env(const char* provider, int instances,
                             double duration_s, uint64_t seed) {
  service::EnvironmentSpec env;
  env.provider = provider;
  env.instances = instances;
  env.measure_duration_s = duration_s;
  env.seed = seed;
  return env;
}

Request Deploy(std::string label, const service::EnvironmentSpec& env,
               const graph::CommGraph* app, std::string method,
               deploy::ObjectiveSpec objective, double budget_s,
               uint64_t seed) {
  Request r;
  r.label = std::move(label);
  r.deploy.environment = env;
  r.deploy.app = app;
  r.deploy.solve.method = std::move(method);
  r.deploy.solve.objective = std::move(objective);
  r.deploy.solve.time_budget_s = budget_s;
  r.deploy.solve.seed = seed;
  return r;
}

// Every request names a fresh environment: measure/netsim dominate and the
// cache never hits. Only fixed-work solvers run.
class ColdMeasure final : public Workload {
 public:
  explicit ColdMeasure(uint64_t seed)
      : seed_(seed), rng_(Mix(seed, 1)), catalog_(kCatalogSeed) {
    for (auto [rows, cols] : {std::pair{5, 6}, {4, 8}, {5, 7}, {6, 6},
                              {4, 10}, {6, 7}}) {
      meshes_.push_back(Keep(graph::Mesh2D(rows, cols)));
    }
    tree_ = Keep(graph::AggregationTree(3, 3));
  }
  int outstanding() const override { return 2; }
  // One fresh environment measured before timing, so lazy set-up (page
  // faults, allocator growth, first-use statics) is not in the timed run.
  std::vector<Request> SetupRequests() override {
    const service::EnvironmentSpec env =
        Env("ec2", 55, kColdMeasureS, Mix(kCatalogSeed, 999));
    return {Deploy("setup", env, meshes_[0], "g2",
                   deploy::Objective::kLongestLink, 60.0, 1)};
  }

  Request Next() override {
    static const char* kProviders[3] = {"ec2", "gce", "rackspace"};
    // Request i measures catalog environment i: every block of 23 uses
    // each pool size in 44..66 once, with the providers in rotation.
    if (sizes_.empty()) {
      for (int n = 44; n <= 66; ++n) sizes_.push_back(n);
      catalog_.Shuffle(sizes_);
    }
    const int instances = sizes_.back();
    sizes_.pop_back();
    const int i = next_++;
    const service::EnvironmentSpec env =
        Env(kProviders[i % 3], instances, kColdMeasureS,
            Mix(kCatalogSeed, 1000 + i));
    if (seen_.size() < 3) seen_.push_back(env);
    const graph::CommGraph* app = meshes_[rng_.Below(meshes_.size())];
    const bool local = (i + seed_) % 2 == 1;
    return Deploy(std::string(local ? "local" : "g2") + "@" + env.provider, env,
                  app, local ? "local" : "g2",
                  deploy::Objective::kLongestLink, 60.0, rng_.Next());
  }
  uint64_t ExpectedMeasurements(uint64_t timed) const override {
    return timed + 1;  // one per request, the warm-up included
  }
  std::vector<service::EnvironmentSpec> ReplayEnvs() const override {
    return seen_;
  }
  ReplayInputs Replay() const override {
    ReplayInputs in;
    in.cp = meshes_[0];
    in.tree = tree_;
    in.large = in.hier = in.redeploy = meshes_[5];
    return in;
  }

 private:
  uint64_t seed_;
  Rng rng_;
  Rng catalog_;
  int next_ = 0;
  std::vector<int> sizes_;
  std::vector<const graph::CommGraph*> meshes_;
  const graph::CommGraph* tree_ = nullptr;
  std::vector<service::EnvironmentSpec> seen_;
};

// Set-up measures four ec2 environments; every timed request is a cache hit
// and the solvers are on the critical path.
class WarmSolve final : public Workload {
 public:
  explicit WarmSolve(uint64_t seed)
      : rng_(Mix(seed, 2)), cls_(static_cast<int>(seed % 12)) {
    const int sizes[4] = {33, 55, 110, 220};
    for (int e = 0; e < 4; ++e) {
      envs_.push_back(Env("ec2", sizes[e], kWarmMeasureS, kCatalogSeed + e));
    }
    mesh30_ = Keep(graph::Mesh2D(5, 6));
    mesh42_ = Keep(graph::Mesh2D(6, 7));
    tree13_ = Keep(graph::AggregationTree(3, 3));
    tree31_ = Keep(graph::AggregationTree(2, 5));
    mesh100_ = Keep(graph::Mesh2D(10, 10));
    mesh200_ = Keep(graph::Mesh2D(10, 20));
    priced_.primary = deploy::Objective::kLongestLink;
    priced_.price_weight = kPriceWeight;
  }
  int outstanding() const override { return 4; }
  service::AdvisorService::Options ServiceOptions() const override {
    service::AdvisorService::Options options = Workload::ServiceOptions();
    options.hier_node_threshold = 200;
    return options;
  }
  std::vector<Request> SetupRequests() override {
    std::vector<Request> setup;
    for (const service::EnvironmentSpec& env : envs_) {
      setup.push_back(Deploy("setup", env, mesh30_, "g2",
                             deploy::Objective::kLongestLink, 60.0, 1));
    }
    return setup;
  }
  Request Next() override {
    const int i = next_++;
    // One request in 8 is a byte-identical twin of its predecessor.
    if (i % 8 == 7) return last_;
    const int k = cls_++;
    const bool alt = (k / 6) % 2 == 1;
    const uint64_t s = rng_.Next();
    const deploy::ObjectiveSpec link = deploy::Objective::kLongestLink;
    Request r;
    switch (k % 6) {
      case 0:
        r = Deploy("cp", envs_[1], alt ? mesh42_ : mesh30_, "cp", link,
                   kCpBudgetS, s);
        r.deploy.solve.cost_clusters = 20;
        break;
      case 1:
        r = Deploy("mip", alt ? envs_[1] : envs_[0], alt ? tree31_ : tree13_,
                   "mip", deploy::Objective::kLongestPath, kMipBudgetS, s);
        r.deploy.solve.cost_clusters = 0;
        break;
      case 2:
        r = Deploy("local", envs_[2], mesh100_, "local", priced_, 60.0, s);
        break;
      case 3:
        r = Deploy("portfolio", envs_[2], mesh100_, "auto", link,
                   kPortfolioBudgetS, s);
        break;
      case 4:
        r = Deploy("hier", envs_[3], mesh200_, "auto", link, 60.0, s);
        break;
      default:
        r = Deploy("g2", envs_[2], mesh100_, "g2", link, 60.0, s);
        break;
    }
    last_ = r;
    return r;
  }
  uint64_t ExpectedMeasurements(uint64_t) const override {
    return envs_.size();
  }
  std::vector<service::EnvironmentSpec> ReplayEnvs() const override {
    return envs_;
  }
  ReplayInputs Replay() const override {
    ReplayInputs in;
    in.cp = mesh30_;
    in.cp_env = 1;
    in.tree = tree13_;
    in.large = mesh100_;
    in.large_env = 2;
    in.local_objective = priced_;
    in.hier = mesh200_;
    in.hier_env = 3;
    in.redeploy = mesh42_;
    return in;
  }

 private:
  Rng rng_;
  int next_ = 0;
  int cls_ = 0;  ///< class counter; the seed picks where the cycle starts
  Request last_;
  deploy::ObjectiveSpec priced_;
  std::vector<service::EnvironmentSpec> envs_;
  const graph::CommGraph* mesh30_ = nullptr;
  const graph::CommGraph* mesh42_ = nullptr;
  const graph::CommGraph* tree13_ = nullptr;
  const graph::CommGraph* tree31_ = nullptr;
  const graph::CommGraph* mesh100_ = nullptr;
  const graph::CommGraph* mesh200_ = nullptr;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "cold_measure") return std::make_unique<ColdMeasure>(seed);
  if (name == "warm_solve") return std::make_unique<WarmSolve>(seed);
  return nullptr;
}

// ---------------------------------------------------------------------------
// Closed-loop execution and the correctness gate
// ---------------------------------------------------------------------------

struct Sample {
  std::string label;
  double latency_s = 0.0;
  double queue_wait_s = 0.0;
  double plan_found_s = 0.0;
  double cost_ratio = 1.0;
  bool coalesced = false;
  bool warm_started = false;
};

struct Phase {
  std::vector<Sample> samples;  ///< answered and checked requests
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t measurements_billed = 0;  ///< cache measurements paid for
  double billed_instance_s = 0.0;
  double wall_s = 0.0;
  uint64_t verify_lookups = 0;  ///< the checker's own cache hits
  std::vector<std::string> errors;
  std::map<int, std::pair<bool, deploy::Deployment>> plans;  ///< for twins
};

class Runner {
 public:
  Runner(Workload* workload, service::AdvisorService* service,
         obs::Tracer* tracer)
      : workload_(workload), service_(service), tracer_(tracer) {}

  struct Slot {
    int index = -1;
    Request request;
    std::optional<service::RequestHandle> handle;
    obs::SpanId span = 0;
  };

  // Submits every set-up request at once and waits for all of them.
  void RunSetup(Phase& phase) {
    std::vector<Slot> slots;
    for (Request& r : workload_->SetupRequests()) {
      slots.emplace_back();
      Submit(slots.back(), std::move(r), -1);
    }
    for (Slot& slot : slots) Harvest(slot, phase);
  }

  // The closed loop: keeps outstanding() requests in flight until
  // `seconds` have passed and at least `min_answered` requests were
  // answered (a slow machine extends the run, up to 2x, rather than leave
  // the p90 without its 10 samples beyond it), then drains.
  void RunTimed(double seconds, size_t min_answered, Phase& phase) {
    const double start = NowS();
    const double stop = start + seconds;
    const double hard_stop = start + 2 * seconds;
    std::vector<Slot> slots(static_cast<size_t>(workload_->outstanding()));
    int next_index = 0;
    for (Slot& slot : slots) {
      Submit(slot, workload_->Next(), next_index++);
      ++phase.attempted;
    }
    double last_done = start;
    for (;;) {
      bool any_busy = false;
      bool progressed = false;
      for (Slot& slot : slots) {
        if (!slot.handle) continue;
        if (!slot.handle->done()) {
          any_busy = true;
          continue;
        }
        Harvest(slot, phase);
        last_done = NowS();
        progressed = true;
        if (last_done < hard_stop &&
            (last_done < stop || phase.samples.size() < min_answered)) {
          Submit(slot, workload_->Next(), next_index++);
          ++phase.attempted;
          any_busy = true;
        }
      }
      if (!any_busy) break;
      if (!progressed) {
        for (const Slot& slot : slots) {
          if (slot.handle) {
            slot.handle->WaitFor(0.0002);
            break;
          }
        }
      }
    }
    phase.wall_s = last_done - start;
    CheckTwins(phase);
  }

 private:
  void Submit(Slot& slot, Request request, int index) {
    slot.index = index;
    slot.span = tracer_ != nullptr
                    ? tracer_->BeginSpan("client.request", "client")
                    : 0;
    slot.request = std::move(request);
    slot.handle = service_->Submit(slot.request.deploy);
  }

  void Harvest(Slot& slot, Phase& phase) {
    const service::DeploymentRequest& req = slot.request.deploy;
    const service::EnvironmentSpec& env = req.environment;
    const std::string what = slot.request.label + " request " +
                             std::to_string(slot.index) + " on " + env.Key();
    Sample sample;
    sample.label = slot.request.label;
    std::string error;
    const service::ServiceResult& r = slot.handle->Wait();
    if (!r.status.ok()) {
      error = r.status.ToString();
    } else {
      const deploy::NdpSolveResult& result = r.solve.result;
      sample.latency_s = r.total_s;
      sample.queue_wait_s = r.queue_wait_s;
      sample.cost_ratio = r.solve.cost_ms / r.solve.default_cost_ms;
      sample.coalesced = r.coalesced;
      sample.warm_started = r.warm_started;
      // When the returned plan was first found: queue wait, measurement,
      // and the earliest incumbent at the final cost on the solver's clock.
      const double measure_s =
          std::max(0.0, r.total_s - r.queue_wait_s - r.solve.wall_s);
      sample.plan_found_s = r.queue_wait_s + measure_s +
                            TimeToBest(result, r.solve.wall_s);
      if (!r.cache_hit && !r.measurement_shared && !r.coalesced) {
        ++phase.measurements_billed;
        phase.billed_instance_s += env.instances * env.measure_duration_s;
      }
      // The request just measured or read this matrix, so this is a hit.
      auto lookup = service_->cache().Get(env);
      ++phase.verify_lookups;
      if (!lookup.ok() || !lookup->hit) {
        error = "matrix no longer cached";
      } else {
        const service::MeasuredEnvironment& measured = *lookup->entry;
        error = advbench::CheckPlan(*req.app, measured.costs,
                                    r.solve.objective, result.deployment,
                                    r.solve.cost_ms);
        if (error.empty()) error = CheckPrices(r.solve.objective, measured);
        if (error.empty() && !(r.solve.default_cost_ms > 0.0)) {
          error = "default plan cost is not positive";
        }
        if (error.empty() &&
            r.solve.placement.size() != result.deployment.size()) {
          error = "placement does not match the deployment";
        }
      }
      if (slot.index >= 0) {
        phase.plans[slot.index] = {r.coalesced, result.deployment};
      }
    }
    if (tracer_ != nullptr) tracer_->EndSpan(slot.span);
    slot.handle.reset();  // the result above lives in the handle's state
    if (error.empty()) {
      phase.samples.push_back(std::move(sample));
    } else {
      ++phase.failed;
      phase.errors.push_back(what + ": " + error);
    }
  }

  // A priced objective must carry the provider's price of every instance.
  static std::string CheckPrices(const deploy::ObjectiveSpec& objective,
                                 const service::MeasuredEnvironment& env) {
    if (!(objective.price_weight > 0.0)) return "";
    auto profile = service::ProviderProfileByName(env.spec.provider);
    if (!profile.ok()) return profile.status().ToString();
    if (objective.instance_prices.size() != env.instances.size()) {
      return "price vector does not cover the pool";
    }
    for (size_t i = 0; i < env.instances.size(); ++i) {
      if (objective.instance_prices[i] !=
          net::InstancePrice(*profile, env.instances[i].host)) {
        return "instance price differs from the provider's";
      }
    }
    return "";
  }

  // Coalesced twins must return exactly the plan of the request they joined.
  static void CheckTwins(Phase& phase) {
    for (const auto& [index, entry] : phase.plans) {
      if (!entry.first) continue;  // ran on its own
      auto original = phase.plans.find(index - 1);
      if (original == phase.plans.end() ||
          original->second.second != entry.second) {
        ++phase.failed;
        phase.errors.push_back("coalesced twin " + std::to_string(index) +
                               " returned a different plan");
      }
    }
  }

  Workload* workload_;
  service::AdvisorService* service_;
  obs::Tracer* tracer_;
};

// One set-up: workload (graph building), service, set-up requests. Owns
// everything the timed phase needs; the service is declared after the
// workload, so it drains and stops before the graphs go away.
struct Rig {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<service::AdvisorService> service;
  Phase setup;
  double setup_s = 0.0;
};

std::unique_ptr<Rig> SetUp(const std::string& name, uint64_t seed,
                           const obs::ObsConfig& obs) {
  const double start = NowS();
  auto rig = std::make_unique<Rig>();
  rig->workload = MakeWorkload(name, seed);
  service::AdvisorService::Options options = rig->workload->ServiceOptions();
  options.obs = obs;
  rig->service = std::make_unique<service::AdvisorService>(options);
  Runner(rig->workload.get(), rig->service.get(), nullptr)
      .RunSetup(rig->setup);
  rig->setup_s = NowS() - start;
  return rig;
}

// Correctness gate over a finished run: the cache's measurement count
// against what the traffic implies. No request re-measures, so the cache
// refreshes nothing.
void CheckCounts(const Rig& rig, Phase& timed) {
  const service::CostMatrixCache::Stats cache = rig.service->cache_stats();
  const uint64_t billed =
      rig.setup.measurements_billed + timed.measurements_billed;
  const uint64_t expected =
      rig.workload->ExpectedMeasurements(timed.attempted);
  if (cache.measurements != expected || billed != expected) {
    timed.errors.push_back(
        "cache.measurements = " + std::to_string(cache.measurements) +
        ", billed requests = " + std::to_string(billed) + ", expected " +
        std::to_string(expected));
    ++timed.failed;
  }
  if (cache.refreshes != 0) {
    timed.errors.push_back("cache.refreshes = " +
                           std::to_string(cache.refreshes) + ", expected 0");
    ++timed.failed;
  }
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double Median(std::vector<double> v) { return advbench::Percentile(v, 0.5); }

// The result line; only a run that passed every check prints one.
void PrintResult(uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": true") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// A failed check fails the run: it prints no result and exits 1.
int Fail(const std::string& name, uint64_t seed) {
  std::fprintf(stderr, "advbench: %s seed %llu failed its correctness checks\n",
               name.c_str(), static_cast<unsigned long long>(seed));
  return 1;
}

bool ReportErrors(const Phase& phase, const char* where) {
  for (size_t i = 0; i < phase.errors.size() && i < 10; ++i) {
    std::fprintf(stderr, "advbench: %s: %s\n", where,
                 phase.errors[i].c_str());
  }
  return phase.errors.empty() && phase.failed == 0;
}

// Untraced run: the end-to-end metrics.
int RunEndToEnd(const std::string& name, uint64_t seed, double seconds) {
  // Set up several times and report the median; the last rig runs. Single
  // set-ups varied by +-15% within a run, so the median takes five.
  constexpr int kSetups = 5;
  std::vector<double> setup_times;
  std::unique_ptr<Rig> rig;
  bool setup_ok = true;
  for (int r = 0; r < kSetups; ++r) {
    rig.reset();
    rig = SetUp(name, seed, {});
    setup_times.push_back(rig->setup_s);
    setup_ok = ReportErrors(rig->setup, "set-up") && setup_ok;
  }
  Phase timed;
  Runner(rig->workload.get(), rig->service.get(), nullptr)
      .RunTimed(seconds, kMinAnswered, timed);
  CheckCounts(*rig, timed);

  std::vector<double> latency, plan_found, ratios;
  for (const Sample& s : timed.samples) {
    latency.push_back(s.latency_s);
    ratios.push_back(s.cost_ratio);
    plan_found.push_back(s.plan_found_s);
  }
  const size_t answered = timed.samples.size();
  // The set-up bill is spread over the run's fixed minimum request count,
  // not over the requests answered, so the metric moves with what gets
  // measured and not with throughput.
  const double billed =
      rig->setup.billed_instance_s / static_cast<double>(kMinAnswered) +
      timed.billed_instance_s /
          static_cast<double>(std::max<size_t>(answered, 1));
  bool correct = ReportErrors(timed, "timed") && setup_ok;
  if (answered < kMinAnswered) {
    std::fprintf(stderr,
                 "advbench: %zu answered requests; the p90 needs >= %zu\n",
                 answered, kMinAnswered);
    correct = false;
  }
  const std::vector<Metric> metrics = {
      {"setup_s", Median(setup_times), "s"},
      {"advise_p50_s", advbench::Percentile(latency, 0.5), "s"},
      {"advise_p90_s", advbench::Percentile(latency, kTailQuantile), "s"},
      {"plan_found_p50_s", advbench::Percentile(plan_found, 0.5), "s"},
      {"requests_per_s",
       static_cast<double>(answered) / std::max(timed.wall_s, 1e-9), "1/s"},
      {"plan_cost_ratio", advbench::GeometricMean(ratios), "ratio"},
      {"billed_instance_s", billed, "instance-s"},
      {"answered_share",
       static_cast<double>(timed.attempted -
                           std::min(timed.failed, timed.attempted)) /
           static_cast<double>(std::max<uint64_t>(timed.attempted, 1)),
       "ratio"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  std::printf("workload %s seed %llu: %zu requests answered of %llu in "
              "%.2f s\n",
              name.c_str(), static_cast<unsigned long long>(seed), answered,
              static_cast<unsigned long long>(timed.attempted), timed.wall_s);
  std::printf("  set-up runs:");
  for (double t : setup_times) std::printf(" %.4f s", t);
  std::printf("\n");
  for (const Metric& m : metrics) {
    std::printf("  %-20s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    if (!std::isfinite(m.value)) correct = false;
  }
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      by_class;
  for (const Sample& s : timed.samples) {
    by_class[s.label].first.push_back(s.latency_s);
    by_class[s.label].second.push_back(s.cost_ratio);
  }
  for (const auto& [label, v] : by_class) {
    std::printf("  class %-10s %5zu requests, latency p50 %.4f s, "
                "cost ratio %.4f\n",
                label.c_str(), v.first.size(), Median(v.first),
                advbench::GeometricMean(v.second));
  }
  if (!correct) return Fail(name, seed);
  PrintResult(timed.attempted, timed.failed, metrics);
  return 0;
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics
// ---------------------------------------------------------------------------

// Direct calls into the layers' public functions on the workload's inputs,
// each wrapped in a driver span. The deploy.* and redeploy.* metrics come
// from here on every workload.
struct ReplayOut {
  std::vector<double> env_s;
  double samples = 0.0;
  double protocol_s = 0.0;
  std::vector<double> kmeans_s;
  std::map<std::string, std::vector<double>> solve_s, best_s, iters_per_s;
  std::vector<double> decompose_s, coarse_s, shards_s, polish_s;
  std::vector<double> remeasure_s, plan_s;
  double checks = 0.0, escalations = 0.0, migrations = 0.0;
  std::vector<std::string> errors;
};

// A problem the traced run replays directly into deploy / hier.
struct ReplayProblem {
  std::string method;
  const graph::CommGraph* graph = nullptr;
  int env = 0;  ///< index into Workload::ReplayEnvs()
  deploy::ObjectiveSpec objective;
  double budget_s = 60.0;
  int clusters = 0;
};

std::vector<ReplayProblem> ReplayProblems(const ReplayInputs& in) {
  const deploy::ObjectiveSpec link = deploy::Objective::kLongestLink;
  return {{"cp", in.cp, in.cp_env, link, kCpBudgetS, 20},
          {"mip", in.tree, in.tree_env, deploy::Objective::kLongestPath,
           kMipBudgetS},
          {"local", in.large, in.large_env, in.local_objective},
          {"g2", in.large, in.large_env, link},
          {"portfolio", in.large, in.large_env, link, kPortfolioBudgetS},
          {"hier", in.hier, in.hier_env, link}};
}

std::vector<double> Prices(const service::EnvironmentSpec& spec,
                           const std::vector<net::Instance>& instances) {
  auto profile = service::ProviderProfileByName(spec.provider);
  std::vector<double> prices;
  for (const net::Instance& inst : instances) {
    prices.push_back(net::InstancePrice(*profile, inst.host));
  }
  return prices;
}

// One redeploy cycle, as the service runs it, on the first environment
// whose pool holds the graph; its plans are checked like the traffic's.
void ReplayRedeploy(const graph::CommGraph& app,
                    const std::vector<service::MeasuredEnvironment>& envs,
                    uint64_t seed, obs::Tracer& tracer, ReplayOut& out) {
  size_t e = 0;
  while (e + 1 < envs.size() && envs[e].spec.instances < app.num_nodes()) ++e;
  const service::MeasuredEnvironment& env = envs[e];
  const service::RedeployPolicy policy = DriftPolicy(Mix(kCatalogSeed, 30 + e));
  auto profile = service::ProviderProfileByName(env.spec.provider);
  net::CloudSimulator cloud(*profile, env.spec.seed);
  net::DynamicsConfig dynamics_config = policy.dynamics;
  dynamics_config.start_hours = env.measure_virtual_s / 3600.0;
  net::NetworkDynamics dynamics(dynamics_config, &cloud.topology());
  cloud.AttachDynamics(&dynamics);
  deploy::NdpSolveOptions base;
  base.method = deploy::Method::kLocalSearch;
  base.seed = seed;
  auto initial = deploy::SolveNodeDeployment(app, env.costs, base);
  if (!initial.ok()) {
    out.errors.push_back("replay baseline: " + initial.status().ToString());
    return;
  }
  redeploy::OnlineOptions online;
  online.monitor = policy.monitor;
  online.planner = policy.planner;
  online.start_t_hours = dynamics_config.start_hours;
  online.check_interval_s = policy.check_interval_s;
  online.checks = policy.checks;
  online.measure_duration_s = env.spec.measure_duration_s;
  online.measure_seed = env.spec.seed;
  obs::Span span(&tracer, "redeploy.replay", "redeploy");
  const obs::SpanId replay_span = span.id();
  online.obs.tracer = &tracer;
  online.obs.parent = replay_span;
  std::vector<int64_t> refreshed_ns;
  auto outcome = redeploy::RunOnlineRedeployment(
      cloud, env.instances, app, env.costs, initial->deployment, online,
      [&](double, const deploy::CostMatrix&) {
        refreshed_ns.push_back(tracer.clock()->NowNs());
      });
  span.End();
  if (!outcome.ok()) {
    out.errors.push_back("replay redeploy: " + outcome.status().ToString());
    return;
  }
  std::string error = advbench::CheckMigrations(
      outcome->records, kMaxMigrations, initial->deployment,
      outcome->final_deployment);
  if (error.empty() &&
      static_cast<int>(outcome->records.size()) != policy.checks) {
    error = "ran " + std::to_string(outcome->records.size()) + " checks";
  }
  if (error.empty()) {
    error = advbench::CheckPlan(app, outcome->latest_costs,
                                online.planner.objective,
                                outcome->final_deployment,
                                outcome->final_cost_ms);
  }
  if (!error.empty()) out.errors.push_back("replay redeploy: " + error);
  out.checks = static_cast<double>(outcome->records.size());
  out.escalations = outcome->escalations;
  out.migrations = outcome->migrations;
  // Each escalated check span splits at its refresh: re-measure before,
  // migration planning after.
  size_t next_refresh = 0;
  for (const obs::TraceEvent& ev : tracer.Snapshot()) {
    if (ev.kind != obs::TraceEvent::Kind::kSpan ||
        ev.name != "redeploy.check" || ev.parent != replay_span ||
        next_refresh >= refreshed_ns.size()) {
      continue;
    }
    const int64_t refresh = refreshed_ns[next_refresh];
    const int64_t end = ev.start_ns + ev.duration_ns;
    if (refresh < ev.start_ns || refresh > end) continue;
    out.remeasure_s.push_back(static_cast<double>(refresh - ev.start_ns) *
                              1e-9);
    out.plan_s.push_back(static_cast<double>(end - refresh) * 1e-9);
    ++next_refresh;
  }
}

void Replay(const Workload& workload, uint64_t seed, obs::Tracer& tracer,
            ReplayOut& out) {
  constexpr int kReps = 5;
  const std::vector<service::EnvironmentSpec> specs = workload.ReplayEnvs();
  std::vector<service::MeasuredEnvironment> envs;
  for (const service::EnvironmentSpec& spec : specs) {
    double t = NowS();
    obs::Span env_span(&tracer, "measure.environment", "measure");
    Result<service::MeasuredEnvironment> env =
        service::MeasureEnvironment(spec);
    env_span.End();
    out.env_s.push_back(NowS() - t);
    if (!env.ok()) {
      out.errors.push_back("replay measure: " + env.status().ToString());
      return;
    }
    // The protocol alone on the same allocation (netsim + measure).
    auto profile = service::ProviderProfileByName(spec.provider);
    net::CloudSimulator cloud(*profile, spec.seed);
    auto pool = cloud.Allocate(spec.instances);
    if (!pool.ok()) {
      out.errors.push_back("replay allocate: " + pool.status().ToString());
      return;
    }
    measure::ProtocolOptions popts;
    popts.msg_bytes = spec.probe_bytes;
    popts.seed = measure::MeasurementProtocolSeed(spec.seed);
    popts.duration_s = spec.measure_duration_s;
    t = NowS();
    {
      obs::Span span(&tracer, "measure.protocol", "measure");
      auto measured =
          measure::RunProtocol(cloud, *pool, spec.protocol, popts);
      if (!measured.ok()) {
        out.errors.push_back("replay protocol: " +
                             measured.status().ToString());
        return;
      }
      out.samples += static_cast<double>(measured->total_samples());
    }
    out.protocol_s += NowS() - t;
    envs.push_back(std::move(env).value());
  }
  for (const service::MeasuredEnvironment& env : envs) {
    const double t = NowS();
    obs::Span span(&tracer, "cluster.kmeans", "cluster");
    auto clustered = deploy::ClusterCostMatrix(env.costs, 20);
    span.End();
    out.kmeans_s.push_back(NowS() - t);
    if (!clustered.ok()) out.errors.push_back("replay kmeans failed");
  }

  const ReplayInputs inputs = workload.Replay();
  for (const ReplayProblem& p : ReplayProblems(inputs)) {
    const service::MeasuredEnvironment& env =
        envs[static_cast<size_t>(p.env)];
    deploy::ObjectiveSpec objective = p.objective;
    if (objective.price_weight > 0.0) {
      objective.instance_prices = Prices(env.spec, env.instances);
    }
    for (int rep = 0; rep < kReps; ++rep) {
      const uint64_t solve_seed = Mix(seed, 100 + rep);
      obs::Span span(&tracer, "deploy." + p.method, "deploy");
      deploy::SolveContext context(Deadline::After(p.budget_s));
      context.set_obs(&tracer, span.id(), p.method);
      const double t = NowS();
      Result<deploy::NdpSolveResult> result = deploy::NdpSolveResult();
      if (p.method == "hier") {
        // Direct call into the pipeline; small pools would otherwise be
        // solved flat and leave the hier phases unmeasured.
        hier::HierOptions options;
        options.seed = solve_seed;
        options.threads = 1;
        if (env.costs.size() <= options.flat_fallback_instances) {
          options.flat_fallback_instances = 32;
        }
        hier::MatrixCostSource source(&env.costs);
        auto solved = hier::SolveHierarchical(*p.graph, source,
                                              objective.primary, options,
                                              context);
        if (solved.ok()) {
          out.decompose_s.push_back(solved->stats.decompose_s);
          out.coarse_s.push_back(solved->stats.coarse_s);
          out.shards_s.push_back(solved->stats.shard_s);
          out.polish_s.push_back(solved->stats.polish_s);
          result = std::move(solved->result);
        } else {
          result = solved.status();
        }
      } else {
        deploy::NdpSolveOptions options;
        options.objective = objective;
        options.time_budget_s = p.budget_s;
        options.cost_clusters = p.clusters;
        options.threads = p.method == "portfolio" ? kWorkers : 1;
        options.seed = solve_seed;
        result = deploy::SolveNodeDeploymentByName(*p.graph, env.costs,
                                                   p.method, options, context);
      }
      const double wall = NowS() - t;
      span.End();
      if (!result.ok()) {
        out.errors.push_back("replay " + p.method + ": " +
                             result.status().ToString());
        continue;
      }
      out.solve_s[p.method].push_back(wall);
      out.best_s[p.method].push_back(TimeToBest(*result, wall));
      out.iters_per_s[p.method].push_back(
          static_cast<double>(result->iterations) / std::max(wall, 1e-9));
      const std::string error = advbench::CheckPlan(
          *p.graph, env.costs, objective, result->deployment, result->cost);
      if (!error.empty()) {
        out.errors.push_back("replay " + p.method + ": " + error);
      }
    }
  }
  ReplayRedeploy(*inputs.redeploy, envs, seed, tracer, out);
}

std::string OutDir() {
  const char* target = std::getenv("CARGO_TARGET_DIR");
  return std::string(target != nullptr && *target ? target : ".bench_build") +
         "/advbench/reports";
}

int RunTraced(const std::string& name, uint64_t seed, double seconds,
              const std::string& out_dir) {
  bool correct = true;
  // Untraced reference for the tracing overhead.
  double untraced_rps = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  {
    auto rig = SetUp(name, seed, {});
    correct = ReportErrors(rig->setup, "set-up") && correct;
    Phase timed;
    Runner(rig->workload.get(), rig->service.get(), nullptr)
        .RunTimed(seconds, kMinAnswered, timed);
    CheckCounts(*rig, timed);
    correct = ReportErrors(timed, "untraced") && correct;
    untraced_rps = static_cast<double>(timed.samples.size()) /
                   std::max(timed.wall_s, 1e-9);
    attempted += timed.attempted;
    failed += timed.failed;
  }

  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::ObsConfig obs_config;
  obs_config.metrics = &registry;
  obs_config.tracer = &tracer;
  auto rig = SetUp(name, seed, obs_config);
  correct = ReportErrors(rig->setup, "set-up") && correct;
  Phase timed;
  Runner(rig->workload.get(), rig->service.get(), &tracer)
      .RunTimed(seconds, kMinAnswered, timed);
  CheckCounts(*rig, timed);
  correct = ReportErrors(timed, "traced") && correct;
  attempted += timed.attempted;
  failed += timed.failed;
  const double traced_rps = static_cast<double>(timed.samples.size()) /
                            std::max(timed.wall_s, 1e-9);
  const service::AdvisorService::Stats stats = rig->service->stats();
  const service::CostMatrixCache::Stats cache = rig->service->cache_stats();

  ReplayOut replay;
  Replay(*rig->workload, seed, tracer, replay);
  for (const std::string& e : replay.errors) {
    std::fprintf(stderr, "advbench: %s\n", e.c_str());
    correct = false;
  }

  // From the traced traffic: queue wait and sharing.
  std::vector<double> queue_wait;
  double coalesced = 0, warm = 0;
  for (const Sample& s : timed.samples) {
    coalesced += s.coalesced;
    warm += s.warm_started;
    queue_wait.push_back(s.queue_wait_s);
  }
  const double requests =
      std::max(static_cast<double>(timed.samples.size()), 1.0);
  const double hits =
      static_cast<double>(cache.hits) - static_cast<double>(
                                            rig->setup.verify_lookups +
                                            timed.verify_lookups);
  const double lookups = hits + static_cast<double>(cache.misses);

  std::vector<Metric> metrics = {
      {"service.queue_wait_p50_s", Median(queue_wait), "s"},
      {"service.coalesced_share", coalesced / requests, "ratio"},
      {"service.warm_start_share", warm / requests, "ratio"},
      {"cache.hit_ratio", hits / std::max(lookups, 1.0), "ratio"},
      {"cache.measurements", static_cast<double>(cache.measurements),
       "count"},
      {"cache.single_flight_waits", static_cast<double>(cache.coalesced),
       "count"},
      {"cache.refreshes", static_cast<double>(cache.refreshes), "count"},
      {"measure.env_p50_s", Median(replay.env_s), "s"},
      {"measure.probes_per_s",
       replay.samples / std::max(replay.protocol_s, 1e-9), "1/s"},
  };
  for (const char* m : {"cp", "mip", "local", "g2", "portfolio", "hier"}) {
    metrics.push_back({std::string("deploy.solve_p50_s.") + m,
                       Median(replay.solve_s[m]), "s"});
  }
  for (const char* m : {"cp", "mip", "local", "g2", "portfolio", "hier"}) {
    metrics.push_back({std::string("deploy.time_to_best_p50_s.") + m,
                       Median(replay.best_s[m]), "s"});
  }
  for (const char* m : {"cp", "mip"}) {
    metrics.push_back({std::string("deploy.iterations_per_s.") + m,
                       Median(replay.iters_per_s[m]), "1/s"});
  }
  const std::vector<Metric> tail = {
      {"cluster.kmeans_s", Median(replay.kmeans_s), "s"},
      {"hier.decompose_s", Median(replay.decompose_s), "s"},
      {"hier.coarse_s", Median(replay.coarse_s), "s"},
      {"hier.shards_s", Median(replay.shards_s), "s"},
      {"hier.polish_s", Median(replay.polish_s), "s"},
      {"redeploy.checks", replay.checks, "count"},
      {"redeploy.escalations", replay.escalations, "count"},
      {"redeploy.remeasure_p50_s", Median(replay.remeasure_s), "s"},
      {"redeploy.plan_p50_s", Median(replay.plan_s), "s"},
      {"redeploy.migrations", replay.migrations, "count"},
      {"obs.trace_overhead", untraced_rps / std::max(traced_rps, 1e-9),
       "ratio"},
  };
  metrics.insert(metrics.end(), tail.begin(), tail.end());

  // Per-layer table from the spans: service jobs, session stages, solver
  // members, hier phases, redeploy checks, and the driver's own spans.
  std::vector<advbench::SpanRecord> spans;
  for (const obs::TraceEvent& e : tracer.Snapshot()) {
    if (e.kind != obs::TraceEvent::Kind::kSpan || e.duration_ns < 0) continue;
    spans.push_back({e.id, e.parent, advbench::LayerOfSpan(e.name),
                     e.start_ns, e.start_ns + e.duration_ns});
  }
  const auto layers = advbench::FoldSpans(spans);
  std::string report;
  char line[256];
  std::snprintf(line, sizeof(line),
                "per-layer breakdown, workload %s seed %llu (%zu traced "
                "requests, %.2f s; service %llu submitted, %llu coalesced, "
                "%llu warm starts)\n",
                name.c_str(), static_cast<unsigned long long>(seed),
                timed.samples.size(), timed.wall_s,
                static_cast<unsigned long long>(stats.submitted),
                static_cast<unsigned long long>(stats.coalesced),
                static_cast<unsigned long long>(stats.warm_starts));
  report += line;
  std::snprintf(line, sizeof(line), "  %-20s %8s %12s %12s\n", "layer",
                "spans", "busy_s", "self_s");
  report += line;
  for (const auto& [layer, totals] : layers) {
    std::snprintf(line, sizeof(line), "  %-20s %8lld %12.6f %12.6f\n",
                  layer.c_str(), static_cast<long long>(totals.count),
                  totals.busy_s, totals.self_s);
    report += line;
  }
  report += "per-layer metrics\n";
  for (const Metric& m : metrics) {
    std::snprintf(line, sizeof(line), "  %-32s %14.6g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    report += line;
    if (!std::isfinite(m.value)) correct = false;
  }
  std::fputs(report.c_str(), stdout);

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::string stem = out_dir + "/" + name;
  std::ofstream(stem + ".layers.txt") << report;
  if (tracer.WriteChromeTrace(stem + ".trace.json")) {
    std::printf("chrome trace: %s.trace.json\n", stem.c_str());
  }
  if (!correct) return Fail(name, seed);
  PrintResult(attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else {
      std::fprintf(stderr, "advbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (MakeWorkload(workload, seed) == nullptr || !(seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: advbench --workload cold_measure|warm_solve "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  return trace != 0 ? RunTraced(workload, seed, seconds, OutDir())
                    : RunEndToEnd(workload, seed, seconds);
}
