// AdvisorService: a concurrent, multi-tenant front end over paper Fig. 3's
// measure and search steps.
//
// The service accepts many asynchronous DeploymentRequests and schedules them
// across a machine-wide worker pool, exploiting the paper's cost structure
// (measurement is the expensive, billed step; solving the cached matrix is
// cheap -- Sect. 6.2, Fig. 7) three ways:
//
//   1. CostMatrixCache: requests against the same environment share one
//      measurement (TTL/LRU + single-flight; see cost_matrix_cache.h), and
//      every solve runs cloudia::SolveOnPool() on the cached pool and matrix
//      in place, without copying them.
//   2. Priority scheduling + request coalescing: jobs run highest priority
//      first (earlier deadline, then FIFO, as tie-breaks); byte-identical
//      requests in flight are coalesced onto one solve whose result every
//      attached caller receives.
//   3. Warm starts: the best deployment found for a (matrix, graph,
//      objective) triple is kept in a deploy::SharedIncumbent and offered to
//      later solves on the same triple as their starting incumbent, so
//      repeated traffic keeps improving instead of restarting from scratch.
//
// Requests whose method is "auto" (or empty) are routed by problem size:
// small instances get the default solver, big ones the concurrent portfolio
// -- sized to the service's global thread budget.
//
//   service::AdvisorService service({.threads = 4});
//   service::DeploymentRequest req;
//   req.environment = {.provider = "ec2", .instances = 33, .seed = 7};
//   req.app = &my_graph;
//   req.solve.method = "auto";
//   auto handle = service.Submit(std::move(req));
//   const service::ServiceResult& r = handle.Wait();
#ifndef CLOUDIA_SERVICE_ADVISOR_SERVICE_H_
#define CLOUDIA_SERVICE_ADVISOR_SERVICE_H_

#include <cstdint>
#include <limits>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cloudia/session.h"
#include "common/cancel.h"
#include "common/thread_pool.h"
#include "netsim/dynamics.h"
#include "obs/obs.h"
#include "redeploy/online.h"
#include "service/cost_matrix_cache.h"

namespace cloudia::service {

/// Where a request currently is in its lifecycle.
enum class RequestStage { kQueued, kMeasuring, kSolving, kDone };
const char* RequestStageName(RequestStage stage);

/// One asynchronous deployment request.
struct DeploymentRequest {
  /// Which environment to measure (or reuse from the cache).
  EnvironmentSpec environment;
  /// Application graph to place; must outlive the service. The graph must
  /// fit the environment's instance pool.
  const graph::CommGraph* app = nullptr;
  /// Solve parameters (method, objective, budget, seed, ...). `method` may
  /// be "auto" (or "") to let the service route by problem size. The
  /// service-managed fields `app`, `cancel`, `on_progress`, and
  /// `shared_incumbent` of the spec are ignored: use the request-level
  /// fields instead.
  cloudia::SolveSpec solve;
  /// Higher runs first; ties broken by earlier deadline, then submit order.
  int priority = 0;
  /// Seconds after submission by which the job must have *started*; a job
  /// still queued past its deadline fails with Status::Timeout instead of
  /// occupying a worker. Infinity = no deadline.
  double deadline_s = std::numeric_limits<double>::infinity();
  /// Cancellation. RequestHandle::Cancel() is the precise channel: it
  /// resolves the handle immediately and stops in-flight work at the next
  /// cooperative poll (a shared measurement or coalesced solve is aborted
  /// only when every attached caller has cancelled). Tripping this token
  /// directly -- without the handle -- is also honored, but only at stage
  /// boundaries: before the job starts and between measurement and solve.
  CancelToken cancel;
};

/// Final outcome delivered through a RequestHandle.
struct ServiceResult {
  /// OK iff the solve ran to completion; Cancelled / Timeout / solver errors
  /// otherwise.
  Status status = Status::OK();
  /// The solve outcome (valid iff status.ok()): cost, placement, trace, ...
  cloudia::SessionSolve solve;
  /// Canonical name of the solver that actually ran (after "auto" routing).
  std::string routed_method;
  bool cache_hit = false;      ///< matrix served from cache, nothing measured
  /// Matrix came from a measurement another request started (single-flight
  /// wait); mutually exclusive with cache_hit.
  bool measurement_shared = false;
  bool coalesced = false;      ///< this request attached to an identical one
  bool warm_started = false;   ///< solve started from a prior incumbent
  double queue_wait_s = 0.0;   ///< submission -> job start (wall)
  double total_s = 0.0;        ///< submission -> completion (wall)
};

/// Point-in-time progress of a request (poll from any thread).
struct RequestProgress {
  RequestStage stage = RequestStage::kQueued;
  /// Best incumbent cost reported so far; +infinity before the first.
  double best_cost_ms = std::numeric_limits<double>::infinity();
  int incumbents = 0;
};

/// Per-environment opt-in policy for online redeployment. An environment
/// with no registered policy rejects redeploy requests: drift monitoring
/// re-probes the tenant's instances and an escalation pays for a full
/// re-measure, so the tenant must ask for it.
struct RedeployPolicy {
  /// The drift scenario the environment lives under (the simulator stands
  /// in for the real cloud's drift). start_hours <= 0 anchors the scenario
  /// at the end of the baseline measurement, so "drift" means "change since
  /// the cached matrix was measured".
  net::DynamicsConfig dynamics;
  redeploy::MonitorOptions monitor;
  /// Planner defaults; RedeployRequest::max_migrations overrides the K and
  /// the request's solve.objective always overrides `planner.objective`
  /// (plans must serve the tenant's declared objective).
  redeploy::PlannerOptions planner;
  /// Virtual seconds between drift checks.
  double check_interval_s = 1800.0;
  /// Default number of checks per redeploy request.
  int checks = 12;

  bool operator==(const RedeployPolicy&) const = default;
};

/// One asynchronous redeployment-advice request: "my deployment in this
/// environment is `current`; watch for drift and tell me how to fix it".
struct RedeployRequest {
  /// Which environment to monitor; its baseline matrix comes from (or is
  /// measured into) the cost-matrix cache, and a policy must have been
  /// registered for it via EnableRedeployment().
  EnvironmentSpec environment;
  /// Application graph; must outlive the service.
  const graph::CommGraph* app = nullptr;
  /// The deployment currently running (node -> instance index into the
  /// environment's pool). Empty: the service solves a baseline first with
  /// `solve` and monitors that.
  deploy::Deployment current;
  /// Baseline solve parameters. The method/budget/seed are used only when
  /// `current` is empty, but `solve.objective` always governs the whole
  /// request: monitoring costs, migration planning, and every reported
  /// cost run under it (overriding the policy's planner default).
  /// "auto"/"" always means Options::default_method: the baseline solve is
  /// pinned to one thread for deterministic advice, so it is never routed
  /// to the portfolio or hier by size.
  cloudia::SolveSpec solve;
  /// Migration budget K for every plan; < -1 (the default sentinel -2)
  /// defers to the policy, -1 = unlimited, 0 = monitor/refresh only.
  int max_migrations = -2;
  /// Overrides the policy's number of checks when > 0.
  int checks = 0;
  CancelToken cancel;
};

/// Outcome of a redeploy request.
struct RedeployResult {
  Status status = Status::OK();
  bool drift_detected = false;   ///< at least one check escalated
  bool matrix_refreshed = false; ///< the cache now holds a fresher matrix
  int checks_run = 0;
  int escalations = 0;
  int remeasures = 0;
  int migrations = 0;            ///< nodes moved across all applied plans
  deploy::Deployment initial_deployment;
  deploy::Deployment final_deployment;
  /// Cost of the initial deployment under the baseline matrix.
  double initial_cost_ms = 0.0;
  /// Cost of the initial deployment under the *latest* matrix: what the
  /// tenant would keep paying without migrating.
  double stale_cost_ms = 0.0;
  /// Cost of the final deployment under the latest matrix.
  double final_cost_ms = 0.0;
  /// Every drift check in order, escalations carrying their (validated)
  /// migration plan.
  std::vector<redeploy::OnlineCheckRecord> checks;
  double total_s = 0.0;          ///< submission -> completion (wall)
};

namespace internal {
struct RequestState;
struct RedeployState;
struct Job;
struct StatsCell;
}  // namespace internal

/// Cheap, copyable future-like handle to a submitted request. All methods
/// are thread-safe; the handle stays valid after the service is destroyed
/// (the service drains its queue on destruction, so every handle completes).
class RequestHandle {
 public:
  /// Blocks until the request completes and returns its result (also valid
  /// on every later call).
  const ServiceResult& Wait() const;
  /// Waits up to `seconds`; true when the request completed.
  bool WaitFor(double seconds) const;
  bool done() const;
  RequestProgress progress() const;
  /// Cancels this request (see DeploymentRequest::cancel for semantics).
  /// The handle completes with Status::Cancelled.
  void Cancel() const;

 private:
  friend class AdvisorService;
  explicit RequestHandle(std::shared_ptr<internal::RequestState> state);
  std::shared_ptr<internal::RequestState> state_;
};

/// Cheap, copyable handle to a submitted redeploy request (same contract as
/// RequestHandle: thread-safe, survives the service).
class RedeployHandle {
 public:
  const RedeployResult& Wait() const;
  bool WaitFor(double seconds) const;
  bool done() const;
  /// Cancels the request: resolves the handle with Status::Cancelled and
  /// stops the monitoring loop at its next check (or the in-flight
  /// re-measure at its next probe poll).
  void Cancel() const;

 private:
  friend class AdvisorService;
  explicit RedeployHandle(std::shared_ptr<internal::RedeployState> state);
  std::shared_ptr<internal::RedeployState> state_;
};

class AdvisorService {
 public:
  struct Options {
    /// Global worker-thread budget: the number of concurrent jobs, and the
    /// cap on the threads a job's measurement and its solve use. A
    /// measurement or a solve takes what the budget has left when it starts
    /// (at least 1 thread; a measurement at most what its protocol puts to
    /// work, measure::UsefulParticipants) and holds it until it ends; a
    /// request waiting on another's measurement holds none. 0 = hardware
    /// concurrency. A measured matrix is bit-identical for any budget. With
    /// threads = 1 the whole service is deterministic: jobs run
    /// sequentially in strict priority order and every solver runs
    /// single-threaded.
    int threads = 0;
    size_t cache_capacity = 8;
    double cache_ttl_s = std::numeric_limits<double>::infinity();
    /// Warm-start incumbent cells kept, one per (environment, graph,
    /// objective) triple, before least-recently-used eviction -- each cell
    /// holds a full Deployment, so the map must not grow with tenant count.
    size_t warm_start_capacity = 64;
    /// "auto" requests with at least this many application nodes are routed
    /// to the portfolio solver; smaller ones to `default_method`.
    int portfolio_node_threshold = 100;
    /// "auto" requests at or above this many application nodes go to the
    /// hierarchical solver instead of the portfolio -- flat solves stop
    /// being economical long before datacenter scale (ROADMAP Open item 1).
    int hier_node_threshold = 1000;
    std::string default_method = "cp";
    /// Members for routed portfolio solves; empty = the portfolio default.
    std::vector<std::string> portfolio_members;
    /// Queue submissions without executing until Resume() -- lets batch
    /// drivers (and determinism tests) make the execution order a pure
    /// function of the submitted set instead of racing submission.
    bool start_paused = false;
    /// Test hook forwarded to the cache.
    CostMatrixCache::MeasureFn measure_fn;
    /// Observability sinks for the whole service (obs/obs.h). The service
    /// and its cache count every event once, into `obs.metrics`: a
    /// queue-depth gauge, per-priority queue-wait and solve-time
    /// histograms, service.* outcome counters (including deadline misses)
    /// and cache.matrix.* counters. stats() and cache_stats() are views
    /// over those counters. Without `obs.metrics` the service counts into a
    /// private registry, which sessions and redeploy loops never see; two
    /// services sharing one registry report summed counts. With a tracer,
    /// every job emits a "service.job" span with its solve
    /// ("session.solve.<method>") and its own measurement ("measure.run")
    /// nested under it. Both sinks must outlive the service.
    obs::ObsConfig obs;
  };

  /// A view over the service.* counters (`expired` reads
  /// service.requests.deadline_miss).
  struct Stats {
    uint64_t submitted = 0;
    uint64_t coalesced = 0;         ///< requests attached to an in-flight twin
    uint64_t completed = 0;         ///< requests resolved OK
    uint64_t failed = 0;            ///< requests resolved with a non-OK solve
    uint64_t cancelled = 0;         ///< requests resolved Cancelled
    uint64_t expired = 0;           ///< requests resolved Timeout (deadline)
    uint64_t warm_starts = 0;       ///< solves seeded from a prior incumbent
    uint64_t portfolio_routed = 0;  ///< "auto" requests sent to the portfolio
    uint64_t hier_routed = 0;       ///< "auto" requests sent to hier
    uint64_t redeploys = 0;             ///< redeploy requests submitted
    uint64_t redeploys_drifted = 0;     ///< completed with drift detected
    uint64_t redeploys_failed = 0;  ///< completed non-OK (cancels included)
    uint64_t matrix_refreshes = 0;      ///< matrices fed back into the cache
  };

  AdvisorService();  // all-default options
  explicit AdvisorService(Options options);

  /// Drains: resumes a paused service, runs every queued job to completion,
  /// and joins the workers. Cancel handles first to shed queued work.
  ~AdvisorService();

  AdvisorService(const AdvisorService&) = delete;
  AdvisorService& operator=(const AdvisorService&) = delete;

  /// Enqueues the request and returns its handle. Never blocks on
  /// measurement or solving. Fails requests with a null/oversized graph
  /// asynchronously (through the handle), not by crashing.
  RequestHandle Submit(DeploymentRequest request);

  /// Opts the environment into online redeployment (per-environment policy;
  /// re-registering replaces the previous policy). Without this,
  /// SubmitRedeploy() for the environment fails with InvalidArgument --
  /// monitoring probes the tenant's instances and escalations pay for full
  /// re-measures, so it is never on by default.
  void EnableRedeployment(const EnvironmentSpec& environment,
                          RedeployPolicy policy);

  /// Enqueues a redeploy-advice request: resolve (or reuse) the
  /// environment's baseline matrix, run `checks` drift checks over virtual
  /// time, re-measure + plan a migration-constrained redeployment on every
  /// escalation, and feed each refreshed matrix back into the cost-matrix
  /// cache so later deployment requests solve against current costs.
  /// Scheduled on the same worker pool as deployment requests (FIFO among
  /// redeploys -- background maintenance does not preempt tenant solves).
  RedeployHandle SubmitRedeploy(RedeployRequest request);

  /// Starts executing queued jobs (no-op unless constructed start_paused).
  void Resume();

  /// Resolved worker budget (>= 1).
  int threads() const { return threads_; }

  Stats stats() const;
  CostMatrixCache::Stats cache_stats() const { return cache_.stats(); }
  CostMatrixCache& cache() { return cache_; }

 private:
  void RunOne();
  void ExecuteJob(const std::shared_ptr<internal::Job>& job);
  void ExecuteRedeploy(const std::shared_ptr<internal::RedeployState>& state);
  static std::string Fingerprint(const DeploymentRequest& request);

  Options options_;
  int threads_ = 1;
  /// The service's counters and resolved registry (declared before cache_,
  /// which counts into the same registry).
  std::shared_ptr<internal::StatsCell> stats_;
  /// service.queue.depth: +1 on enqueue, -1 when a worker claims the job.
  obs::Gauge queue_depth_gauge_;
  CostMatrixCache cache_;
  std::unique_ptr<ThreadPool> pool_;

  mutable std::mutex mu_;
  uint64_t next_seq_ = 0;
  bool paused_ = false;
  size_t deferred_ = 0;  ///< drain tasks owed to the pool while paused
  std::vector<std::shared_ptr<internal::Job>> pending_;  // max-heap
  std::unordered_map<std::string, std::shared_ptr<internal::Job>> active_;
  /// Warm-start cells keyed by (environment, graph, objective), bounded by
  /// options_.warm_start_capacity with LRU eviction.
  std::shared_ptr<deploy::SharedIncumbent> WarmStartCell(
      const std::string& key);  // requires mu_ held
  struct WarmCell {
    std::shared_ptr<deploy::SharedIncumbent> cell;
    std::list<std::string>::iterator lru_it;
  };
  std::unordered_map<std::string, WarmCell> incumbents_;
  std::list<std::string> incumbents_lru_;  // front = most recently used
  /// Redeployment opt-ins keyed by EnvironmentSpec::Key().
  std::unordered_map<std::string, RedeployPolicy> redeploy_policies_;
  /// Redeploy requests queued while paused (drained by Resume()).
  std::vector<std::shared_ptr<internal::RedeployState>> pending_redeploys_;
  int running_jobs_ = 0;
  /// Sum of threads currently granted to running solves and measurements;
  /// a new share is what the budget has left (floored at 1), so the total
  /// stays within options_.threads instead of oversubscribing.
  int granted_threads_ = 0;
};

}  // namespace cloudia::service

#endif  // CLOUDIA_SERVICE_ADVISOR_SERVICE_H_
