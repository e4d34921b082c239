#include "service/advisor_service.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/timer.h"
#include "deploy/solver_registry.h"

namespace cloudia::service {

namespace internal {

// The service.* counters -- the only store behind stats() -- in the
// service's registry: the injected one, or `owned`. Shared with every
// RequestState and RedeployState, so a handle completing after the service
// is gone still counts into a live registry.
struct StatsCell {
  explicit StatsCell(obs::MetricsRegistry* injected)
      : owned(injected != nullptr ? nullptr
                                  : std::make_unique<obs::MetricsRegistry>()),
        registry(injected != nullptr ? injected : owned.get()) {}

  const std::unique_ptr<obs::MetricsRegistry> owned;
  obs::MetricsRegistry* const registry;
  obs::Counter submitted = registry->counter("service.requests.submitted");
  obs::Counter coalesced = registry->counter("service.requests.coalesced");
  obs::Counter completed = registry->counter("service.requests.completed");
  obs::Counter failed = registry->counter("service.requests.failed");
  obs::Counter cancelled = registry->counter("service.requests.cancelled");
  obs::Counter deadline_miss =
      registry->counter("service.requests.deadline_miss");
  obs::Counter warm_starts = registry->counter("service.solve.warm_starts");
  obs::Counter portfolio_routed = registry->counter("service.route.portfolio");
  obs::Counter hier_routed = registry->counter("service.route.hier");
  obs::Counter redeploys = registry->counter("service.redeploy.requests");
  obs::Counter redeploys_drifted =
      registry->counter("service.redeploy.drifted");
  obs::Counter matrix_refreshes =
      registry->counter("service.redeploy.matrix_refreshes");
};

// One scheduled unit of work: the leader request plus every byte-identical
// request coalesced onto it. Owned via shared_ptr by the scheduler and by
// each attached RequestState (the attached list is cleared on completion,
// which breaks the ownership cycle).
struct Job {
  uint64_t seq = 0;
  int priority = 0;
  double deadline_s = std::numeric_limits<double>::infinity();
  std::string fingerprint;
  DeploymentRequest request;  // the leader's request
  /// Tripped when every attached request has cancelled; polled by the
  /// measurement (through the cache) and the solver.
  CancelToken job_cancel;
  Stopwatch submitted;

  std::atomic<int> stage{static_cast<int>(RequestStage::kQueued)};
  std::atomic<double> best_cost{std::numeric_limits<double>::infinity()};
  std::atomic<int> incumbents{0};
  /// Solver-internal threads granted to this job (0 until the solve stage);
  /// guarded by the service mutex, returned to the budget when the job ends.
  int granted_threads = 0;

  std::mutex mu;
  bool completed = false;                             // guarded by mu
  std::vector<std::shared_ptr<RequestState>> attached;  // guarded by mu
};

// Per-Submit() state behind a RequestHandle. Completion is write-once.
struct RequestState {
  CancelToken cancel;
  bool coalesced = false;
  Stopwatch submitted;
  std::shared_ptr<Job> job;          // null for requests rejected at submit
  std::shared_ptr<StatsCell> stats;  // outcome counters outlive the service

  mutable std::mutex mu;
  mutable std::condition_variable cv;
  bool done = false;
  ServiceResult result;

  /// First completion wins; later calls are no-ops. Returns whether this
  /// call resolved the request, and counts the outcome exactly once.
  bool Complete(ServiceResult r) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (done) return false;
      // Count the outcome before publishing `done`, so a caller woken by
      // Wait() already sees its request in the service stats.
      switch (r.status.code()) {
        case StatusCode::kOk:
          stats->completed.Add();
          break;
        case StatusCode::kCancelled:
          stats->cancelled.Add();
          break;
        case StatusCode::kTimeout:
          stats->deadline_miss.Add();
          break;
        default:
          stats->failed.Add();
          break;
      }
      result = std::move(r);
      done = true;
    }
    cv.notify_all();
    return true;
  }
};

// Per-SubmitRedeploy() state behind a RedeployHandle; completion is
// write-once, mirroring RequestState.
struct RedeployState {
  RedeployRequest request;
  CancelToken cancel;
  Stopwatch submitted;
  std::shared_ptr<StatsCell> stats;

  mutable std::mutex mu;
  mutable std::condition_variable cv;
  bool done = false;
  RedeployResult result;

  bool Complete(RedeployResult r) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (done) return false;
      if (r.status.ok() && r.drift_detected) stats->redeploys_drifted.Add();
      r.total_s = submitted.ElapsedSeconds();
      result = std::move(r);
      done = true;
    }
    cv.notify_all();
    return true;
  }
};

}  // namespace internal

namespace {

using internal::Job;
using internal::RedeployState;
using internal::RequestState;

bool EqualsIgnoreCase(const std::string& a, const char* b) {
  size_t i = 0;
  for (; i < a.size() && b[i] != '\0'; ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return i == a.size() && b[i] == '\0';
}

/// Scheduling order: higher priority first, then earlier deadline, then
/// submit order. `JobAfter(a, b)` == "a runs after b" (std::push_heap's
/// less-than for a max-heap).
bool JobAfter(const std::shared_ptr<Job>& a, const std::shared_ptr<Job>& b) {
  if (a->priority != b->priority) return a->priority < b->priority;
  if (a->deadline_s != b->deadline_s) return a->deadline_s > b->deadline_s;
  return a->seq > b->seq;
}

std::string GraphFingerprint(const graph::CommGraph* app) {
  std::string fp = "g:";
  if (app == nullptr) return fp + "null";
  fp += std::to_string(app->num_nodes());
  for (const graph::Edge& e : app->edges()) {
    fp += ',';
    fp += std::to_string(e.src);
    fp += '>';
    fp += std::to_string(e.dst);
  }
  return fp;
}

}  // namespace

const char* RequestStageName(RequestStage stage) {
  switch (stage) {
    case RequestStage::kQueued:
      return "queued";
    case RequestStage::kMeasuring:
      return "measuring";
    case RequestStage::kSolving:
      return "solving";
    case RequestStage::kDone:
      return "done";
  }
  return "unknown";
}

// --- RequestHandle -----------------------------------------------------------

RequestHandle::RequestHandle(std::shared_ptr<internal::RequestState> state)
    : state_(std::move(state)) {}

const ServiceResult& RequestHandle::Wait() const {
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->done; });
  return state_->result;
}

bool RequestHandle::WaitFor(double seconds) const {
  std::unique_lock<std::mutex> lock(state_->mu);
  return state_->cv.wait_for(lock, std::chrono::duration<double>(seconds),
                             [this] { return state_->done; });
}

bool RequestHandle::done() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

RequestProgress RequestHandle::progress() const {
  RequestProgress p;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->done) p.stage = RequestStage::kDone;
  }
  const std::shared_ptr<Job>& job = state_->job;
  if (job != nullptr) {
    if (p.stage != RequestStage::kDone) {
      p.stage = static_cast<RequestStage>(job->stage.load());
    }
    p.best_cost_ms = job->best_cost.load();
    p.incumbents = job->incumbents.load();
  }
  return p;
}

void RequestHandle::Cancel() const {
  RequestState& state = *state_;
  state.cancel.Cancel();
  ServiceResult r;
  r.status = Status::Cancelled("request cancelled by caller");
  r.coalesced = state.coalesced;
  r.total_s = state.submitted.ElapsedSeconds();
  state.Complete(std::move(r));
  // Abort the underlying job only once *every* coalesced caller is gone:
  // one impatient tenant must not kill work its twins still want. The
  // roster check and the cancel happen under the job lock (Cancel() is a
  // plain atomic store), so a twin attaching concurrently either registers
  // its live token before the check or observes job_cancel already tripped
  // at attach time -- never a silently killed newcomer.
  const std::shared_ptr<Job>& job = state.job;
  if (job == nullptr) return;
  std::lock_guard<std::mutex> lock(job->mu);
  if (job->completed) return;
  for (const std::shared_ptr<RequestState>& st : job->attached) {
    if (!st->cancel.Cancelled()) return;
  }
  job->job_cancel.Cancel();
}

// --- RedeployHandle ----------------------------------------------------------

RedeployHandle::RedeployHandle(std::shared_ptr<internal::RedeployState> state)
    : state_(std::move(state)) {}

const RedeployResult& RedeployHandle::Wait() const {
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->done; });
  return state_->result;
}

bool RedeployHandle::WaitFor(double seconds) const {
  std::unique_lock<std::mutex> lock(state_->mu);
  return state_->cv.wait_for(lock, std::chrono::duration<double>(seconds),
                             [this] { return state_->done; });
}

bool RedeployHandle::done() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

void RedeployHandle::Cancel() const {
  state_->cancel.Cancel();
  RedeployResult r;
  r.status = Status::Cancelled("redeploy request cancelled by caller");
  state_->Complete(std::move(r));
}

// --- AdvisorService ----------------------------------------------------------

AdvisorService::AdvisorService() : AdvisorService(Options{}) {}

AdvisorService::AdvisorService(Options options)
    : options_(std::move(options)),
      stats_(std::make_shared<internal::StatsCell>(options_.obs.metrics)),
      queue_depth_gauge_(stats_->registry->gauge("service.queue.depth")),
      cache_([this] {
        CostMatrixCache::Options copts;
        copts.capacity = options_.cache_capacity;
        copts.ttl_s = options_.cache_ttl_s;
        copts.measure_fn = options_.measure_fn;
        copts.metrics = stats_->registry;
        return copts;
      }()),
      paused_(options_.start_paused) {
  threads_ = options_.threads > 0
                 ? options_.threads
                 : static_cast<int>(std::thread::hardware_concurrency());
  if (threads_ < 1) threads_ = 1;
  pool_ = std::make_unique<ThreadPool>(threads_);
}

AdvisorService::~AdvisorService() {
  Resume();           // jobs queued while paused must still complete
  pool_->Shutdown();  // drains every scheduled job, then joins
}

std::string AdvisorService::Fingerprint(const DeploymentRequest& request) {
  std::string fp = request.environment.Key();
  fp += '|';
  fp += GraphFingerprint(request.app);
  const cloudia::SolveSpec& s = request.solve;
  char buf[320];
  // Every solver knob SolveSpec inherits from deploy::NdpSolveOptions, plus
  // its method name; a knob added there must be added here too
  // (EverySolveKnobIsInTheCoalescingFingerprint). ObjectiveSpecKey so
  // requests differing only in objective weights never coalesce (the
  // degenerate key equals the plain objective name).
  std::snprintf(buf, sizeof(buf),
                "|m=%s|o=%s|t=%.17g|k=%d|r1=%d|th=%d|seed=%llu|ws=%d|pr=%d|"
                "dl=%.17g|hc=%d|hs=%s|hp=%d",
                s.method.c_str(), deploy::ObjectiveSpecKey(s.objective).c_str(),
                s.time_budget_s, s.cost_clusters, s.r1_samples, s.threads,
                static_cast<unsigned long long>(s.seed),
                s.warm_start_hints ? 1 : 0, request.priority,
                request.deadline_s, s.hier_clusters,
                s.hier_shard_solver.c_str(), s.hier_polish_steps);
  fp += buf;
  for (const std::string& member : s.portfolio_members) fp += "|pm=" + member;
  for (int v : s.initial) fp += "|i" + std::to_string(v);
  return fp;
}

RequestHandle AdvisorService::Submit(DeploymentRequest request) {
  auto state = std::make_shared<RequestState>();
  state->cancel = request.cancel;
  state->stats = stats_;
  stats_->submitted.Add();

  if (request.app == nullptr) {
    ServiceResult r;
    r.status = Status::InvalidArgument("request has no application graph");
    state->Complete(std::move(r));
    return RequestHandle(std::move(state));
  }
  if (request.app->num_nodes() > request.environment.instances) {
    ServiceResult r;
    r.status = Status::InvalidArgument(
        "application graph needs " +
        std::to_string(request.app->num_nodes()) +
        " nodes but the environment allocates only " +
        std::to_string(request.environment.instances) + " instances");
    state->Complete(std::move(r));
    return RequestHandle(std::move(state));
  }

  const std::string fp = Fingerprint(request);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(fp);
  if (it != active_.end()) {
    const std::shared_ptr<Job>& job = it->second;
    std::lock_guard<std::mutex> jlock(job->mu);
    // Never attach to a job that finished or whose every caller cancelled
    // (a cancel-and-retry resubmission must not inherit the cancellation);
    // fall through to a fresh job instead -- active_[fp] is overwritten and
    // the dying job's cleanup guard (`it->second == job`) skips it.
    if (!job->completed && !job->job_cancel.Cancelled()) {
      state->coalesced = true;
      state->job = job;
      job->attached.push_back(state);
      stats_->coalesced.Add();
      return RequestHandle(std::move(state));
    }
  }

  auto job = std::make_shared<Job>();
  job->seq = next_seq_++;
  job->priority = request.priority;
  job->deadline_s = request.deadline_s;
  job->fingerprint = fp;
  job->request = std::move(request);
  state->job = job;
  {
    std::lock_guard<std::mutex> jlock(job->mu);
    job->attached.push_back(state);
  }
  active_[fp] = job;
  pending_.push_back(job);
  std::push_heap(pending_.begin(), pending_.end(), JobAfter);
  queue_depth_gauge_.Add(1);
  if (paused_) {
    ++deferred_;
  } else {
    pool_->Submit([this] { RunOne(); });
  }
  return RequestHandle(std::move(state));
}

void AdvisorService::Resume() {
  size_t owed = 0;
  std::vector<std::shared_ptr<RedeployState>> redeploys;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!paused_) return;
    paused_ = false;
    owed = deferred_;
    deferred_ = 0;
    redeploys.swap(pending_redeploys_);
  }
  for (size_t i = 0; i < owed; ++i) {
    pool_->Submit([this] { RunOne(); });
  }
  for (std::shared_ptr<RedeployState>& state : redeploys) {
    pool_->Submit([this, state = std::move(state)] { ExecuteRedeploy(state); });
  }
}

void AdvisorService::EnableRedeployment(const EnvironmentSpec& environment,
                                        RedeployPolicy policy) {
  std::lock_guard<std::mutex> lock(mu_);
  redeploy_policies_[environment.Key()] = std::move(policy);
}

RedeployHandle AdvisorService::SubmitRedeploy(RedeployRequest request) {
  auto state = std::make_shared<RedeployState>();
  state->cancel = request.cancel;
  state->stats = stats_;
  state->request = std::move(request);
  stats_->redeploys.Add();

  if (state->request.app == nullptr) {
    RedeployResult r;
    r.status = Status::InvalidArgument("request has no application graph");
    state->Complete(std::move(r));
    return RedeployHandle(std::move(state));
  }
  // Policy lookup happens at execution time, so batch drivers may enable
  // policies and submit in any order before Resume().
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (paused_) {
      pending_redeploys_.push_back(state);
      return RedeployHandle(std::move(state));
    }
  }
  pool_->Submit([this, state] { ExecuteRedeploy(state); });
  return RedeployHandle(std::move(state));
}

void AdvisorService::ExecuteRedeploy(
    const std::shared_ptr<internal::RedeployState>& state) {
  const RedeployRequest& req = state->request;
  auto fail = [&state](Status status) {
    RedeployResult r;
    r.status = std::move(status);
    state->Complete(std::move(r));
  };
  if (state->cancel.Cancelled()) {
    fail(Status::Cancelled("redeploy request cancelled before it ran"));
    return;
  }

  // Drift probes and escalated re-measures run against the rebuilt
  // simulated cloud; a service whose baseline matrices come from an
  // injected measure_fn would mix two unrelated networks and Put()
  // simulator matrices into a cache of synthetic ones. Refuse instead.
  if (options_.measure_fn) {
    fail(Status::InvalidArgument(
        "redeployment monitors the built-in simulated cloud and cannot run "
        "on a service configured with a custom measure_fn"));
    return;
  }

  RedeployPolicy policy;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = redeploy_policies_.find(req.environment.Key());
    if (it == redeploy_policies_.end()) {
      fail(Status::InvalidArgument(
          "redeployment is not enabled for environment " +
          req.environment.Key() +
          " (opt in per environment with EnableRedeployment())"));
      return;
    }
    policy = it->second;
  }
  // One objective end to end: the request's declared objective governs the
  // baseline solve, every migration plan, and all reported costs -- a
  // policy's planner default must never silently plan for an objective the
  // tenant did not ask for.
  policy.planner.objective = req.solve.objective;
  if (req.app->num_nodes() > req.environment.instances) {
    fail(Status::InvalidArgument(
        "application graph needs " + std::to_string(req.app->num_nodes()) +
        " nodes but the environment allocates only " +
        std::to_string(req.environment.instances) + " instances"));
    return;
  }

  // Baseline matrix: shared with deployment requests through the cache
  // (single-flight, so a deploy and a redeploy on a cold environment still
  // pay for one measurement).
  Result<CostMatrixCache::Lookup> lookup =
      cache_.Get(req.environment, state->cancel, options_.obs);
  if (!lookup.ok()) {
    fail(lookup.status());
    return;
  }
  const CostMatrixCache::EntryPtr env = lookup->entry;

  // Rebuild the environment's simulator: the latency model is a pure
  // function of (profile, seed), so the cached pool probes the same network
  // the baseline measurement saw -- now with the policy's drift scenario
  // overlaid, anchored at the end of that measurement so "drift" means
  // "change since the cached matrix".
  Result<net::ProviderProfile> profile =
      ProviderProfileByName(req.environment.provider);
  if (!profile.ok()) {
    fail(profile.status());
    return;
  }
  net::CloudSimulator cloud(std::move(profile).value(), req.environment.seed);
  const double baseline_end_h = env->measure_virtual_s / 3600.0;
  net::DynamicsConfig dynamics_config = policy.dynamics;
  if (dynamics_config.start_hours <= 0.0) {
    dynamics_config.start_hours = baseline_end_h;
  }
  // A caller-supplied policy must fail through the handle, never trip the
  // NetworkDynamics constructor's CHECKs and abort every tenant's service.
  Status dynamics_ok = dynamics_config.Validate();
  if (!dynamics_ok.ok()) {
    fail(Status::InvalidArgument("invalid RedeployPolicy dynamics: " +
                                 dynamics_ok.ToString()));
    return;
  }
  net::NetworkDynamics dynamics(dynamics_config, &cloud.topology());
  cloud.AttachDynamics(&dynamics);

  obs::Span redeploy_span(options_.obs.tracer, "service.redeploy", "service",
                          options_.obs.parent);

  // The deployment to keep good: the caller's, or a baseline solve on the
  // cached matrix (the same path a deployment request takes).
  deploy::Deployment initial = req.current;
  if (initial.empty()) {
    cloudia::SessionOptions session_options;
    session_options.obs = options_.obs.Under(redeploy_span.id());
    cloudia::DeploymentSession session(/*cloud=*/nullptr, req.app,
                                       std::move(session_options));
    Status adopted = session.AdoptMeasurement(env->instances, env->costs,
                                              env->measure_virtual_s);
    if (!adopted.ok()) {
      fail(adopted);
      return;
    }
    cloudia::SolveSpec spec = req.solve;
    spec.app = nullptr;
    spec.cancel = state->cancel;
    spec.threads = 1;  // redeploy advice must be deterministic
    if (spec.method.empty() || EqualsIgnoreCase(spec.method, "auto")) {
      spec.method = options_.default_method;
    }
    Result<cloudia::SessionSolve> solve = session.Solve(spec);
    if (!solve.ok()) {
      fail(solve.status());
      return;
    }
    initial = solve->result.deployment;
  }

  redeploy::OnlineOptions online;
  online.monitor = policy.monitor;
  online.planner = policy.planner;
  if (req.max_migrations >= -1) {
    online.planner.max_migrations = req.max_migrations;
  }
  online.start_t_hours = baseline_end_h;
  online.check_interval_s = policy.check_interval_s;
  online.checks = req.checks > 0 ? req.checks : policy.checks;
  online.protocol = req.environment.protocol;
  online.metric = req.environment.metric;
  online.measure_duration_s = req.environment.measure_duration_s;
  online.probe_bytes = req.environment.probe_bytes;
  online.measure_seed = req.environment.seed;
  online.cancel = state->cancel;
  online.obs = options_.obs.Under(redeploy_span.id());

  RedeployResult result;
  auto on_refresh = [this, &req, &env, &result](
                        double t_hours, const deploy::CostMatrix& refreshed) {
    MeasuredEnvironment fresh;
    fresh.spec = req.environment;
    fresh.instances = env->instances;
    fresh.costs = refreshed;
    // Stamp the entry with the virtual instant its re-measure completed
    // (for the baseline, start 0 + duration is the same quantity): a later
    // redeploy on this environment anchors its drift timeline here, not
    // back at the original baseline's end.
    fresh.measure_virtual_s = t_hours * 3600.0;
    cache_.Put(std::move(fresh));
    result.matrix_refreshed = true;
    stats_->matrix_refreshes.Add();
  };
  Result<redeploy::OnlineOutcome> outcome = redeploy::RunOnlineRedeployment(
      cloud, env->instances, *req.app, env->costs, initial, online,
      on_refresh);
  if (!outcome.ok()) {
    fail(outcome.status());
    return;
  }

  result.drift_detected = outcome->escalations > 0;
  result.checks_run = static_cast<int>(outcome->records.size());
  result.escalations = outcome->escalations;
  result.remeasures = outcome->remeasures;
  result.migrations = outcome->migrations;
  result.initial_deployment = initial;
  result.final_deployment = outcome->final_deployment;
  result.final_cost_ms = outcome->final_cost_ms;
  result.checks = std::move(outcome->records);
  {
    auto eval = deploy::CostEvaluator::Create(req.app, &env->costs,
                                              online.planner.objective);
    CLOUDIA_CHECK(eval.ok());
    result.initial_cost_ms = eval->Cost(initial);
  }
  {
    auto eval = deploy::CostEvaluator::Create(req.app, &outcome->latest_costs,
                                              online.planner.objective);
    CLOUDIA_CHECK(eval.ok());
    result.stale_cost_ms = eval->Cost(initial);
  }
  state->Complete(std::move(result));
}

void AdvisorService::RunOne() {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.empty()) return;
    std::pop_heap(pending_.begin(), pending_.end(), JobAfter);
    job = std::move(pending_.back());
    pending_.pop_back();
    queue_depth_gauge_.Add(-1);
    ++running_jobs_;
  }
  ExecuteJob(job);
  {
    std::lock_guard<std::mutex> lock(mu_);
    --running_jobs_;
    granted_threads_ -= job->granted_threads;
    auto it = active_.find(job->fingerprint);
    if (it != active_.end() && it->second == job) active_.erase(it);
  }
}

void AdvisorService::ExecuteJob(const std::shared_ptr<Job>& job) {
  const double queue_wait_s = job->submitted.ElapsedSeconds();

  // Completes every still-pending attached request with `base` (plus
  // per-request flags/timings) and closes the job to late coalescing.
  auto complete_all = [&job, queue_wait_s](ServiceResult base) {
    base.queue_wait_s = queue_wait_s;
    std::vector<std::shared_ptr<RequestState>> attached;
    {
      std::lock_guard<std::mutex> lock(job->mu);
      job->completed = true;
      attached.swap(job->attached);
    }
    job->stage.store(static_cast<int>(RequestStage::kDone));
    for (const std::shared_ptr<RequestState>& state : attached) {
      ServiceResult r = base;
      r.coalesced = state->coalesced;
      r.total_s = state->submitted.ElapsedSeconds();
      state->Complete(std::move(r));
    }
  };

  // Token-only cancellation: a caller that trips its request token without
  // calling RequestHandle::Cancel() is observed here and at the next stage
  // boundary (handle.Cancel() additionally aborts mid-stage).
  auto all_callers_cancelled = [&job] {
    std::lock_guard<std::mutex> lock(job->mu);
    if (job->attached.empty()) return false;
    for (const std::shared_ptr<RequestState>& state : job->attached) {
      if (!state->cancel.Cancelled()) return false;
    }
    return true;
  };
  if (job->job_cancel.Cancelled() || all_callers_cancelled()) {
    job->job_cancel.Cancel();
    ServiceResult r;
    r.status = Status::Cancelled("request cancelled before it was scheduled");
    complete_all(std::move(r));
    return;
  }
  if (job->deadline_s < std::numeric_limits<double>::infinity()) {
    // Each attached request's deadline runs from its *own* submission: a
    // coalesced twin that attached late may still be in time when the
    // leader has already expired, and then the job must still run.
    std::vector<std::shared_ptr<RequestState>> expired;
    bool any_live = false;
    {
      std::lock_guard<std::mutex> lock(job->mu);
      auto& attached = job->attached;
      for (auto it = attached.begin(); it != attached.end();) {
        if ((*it)->submitted.ElapsedSeconds() > job->deadline_s) {
          expired.push_back(std::move(*it));
          it = attached.erase(it);
        } else {
          any_live = true;
          ++it;
        }
      }
      if (!any_live) job->completed = true;
    }
    for (const std::shared_ptr<RequestState>& state : expired) {
      ServiceResult r;
      r.status = Status::Timeout(
          "request deadline (" + std::to_string(job->deadline_s) +
          " s) passed while queued");
      r.coalesced = state->coalesced;
      r.queue_wait_s = queue_wait_s;
      r.total_s = state->submitted.ElapsedSeconds();
      state->Complete(std::move(r));
    }
    if (!any_live) {
      job->stage.store(static_cast<int>(RequestStage::kDone));
      return;
    }
  }

  // Observability: one "service.job" span covers measure + solve; queue
  // wait and solve time land in per-priority histograms so tail latency can
  // be read per tier instead of averaged across them.
  obs::Span job_span(options_.obs.tracer, "service.job", "service",
                     options_.obs.parent);
  const std::string priority_suffix =
      ".p" + std::to_string(std::max(-9, std::min(9, job->priority)));
  stats_->registry->histogram("service.queue.wait_s" + priority_suffix)
      .Observe(queue_wait_s);

  // -- Stage 1: resolve the cost matrix (cache / single-flight measure) ------
  job->stage.store(static_cast<int>(RequestStage::kMeasuring));
  Result<CostMatrixCache::Lookup> lookup =
      cache_.Get(job->request.environment, job->job_cancel,
                 options_.obs.Under(job_span.id()));
  if (!lookup.ok()) {
    ServiceResult r;
    r.status = lookup.status();
    complete_all(std::move(r));
    return;
  }
  const CostMatrixCache::EntryPtr& env = lookup->entry;

  // Stage boundary: skip the solve when every caller cancelled during the
  // measurement through their tokens alone (the matrix itself stays cached
  // for future requests either way).
  if (job->job_cancel.Cancelled() || all_callers_cancelled()) {
    job->job_cancel.Cancel();
    ServiceResult r;
    r.status = Status::Cancelled("request cancelled before solving");
    complete_all(std::move(r));
    return;
  }

  // -- Stage 2: solve on a session that adopts the shared measurement --------
  job->stage.store(static_cast<int>(RequestStage::kSolving));
  cloudia::SessionOptions session_options;
  session_options.obs = options_.obs.Under(job_span.id());
  cloudia::DeploymentSession session(/*cloud=*/nullptr, job->request.app,
                                     std::move(session_options));
  Status adopted = session.AdoptMeasurement(env->instances, env->costs,
                                            env->measure_virtual_s);
  if (!adopted.ok()) {
    ServiceResult r;
    r.status = adopted;
    complete_all(std::move(r));
    return;
  }

  cloudia::SolveSpec spec = job->request.solve;
  spec.app = nullptr;  // the session already solves for request.app
  spec.cancel = job->job_cancel;
  // A priced objective without explicit per-instance prices gets them from
  // the environment's provider price model.
  Status priced = FillInstancePrices(job->request.environment.provider,
                                     env->instances, &spec.objective);
  if (!priced.ok()) {
    ServiceResult r;
    r.status = priced;
    complete_all(std::move(r));
    return;
  }
  spec.on_progress = [job](const deploy::TracePoint& point,
                           const deploy::Deployment&) {
    // Serialized by SolveContext's progress lock, so plain min-update is safe.
    if (point.cost < job->best_cost.load()) job->best_cost.store(point.cost);
    job->incumbents.fetch_add(1);
  };

  const int n = job->request.app->num_nodes();
  if (spec.method.empty() || EqualsIgnoreCase(spec.method, "auto")) {
    if (n >= options_.hier_node_threshold) {
      // Past flat-solver scale: divide-and-conquer instead of racing flat
      // solvers that would all collapse on a problem this size.
      spec.method = "hier";
      stats_->hier_routed.Add();
    } else if (n >= options_.portfolio_node_threshold) {
      spec.method = "portfolio";
      if (spec.portfolio_members.empty()) {
        spec.portfolio_members = options_.portfolio_members;
      }
      stats_->portfolio_routed.Add();
    } else {
      spec.method = options_.default_method;
    }
  }

  // Global thread budget: grant this job whatever the budget has left after
  // the shares already granted to concurrently running solves (floored at
  // one thread each -- the only unavoidable oversubscription).
  bool warm_started = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const int share = std::max(1, threads_ - granted_threads_);
    spec.threads = spec.threads > 0 ? std::min(spec.threads, share) : share;
    job->granted_threads = spec.threads;
    granted_threads_ += spec.threads;

    // Warm start: later solves on the same (environment, graph, objective)
    // start from the best deployment any earlier solve found, and publish
    // their own improvements back through the shared incumbent cell.
    const std::string warm_key = job->request.environment.Key() + "|" +
                                 GraphFingerprint(job->request.app) + "|" +
                                 deploy::ObjectiveSpecKey(spec.objective);
    spec.shared_incumbent = WarmStartCell(warm_key);
    // Offer the incumbent as the starting point only when (a) the caller
    // did not bring their own -- spec.initial is part of the request
    // contract (and of the coalescing fingerprint), never
    // service-overwritten -- and (b) the solver actually reads it (greedy
    // and pure random methods ignore options.initial; flagging those
    // "warm_started" would promise a seeding that never happened).
    const deploy::NdpSolver* solver =
        deploy::SolverRegistry::Global().Find(spec.method);
    double warm_cost = 0.0;
    deploy::Deployment warm;
    if (spec.initial.empty() && solver != nullptr &&
        solver->ConsumesInitial() &&
        spec.shared_incumbent->Snapshot(&warm_cost, &warm) &&
        warm.size() == static_cast<size_t>(n)) {
      spec.initial = std::move(warm);
      warm_started = true;
      stats_->warm_starts.Add();
    }
  }

  Stopwatch solve_watch;
  Result<cloudia::SessionSolve> solve = session.Solve(spec);
  stats_->registry->histogram("service.solve.time_s" + priority_suffix)
      .Observe(solve_watch.ElapsedSeconds());

  ServiceResult base;
  base.cache_hit = lookup->hit;
  base.measurement_shared = lookup->waited;
  base.warm_started = warm_started;
  if (solve.ok()) {
    // Belt and braces: solvers publish incumbents through the context, but
    // pin the final result into the warm-start cell regardless.
    spec.shared_incumbent->TryImprove(solve->cost_ms,
                                      solve->result.deployment);
    base.routed_method = solve->method;
    base.solve = std::move(solve).value();
  } else {
    base.status = solve.status();
    base.routed_method = spec.method;
  }
  complete_all(std::move(base));
}

std::shared_ptr<deploy::SharedIncumbent> AdvisorService::WarmStartCell(
    const std::string& key) {
  auto it = incumbents_.find(key);
  if (it != incumbents_.end()) {
    incumbents_lru_.splice(incumbents_lru_.begin(), incumbents_lru_,
                           it->second.lru_it);
    return it->second.cell;
  }
  const size_t capacity = std::max<size_t>(1, options_.warm_start_capacity);
  while (incumbents_.size() >= capacity) {
    incumbents_.erase(incumbents_lru_.back());
    incumbents_lru_.pop_back();
  }
  incumbents_lru_.push_front(key);
  WarmCell cell{std::make_shared<deploy::SharedIncumbent>(),
                incumbents_lru_.begin()};
  incumbents_[key] = cell;
  return cell.cell;
}

AdvisorService::Stats AdvisorService::stats() const {
  const internal::StatsCell& c = *stats_;
  return {.submitted = c.submitted.value(),
          .coalesced = c.coalesced.value(),
          .completed = c.completed.value(),
          .failed = c.failed.value(),
          .cancelled = c.cancelled.value(),
          .expired = c.deadline_miss.value(),
          .warm_starts = c.warm_starts.value(),
          .portfolio_routed = c.portfolio_routed.value(),
          .hier_routed = c.hier_routed.value(),
          .redeploys = c.redeploys.value(),
          .redeploys_drifted = c.redeploys_drifted.value(),
          .matrix_refreshes = c.matrix_refreshes.value()};
}

}  // namespace cloudia::service
