// The staged deployment-tuning session: paper Fig. 3's pipeline
// (allocate -> measure -> search -> terminate) with every stage exposed as
// an explicit, resumable step.
//
// The expensive step of a real ClouDiA run is the measurement -- minutes of
// wall time on the tenant's bill -- while searching is comparatively cheap
// and worth repeating: the paper's own evaluation solves the same measured
// cost matrix with several methods (Fig. 7 compares CP vs. MIP on identical
// costs) and objectives. A DeploymentSession therefore measures once and
// accepts any number of Solve() calls against the cached matrix, each with
// its own method, objective, budget, progress callback, cancellation token,
// or even application graph (any graph fitting the instance pool).
//
//   net::CloudSimulator cloud(net::AmazonEc2Profile(), /*seed=*/42);
//   graph::CommGraph app = graph::Mesh2D(10, 10);
//   cloudia::DeploymentSession session(&cloud, &app, {});
//   CLOUDIA_CHECK(session.Measure().ok());          // allocates, then probes
//   for (const char* method : {"g2", "cp", "local"}) {
//     SolveSpec spec;
//     spec.method = method;                         // registry name
//     spec.time_budget_s = 5.0;                     // NdpSolveOptions knob
//     auto solve = session.Solve(spec);             // reuses the cost matrix
//     // solve->cost_ms, solve->placement, solve->predicted_improvement ...
//   }
//   auto terminated = session.Terminate();          // keeps the best plan
#ifndef CLOUDIA_CLOUDIA_SESSION_H_
#define CLOUDIA_CLOUDIA_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "deploy/solve.h"
#include "measure/protocols.h"
#include "netsim/cloud.h"
#include "obs/obs.h"

namespace cloudia {

/// Allocation and measurement knobs of a session; the defaults follow the
/// paper's evaluation setup (10% over-allocation, staged measurement,
/// mean-latency metric).
struct SessionOptions {
  /// Extra instances allocated beyond the application's node count
  /// (paper Sect. 6.4 uses 10%; Fig. 13 sweeps 0-50%).
  double over_allocation = 0.10;

  measure::Protocol protocol = measure::Protocol::kStaged;
  measure::CostMetric metric = measure::CostMetric::kMean;
  /// Virtual measurement duration; <= 0 selects the paper's rule of
  /// 5 minutes per 100 instances, scaled linearly (Sect. 6.2).
  double measure_duration_s = 0.0;
  double probe_bytes = net::kDefaultProbeBytes;

  /// Seeds allocation and measurement (solves carry their own seeds).
  uint64_t seed = 1;

  /// Cooperative cancellation of the *measurement* stage: Cancel() from any
  /// thread makes an in-flight Measure() abort at its next probe poll and
  /// return Status::Cancelled (solves carry their own tokens in SolveSpec).
  /// Measurement is the billed, minutes-long step of a real run, so an
  /// abandoned session must be able to stop it mid-flight.
  CancelToken cancel;

  /// Observability sinks (obs/obs.h). With a tracer attached, every stage
  /// emits a span ("session.allocate" / "session.measure" /
  /// "session.solve.<method>", nested under obs.parent; the measurement's
  /// "measure.run" nests under "session.measure") and solves report
  /// incumbent events through their SolveContext. Does not alter solver
  /// behavior: solves are bit-identical with and without sinks attached.
  obs::ObsConfig obs;
};

/// One Solve() request. The solver knobs -- objective, time_budget_s,
/// cost_clusters, r1_samples, threads, seed, portfolio_members, initial,
/// warm_start_hints and the hier_* knobs -- are deploy::NdpSolveOptions',
/// inherited so each is declared once and the spec itself is what the
/// solver reads (deploy/solve.h documents them). SolveSpec adds only what a
/// session needs on top: the solver's registry name, the graph, and
/// observation and cancellation.
///
/// Two differences from NdpSolveOptions:
///   - `method` is a registry name. It hides the inherited deploy::Method
///     enum, which no solver reads; that field goes when the enum does.
///   - cost_clusters defaults to 20 (paper: k=20 is LLNDP-CP's best), as in
///     the request grammar; NdpSolveOptions defaults to 0.
struct SolveSpec : deploy::NdpSolveOptions {
  SolveSpec() { cost_clusters = 20; }

  /// Registry name, case-insensitive ("g1", "g2", "r1", "r2", "cp", "mip",
  /// "local", or any solver registered at startup).
  std::string method = "cp";

  /// Application graph for this solve; nullptr = the session's graph. Any
  /// graph whose node count fits the allocated instance pool is valid, so
  /// one measurement serves several applications.
  const graph::CommGraph* app = nullptr;

  /// Invoked from the solver thread whenever the incumbent improves.
  deploy::ProgressCallback on_progress;
  /// Cooperative cancellation: Cancel() from any thread stops the solve at
  /// the next poll; the best incumbent found so far is still returned.
  CancelToken cancel;
  /// Optional shared global-incumbent cell attached to the solve's
  /// SolveContext. Concurrent solves on the same (matrix, graph, objective)
  /// that share one cell exchange incumbents live (CP adopts better peer
  /// solutions as descent points), and a service layer can carry the best
  /// deployment across solves as a warm start. All publishers of one cell
  /// must refer to the same problem; the cell only compares costs.
  std::shared_ptr<deploy::SharedIncumbent> shared_incumbent;
};

/// Outcome of one Solve() call, kept in the session history.
struct SessionSolve {
  /// Canonical registry name of the solver that ran ("cp", ...).
  std::string method;
  deploy::ObjectiveSpec objective;
  /// Raw solver output (deployment indexes into allocated(), trace, ...).
  deploy::NdpSolveResult result;
  /// Wall-clock time the solver ran (s).
  double wall_s = 0.0;

  /// Deployment costs under the measured cost matrix (ms).
  double cost_ms = 0.0;
  /// Cost of the baseline plan (node i on allocated()[i]).
  double default_cost_ms = 0.0;
  /// (default - optimized) / default; the headline Fig. 12 quantity is the
  /// analogous reduction in application runtime.
  double predicted_improvement = 0.0;

  /// Optimized plan: node i runs on placement[i].
  std::vector<net::Instance> placement;
};

/// A deployment-tuning session against one cloud. Stages run in order
/// (Allocate -> Measure -> Solve* -> Terminate); calling a stage implicitly
/// runs any missing predecessor, so `session.Solve(spec)` on a fresh session
/// allocates and measures first. Holds non-owning pointers to the cloud and
/// the application graph; both must outlive the session.
///
/// `cloud` may be null for a session fed via AdoptMeasurement() (it never
/// allocates or terminates instances itself); the stages that need the cloud
/// then fail with InvalidArgument instead of crashing.
class DeploymentSession {
 public:
  DeploymentSession(net::CloudSimulator* cloud, const graph::CommGraph* app,
                    SessionOptions options);

  /// Allocates node_count * (1 + over_allocation) instances (paper Fig. 3,
  /// "Allocate Instances"). Error when called twice.
  Status Allocate();

  /// Runs the measurement protocol over the allocated instances and caches
  /// the cost matrix. Allocates first if needed. Error when called twice:
  /// the session's point is to measure once and solve many times. Aborts
  /// with Status::Cancelled when options().cancel is tripped mid-measure.
  Status Measure();

  /// Installs an externally obtained measurement -- the allocated pool and
  /// its measured cost matrix -- marking the Allocate and Measure stages
  /// done. This is the reuse hook for layers that cache matrices across
  /// sessions (service::AdvisorService measures an environment once and
  /// hands the matrix to every session solving on it). The session does not
  /// own the adopted instances: Terminate() is an error on such a session.
  ///
  /// A session that already adopted may adopt again: the redeployment path
  /// refreshes an environment's matrix when the network drifts, and
  /// re-adopting lets the same session re-solve against the fresh costs
  /// (its solve history is kept; later solves simply see the new matrix).
  /// Fails when the session allocated or measured its *own* pool (replacing
  /// an owned pool would leak the instances) or when the matrix size does
  /// not match the instance count.
  Status AdoptMeasurement(std::vector<net::Instance> instances,
                          deploy::CostMatrix costs,
                          double measure_virtual_s = 0.0);

  /// Searches a deployment with the named registered solver against the
  /// cached cost matrix. Measures (and allocates) first if needed. Any
  /// number of calls; each outcome is appended to solves(). Error after
  /// Terminate() (the extra instances are gone).
  Result<SessionSolve> Solve(const SolveSpec& spec);

  /// Terminates every instance not used by `keep` and returns them. The
  /// no-argument overload keeps the lowest-cost solve in the history
  /// (comparing across objectives is the caller's responsibility); with no
  /// successful solve it terminates *all* allocated instances -- abandoning
  /// the session never leaks the pool. Error before Allocate() or when
  /// called twice.
  Result<std::vector<net::Instance>> Terminate();
  Result<std::vector<net::Instance>> Terminate(const SessionSolve& keep);

  // -- Observers (valid once the corresponding stage has run) ---------------
  bool allocated_stage_done() const { return allocated_done_; }
  bool measured_stage_done() const { return measured_done_; }
  bool terminated_stage_done() const { return terminated_done_; }

  /// All allocated instances (node count * (1 + over_allocation)).
  const std::vector<net::Instance>& allocated() const { return allocated_; }
  /// The measured pairwise cost matrix (after Measure()).
  const deploy::CostMatrix& costs() const { return costs_; }
  /// Virtual time the network measurement occupied the instances (s).
  double measure_virtual_s() const { return measure_virtual_s_; }
  /// Every completed solve, in call order.
  const std::vector<SessionSolve>& solves() const { return solves_; }
  /// Lowest-cost solve in the history; nullptr when none.
  const SessionSolve* best_solve() const;

  const SessionOptions& options() const { return options_; }

 private:
  net::CloudSimulator* cloud_;
  const graph::CommGraph* app_;
  SessionOptions options_;

  bool allocated_done_ = false;
  bool measured_done_ = false;
  bool terminated_done_ = false;
  /// False after AdoptMeasurement(): the pool belongs to whoever measured it,
  /// so this session must not terminate instances.
  bool owns_pool_ = true;

  std::vector<net::Instance> allocated_;
  deploy::CostMatrix costs_;
  double measure_virtual_s_ = 0.0;
  std::vector<SessionSolve> solves_;
};

}  // namespace cloudia

#endif  // CLOUDIA_CLOUDIA_SESSION_H_
