#include "deploy/solver_registry.h"

#include <algorithm>
#include <cctype>
#include <thread>

#include "common/check.h"
#include "deploy/cp_llndp.h"
#include "deploy/greedy.h"
#include "deploy/local_search.h"
#include "deploy/mip_ndp.h"
#include "deploy/portfolio.h"
#include "deploy/random_search.h"
#include "hier/solver.h"

namespace cloudia::deploy {

namespace {

std::string Lowered(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

// Canonical facade methods: registry key per enum value.
struct MethodInfo {
  Method method;
  const char* key;
};

constexpr MethodInfo kMethodTable[] = {
    {Method::kGreedyG1, "g1"},
    {Method::kGreedyG2, "g2"},
    {Method::kRandomR1, "r1"},
    {Method::kRandomR2, "r2"},
    {Method::kCp, "cp"},
    {Method::kMip, "mip"},
    {Method::kLocalSearch, "local"},
    {Method::kPortfolio, "portfolio"},
    {Method::kHier, "hier"},
};

// Wraps a single deployment into a one-point result under `objective`.
Result<NdpSolveResult> WrapSingle(const NdpProblem& problem,
                                  const SolveContext& context,
                                  Deployment deployment) {
  CLOUDIA_ASSIGN_OR_RETURN(
      CostEvaluator eval,
      CostEvaluator::Create(problem.graph, problem.costs, problem.objective));
  NdpSolveResult r;
  r.cost = eval.Cost(deployment);
  r.trace.push_back(context.ReportIncumbent(r.cost, deployment));
  r.deployment = std::move(deployment);
  return r;
}

// G1/G2 optimize the longest-link criterion; for LPNDP they act as
// heuristics (Sect. 4.5.2) and the result is costed under LPNDP.
class GreedySolver : public NdpSolver {
 public:
  GreedySolver(bool g2) : g2_(g2) {}
  const char* name() const override { return g2_ ? "g2" : "g1"; }
  const char* display_name() const override { return g2_ ? "G2" : "G1"; }
  bool Supports(Objective) const override { return true; }
  Result<NdpSolveResult> Solve(const NdpProblem& problem,
                               const NdpSolveOptions& options,
                               SolveContext& context) const override {
    Rng rng(options.seed);
    auto d = g2_ ? GreedyG2(*problem.graph, *problem.costs, rng)
                 : GreedyG1(*problem.graph, *problem.costs, rng);
    if (!d.ok()) return d.status();
    return WrapSingle(problem, context, std::move(d).value());
  }

 private:
  bool g2_;
};

class RandomR1Solver : public NdpSolver {
 public:
  const char* name() const override { return "r1"; }
  const char* display_name() const override { return "R1"; }
  bool Supports(Objective) const override { return true; }
  Result<NdpSolveResult> Solve(const NdpProblem& problem,
                               const NdpSolveOptions& options,
                               SolveContext& context) const override {
    CLOUDIA_ASSIGN_OR_RETURN(
        RandomSearchResult r,
        RandomSearchR1(*problem.graph, *problem.costs, problem.objective,
                       options.r1_samples, options.seed));
    NdpSolveResult out;
    out.cost = r.cost;
    out.iterations = r.samples;
    out.trace.push_back(context.ReportIncumbent(r.cost, r.deployment));
    out.deployment = std::move(r.deployment);
    return out;
  }
};

class RandomR2Solver : public NdpSolver {
 public:
  const char* name() const override { return "r2"; }
  const char* display_name() const override { return "R2"; }
  bool Supports(Objective) const override { return true; }
  Result<NdpSolveResult> Solve(const NdpProblem& problem,
                               const NdpSolveOptions& options,
                               SolveContext& context) const override {
    int threads = options.threads > 0 ? options.threads
                                      : context.max_threads();
    if (threads <= 0) {
      threads = static_cast<int>(std::thread::hardware_concurrency());
    }
    if (threads < 1) threads = 1;
    CLOUDIA_ASSIGN_OR_RETURN(
        RandomSearchResult r,
        RandomSearchR2(*problem.graph, *problem.costs, problem.objective,
                       threads, options.seed, context));
    NdpSolveResult out;
    out.cost = r.cost;
    out.iterations = r.samples;
    out.trace.push_back({context.ElapsedSeconds(), r.cost});
    out.deployment = std::move(r.deployment);
    return out;
  }
};

class CpSolver : public NdpSolver {
 public:
  const char* name() const override { return "cp"; }
  const char* display_name() const override { return "CP"; }
  bool Supports(Objective objective) const override {
    // The CP formulation exists only for longest link (paper Sect. 4.4).
    return objective == Objective::kLongestLink;
  }
  bool ConsumesInitial() const override { return true; }
  Result<NdpSolveResult> Solve(const NdpProblem& problem,
                               const NdpSolveOptions& options,
                               SolveContext& context) const override {
    CpLlndpOptions cp;
    cp.cost_clusters = options.cost_clusters;
    cp.initial = options.initial;
    cp.seed = options.seed;
    cp.warm_start_hints = options.warm_start_hints;
    return SolveWithSecondaryRecost(
        problem, context,
        [&](const NdpProblem& p, SolveContext& ctx) {
          return SolveLlndpCp(*p.graph, *p.costs, cp, ctx);
        });
  }
};

class MipSolver : public NdpSolver {
 public:
  const char* name() const override { return "mip"; }
  const char* display_name() const override { return "MIP"; }
  bool Supports(Objective) const override { return true; }
  bool ConsumesInitial() const override { return true; }
  Result<NdpSolveResult> Solve(const NdpProblem& problem,
                               const NdpSolveOptions& options,
                               SolveContext& context) const override {
    MipNdpOptions mip;
    mip.cost_clusters = options.cost_clusters;
    mip.initial = options.initial;
    mip.seed = options.seed;
    return SolveWithSecondaryRecost(
        problem, context,
        [&](const NdpProblem& p, SolveContext& ctx) {
          return p.objective == Objective::kLongestLink
                     ? SolveLlndpMip(*p.graph, *p.costs, mip, ctx)
                     : SolveLpndpMip(*p.graph, *p.costs, mip, ctx);
        });
  }
};

class LocalSearchSolver : public NdpSolver {
 public:
  const char* name() const override { return "local"; }
  const char* display_name() const override { return "LocalSearch"; }
  bool Supports(Objective) const override { return true; }
  bool ConsumesInitial() const override { return true; }
  Result<NdpSolveResult> Solve(const NdpProblem& problem,
                               const NdpSolveOptions& options,
                               SolveContext& context) const override {
    LocalSearchOptions ls;
    ls.initial = options.initial;
    ls.seed = options.seed;
    ls.threads = options.threads;  // pricing parallelism; result is unchanged
    return SolveLocalSearch(*problem.graph, *problem.costs, problem.objective,
                            ls, context);
  }
};

}  // namespace

SolverRegistry& SolverRegistry::Global() {
  static SolverRegistry* registry = [] {
    auto* r = new SolverRegistry();
    RegisterBuiltinSolvers(*r);
    return r;
  }();
  return *registry;
}

Status SolverRegistry::Register(std::unique_ptr<NdpSolver> solver) {
  if (solver == nullptr) {
    return Status::InvalidArgument("cannot register a null solver");
  }
  const std::string key = Lowered(solver->name());
  if (key.empty()) {
    return Status::InvalidArgument("solver name must be non-empty");
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& existing : solvers_) {
    if (Lowered(existing->name()) == key) {
      return Status::InvalidArgument("solver '" + key +
                                     "' is already registered");
    }
  }
  solvers_.push_back(std::move(solver));
  return Status::OK();
}

const NdpSolver* SolverRegistry::Find(std::string_view name) const {
  const std::string key = Lowered(name);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& solver : solvers_) {
    if (Lowered(solver->name()) == key ||
        Lowered(solver->display_name()) == key) {
      return solver.get();
    }
  }
  return nullptr;
}

Result<const NdpSolver*> SolverRegistry::Require(std::string_view name) const {
  const NdpSolver* solver = Find(name);
  if (solver != nullptr) return solver;
  std::string known;
  for (const std::string& n : Names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  return Status::NotFound("no solver named '" + std::string(name) +
                          "' (known: " + known + ")");
}

std::vector<std::string> SolverRegistry::Names() const {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    names.reserve(solvers_.size());
    for (const auto& solver : solvers_) names.emplace_back(solver->name());
  }
  std::sort(names.begin(), names.end());
  return names;
}

void RegisterBuiltinSolvers(SolverRegistry& registry) {
  auto add = [&registry](std::unique_ptr<NdpSolver> solver) {
    if (registry.Find(solver->name()) == nullptr) {
      Status s = registry.Register(std::move(solver));
      CLOUDIA_CHECK(s.ok());
    }
  };
  add(std::make_unique<GreedySolver>(/*g2=*/false));
  add(std::make_unique<GreedySolver>(/*g2=*/true));
  add(std::make_unique<RandomR1Solver>());
  add(std::make_unique<RandomR2Solver>());
  add(std::make_unique<CpSolver>());
  add(std::make_unique<MipSolver>());
  add(std::make_unique<LocalSearchSolver>());
  add(std::make_unique<PortfolioSolver>());
  add(std::make_unique<hier::HierSolver>());
}

const char* MethodKey(Method method) {
  for (const MethodInfo& info : kMethodTable) {
    if (info.method == method) return info.key;
  }
  return "unknown";
}

Result<Objective> ParseObjective(std::string_view name) {
  const std::string key = Lowered(name);
  if (key == "longest-link" || key == "longestlink" || key == "ll") {
    return Objective::kLongestLink;
  }
  if (key == "longest-path" || key == "longestpath" || key == "lp") {
    return Objective::kLongestPath;
  }
  return Status::InvalidArgument("unknown objective '" + std::string(name) +
                                 "' (known: longest-link, longest-path)");
}

Result<NdpSolveResult> SolveWithSecondaryRecost(
    const NdpProblem& problem, SolveContext& context,
    const std::function<Result<NdpSolveResult>(const NdpProblem& problem,
                                               SolveContext& context)>& inner) {
  if (!problem.objective.HasSecondaryTerms()) return inner(problem, context);

  CLOUDIA_ASSIGN_OR_RETURN(
      CostEvaluator eval,
      CostEvaluator::Create(problem.graph, problem.costs, problem.objective));

  NdpProblem latency_problem = problem;
  latency_problem.objective = problem.objective.primary;

  // Best deployment by *total* cost among the inner incumbents. The inner
  // solver improves by latency, so its final answer is not necessarily the
  // best under the weighted total.
  double best_total = std::numeric_limits<double>::infinity();
  Deployment best_deployment;
  auto forward = [&](const TracePoint&, const Deployment& d) {
    const double total = eval.Total(eval.Terms(d));
    if (total < best_total) {
      best_total = total;
      best_deployment = d;
    }
    context.ReportIncumbent(total, d);
  };
  // Isolated sub-context: no shared incumbent (latency-scale costs must not
  // race total-scale publishers), same budget and cancellation.
  SolveContext sub(context.deadline(), context.cancel_token(),
                   std::move(forward));
  sub.set_max_threads(context.max_threads());

  CLOUDIA_ASSIGN_OR_RETURN(NdpSolveResult r, inner(latency_problem, sub));

  const double final_total = eval.Total(eval.Terms(r.deployment));
  if (best_total < final_total) {
    r.deployment = best_deployment;
    r.cost = best_total;
  } else {
    r.cost = final_total;
  }
  r.proven_optimal = false;  // the latency proof does not cover the total
  r.trace.clear();
  r.trace.push_back(context.ReportIncumbent(r.cost, r.deployment));
  return r;
}

Result<std::vector<std::string>> ValidatePortfolioMembers(
    const SolverRegistry& registry, const std::vector<std::string>& members) {
  std::vector<std::string> canonical;
  canonical.reserve(members.size());
  for (const std::string& name : members) {
    CLOUDIA_ASSIGN_OR_RETURN(const NdpSolver* solver, registry.Require(name));
    if (std::string(solver->name()) == "portfolio") {
      return Status::InvalidArgument(
          "the portfolio cannot race itself (member '" + name + "')");
    }
    for (const std::string& seen : canonical) {
      if (seen == solver->name()) {
        return Status::InvalidArgument(
            "duplicate portfolio member '" + name +
            "': racing two copies of one solver only burns threads");
      }
    }
    canonical.emplace_back(solver->name());
  }
  return canonical;
}

}  // namespace cloudia::deploy
