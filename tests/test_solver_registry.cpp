#include <gtest/gtest.h>

#include <memory>

#include "deploy/solver_registry.h"
#include "deploy_test_util.h"
#include "graph/templates.h"

namespace cloudia::deploy {
namespace {

TEST(SolverRegistryTest, GlobalHasAllBuiltinMethods) {
  auto names = SolverRegistry::Global().Names();
  for (const char* expected :
       {"cp", "g1", "g2", "hier", "local", "mip", "portfolio", "r1", "r2"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(SolverRegistryTest, LookupByNameIsCaseInsensitiveAndCoversDisplayNames) {
  SolverRegistry& registry = SolverRegistry::Global();
  const NdpSolver* cp = registry.Find("cp");
  ASSERT_NE(cp, nullptr);
  EXPECT_STREQ(cp->name(), "cp");
  EXPECT_EQ(registry.Find("CP"), cp);

  const NdpSolver* local = registry.Find("local");
  ASSERT_NE(local, nullptr);
  EXPECT_EQ(registry.Find("LocalSearch"), local);
  EXPECT_STREQ(local->display_name(), "LocalSearch");
}

TEST(SolverRegistryTest, UnknownSolverIsACleanErrorNotACrash) {
  auto missing = SolverRegistry::Global().Require("simulated-annealing");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  // The error names the available solvers so a CLI typo is self-explaining.
  EXPECT_NE(missing.status().message().find("cp"), std::string::npos);
  EXPECT_EQ(SolverRegistry::Global().Find("no-such-solver"), nullptr);
}

TEST(SolverRegistryTest, UnsupportedObjectiveIsRejected) {
  const NdpSolver* cp = SolverRegistry::Global().Find("cp");
  ASSERT_NE(cp, nullptr);
  EXPECT_TRUE(cp->Supports(Objective::kLongestLink));
  EXPECT_FALSE(cp->Supports(Objective::kLongestPath));

  // The facade turns the Supports() refusal into InvalidArgument.
  Rng master(3);
  graph::CommGraph tree = graph::AggregationTree(2, 3);
  CostMatrix costs = RandomCosts(9, master);
  NdpSolveOptions opts;
  opts.objective = Objective::kLongestPath;
  SolveContext context(Deadline::After(opts.time_budget_s));
  auto r = SolveNodeDeploymentByName(tree, costs, "cp", opts, context);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SolverRegistryTest, DuplicateAndNullRegistrationsFail) {
  SolverRegistry registry;
  RegisterBuiltinSolvers(registry);
  EXPECT_FALSE(registry.Register(nullptr).ok());

  class FakeCp : public NdpSolver {
   public:
    const char* name() const override { return "CP"; }  // collides with "cp"
    bool Supports(Objective) const override { return true; }
    Result<NdpSolveResult> Solve(const NdpProblem&, const NdpSolveOptions&,
                                 SolveContext&) const override {
      return Status::Unimplemented("fake");
    }
  };
  EXPECT_FALSE(registry.Register(std::make_unique<FakeCp>()).ok());
  // Idempotent builtin registration: no duplicates appear.
  size_t before = registry.Names().size();
  RegisterBuiltinSolvers(registry);
  EXPECT_EQ(registry.Names().size(), before);
}

TEST(SolverRegistryTest, CustomSolverBecomesDiscoverable) {
  class ConstantSolver : public NdpSolver {
   public:
    const char* name() const override { return "constant"; }
    bool Supports(Objective) const override { return true; }
    Result<NdpSolveResult> Solve(const NdpProblem& problem,
                                 const NdpSolveOptions&,
                                 SolveContext& context) const override {
      NdpSolveResult r;
      const int n = problem.graph->num_nodes();
      for (int i = 0; i < n; ++i) r.deployment.push_back(i);
      r.cost = 0.0;
      r.trace.push_back(context.ReportIncumbent(r.cost, r.deployment));
      return r;
    }
  };
  SolverRegistry registry;
  RegisterBuiltinSolvers(registry);
  ASSERT_TRUE(registry.Register(std::make_unique<ConstantSolver>()).ok());
  auto found = registry.Require("constant");
  ASSERT_TRUE(found.ok());
  EXPECT_STREQ((*found)->name(), "constant");
}

// The CLI's --portfolio list goes through ValidatePortfolioMembers: typos,
// duplicates, and self-references must come back as clean InvalidArgument /
// NotFound errors (never a crash or CHECK) before any thread is spawned.
TEST(SolverRegistryTest, ValidatePortfolioMembersCanonicalizesKnownNames) {
  auto ok = ValidatePortfolioMembers(SolverRegistry::Global(),
                                     {"CP", "LocalSearch", "r2"});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, (std::vector<std::string>{"cp", "local", "r2"}));
  // Empty means "the default set" and is valid.
  auto empty = ValidatePortfolioMembers(SolverRegistry::Global(), {});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(SolverRegistryTest, ValidatePortfolioMembersAcceptsHier) {
  // The hierarchical solver is a legal portfolio member (it is not the
  // portfolio itself, and at small n it degrades to a flat solve).
  auto ok =
      ValidatePortfolioMembers(SolverRegistry::Global(), {"Hier", "local"});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, (std::vector<std::string>{"hier", "local"}));
}

TEST(SolverRegistryTest, ValidatePortfolioMembersRejectsUnknownNames) {
  auto unknown = ValidatePortfolioMembers(SolverRegistry::Global(),
                                          {"cp", "tabu-search"});
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_NE(unknown.status().message().find("tabu-search"),
            std::string::npos);
}

TEST(SolverRegistryTest, ValidatePortfolioMembersRejectsDuplicates) {
  // Spelled differently, same solver: still a duplicate.
  auto dup = ValidatePortfolioMembers(SolverRegistry::Global(),
                                      {"local", "cp", "LocalSearch"});
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dup.status().message().find("duplicate"), std::string::npos);
}

TEST(SolverRegistryTest, ValidatePortfolioMembersRejectsSelfReference) {
  auto self = ValidatePortfolioMembers(SolverRegistry::Global(),
                                       {"cp", "portfolio"});
  ASSERT_FALSE(self.ok());
  EXPECT_EQ(self.status().code(), StatusCode::kInvalidArgument);
}

TEST(SolverRegistryTest, PortfolioSolveRejectsDuplicateMembersCleanly) {
  Rng master(17);
  graph::CommGraph mesh = graph::Mesh2D(2, 3);
  CostMatrix costs = RandomCosts(8, master);
  NdpSolveOptions opts;
  opts.portfolio_members = {"local", "local"};
  opts.time_budget_s = 1.0;
  SolveContext context(Deadline::After(1.0));
  auto r = SolveNodeDeploymentByName(mesh, costs, "portfolio", opts, context);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SolverRegistryTest, LookupRoundTripsWithBothSpellings) {
  const SolverRegistry& registry = SolverRegistry::Global();
  for (const std::string& name : registry.Names()) {
    const NdpSolver* solver = registry.Find(name);
    ASSERT_NE(solver, nullptr) << name;
    EXPECT_EQ(solver->name(), name);
    EXPECT_EQ(registry.Find(solver->display_name()), solver) << name;
  }
  auto missing = registry.Require("annealing");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(SolverRegistryTest, ParseObjectiveRoundTrips) {
  for (Objective objective :
       {Objective::kLongestLink, Objective::kLongestPath}) {
    auto parsed = ParseObjective(ObjectiveName(objective));
    ASSERT_TRUE(parsed.ok()) << ObjectiveName(objective);
    EXPECT_EQ(*parsed, objective);
  }
  EXPECT_EQ(*ParseObjective("longest-link"), Objective::kLongestLink);
  EXPECT_EQ(*ParseObjective("longest-path"), Objective::kLongestPath);
  EXPECT_FALSE(ParseObjective("shortest-link").ok());
}

TEST(SolverRegistryTest, EveryBuiltinSolvesAProblemThroughTheInterface) {
  Rng master(7);
  graph::CommGraph mesh = graph::Mesh2D(3, 3);
  CostMatrix costs = RandomCosts(11, master);
  NdpProblem problem;
  problem.graph = &mesh;
  problem.costs = &costs;
  problem.objective = Objective::kLongestLink;

  for (const std::string& name : SolverRegistry::Global().Names()) {
    const NdpSolver* solver = SolverRegistry::Global().Find(name);
    ASSERT_NE(solver, nullptr) << name;
    NdpSolveOptions opts;
    opts.r1_samples = 50;
    opts.threads = 2;
    opts.seed = 5;
    SolveContext context(Deadline::After(0.2));
    auto r = solver->Solve(problem, opts, context);
    ASSERT_TRUE(r.ok()) << name << ": " << r.status().ToString();
    EXPECT_TRUE(ValidateDeployment(mesh, r->deployment, costs,
                                   Objective::kLongestLink)
                    .ok())
        << name;
  }
}

}  // namespace
}  // namespace cloudia::deploy
