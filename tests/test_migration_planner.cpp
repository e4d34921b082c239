#include "redeploy/migration_planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "deploy/random_search.h"
#include "deploy/solve.h"
#include "graph/templates.h"

namespace cloudia::redeploy {
namespace {

// A synthetic cost matrix with strong structure: instance pairs inside the
// same "rack" of 4 are cheap, cross-rack pairs expensive, plus a
// deterministic per-pair wobble so optima are unique-ish.
deploy::CostMatrix StructuredCosts(int m, uint64_t seed) {
  deploy::CostMatrix costs(m);
  Rng rng(seed);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) {
      if (i == j) continue;
      const bool same_rack = (i / 4) == (j / 4);
      costs.At(i, j) = (same_rack ? 0.3 : 1.2) + 0.2 * rng.Uniform();
    }
  }
  return costs;
}

deploy::Deployment IdentityDeployment(int n) {
  deploy::Deployment d(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) d[static_cast<size_t>(i)] = i;
  return d;
}

TEST(MigrationPlannerTest, KZeroReturnsTheCurrentDeploymentVerbatim) {
  graph::CommGraph app = graph::Mesh2D(3, 4);  // 12 nodes
  deploy::CostMatrix costs = StructuredCosts(16, 5);
  deploy::Deployment current = IdentityDeployment(12);

  PlannerOptions options;
  options.max_migrations = 0;
  auto plan = PlanMigration(app, costs, current, options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->target, current);
  EXPECT_TRUE(plan->steps.empty());
  EXPECT_EQ(plan->migrations, 0);
  EXPECT_EQ(plan->cost_before_ms, plan->cost_after_ms);
  EXPECT_TRUE(
      ValidateMigrationPlan(app, costs, current, *plan, options.objective)
          .ok());
}

TEST(MigrationPlannerTest, KEqualToNodeCountMatchesAnUnconstrainedSolve) {
  graph::CommGraph app = graph::Mesh2D(3, 4);
  deploy::CostMatrix costs = StructuredCosts(16, 7);
  deploy::Deployment current = IdentityDeployment(12);

  PlannerOptions options;
  options.max_migrations = 12;  // == V
  options.seed = 9;
  auto plan = PlanMigration(app, costs, current, options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  // The reference: the same registry solver, seeded identically.
  deploy::NdpSolveOptions sopts;
  sopts.objective = options.objective;
  sopts.seed = options.seed;
  sopts.threads = 1;
  sopts.initial = current;
  deploy::SolveContext context(Deadline::After(options.time_budget_s));
  context.set_max_threads(1);
  auto reference = deploy::SolveNodeDeploymentByName(
      app, costs, options.full_solve_method, sopts, context);
  ASSERT_TRUE(reference.ok());

  EXPECT_EQ(plan->target, reference->deployment);
  EXPECT_EQ(plan->cost_after_ms, reference->cost);
  EXPECT_LT(plan->cost_after_ms, plan->cost_before_ms);
  EXPECT_TRUE(
      ValidateMigrationPlan(app, costs, current, *plan, options.objective)
          .ok());
}

TEST(MigrationPlannerTest, BudgetIsRespectedAndMonotone) {
  graph::CommGraph app = graph::Mesh2D(4, 5);  // 20 nodes
  deploy::CostMatrix costs = StructuredCosts(24, 11);
  deploy::Deployment current = IdentityDeployment(20);

  double previous_cost = std::numeric_limits<double>::infinity();
  for (int k : {0, 1, 2, 4, 8, 20}) {
    PlannerOptions options;
    options.max_migrations = k;
    auto plan = PlanMigration(app, costs, current, options);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_LE(plan->migrations, k) << "budget exceeded at K=" << k;
    EXPECT_LE(plan->cost_after_ms, plan->cost_before_ms);
    // More budget never hurts: the K-constrained optimum is monotone, and
    // the descent from one fixed start inherits that in practice.
    EXPECT_LE(plan->cost_after_ms, previous_cost + 1e-9)
        << "objective regressed when the budget grew to K=" << k;
    previous_cost = plan->cost_after_ms;
    EXPECT_TRUE(
        ValidateMigrationPlan(app, costs, current, *plan, options.objective)
            .ok());
  }
}

TEST(MigrationPlannerTest, PlanStepsReachTheTargetWithoutCollisions) {
  // Random current deployments over many trials: every emitted plan must
  // replay cleanly (no duplicate targets, moves only into free instances)
  // and reach the advertised deployment and cost.
  graph::CommGraph app = graph::Mesh2D(3, 5);  // 15 nodes
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    deploy::CostMatrix costs = StructuredCosts(18, 100 + trial);
    deploy::Deployment current =
        deploy::RandomDeployment(app.num_nodes(), costs.size(), rng);
    PlannerOptions options;
    options.max_migrations = 1 + trial % 15;
    auto plan = PlanMigration(app, costs, current, options);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    Status valid =
        ValidateMigrationPlan(app, costs, current, *plan, options.objective);
    EXPECT_TRUE(valid.ok()) << valid.ToString();

    // No two steps may land a node on an instance someone else ends up on:
    // injectivity of the final target is the "no duplicate targets" check.
    std::set<int> final_targets(plan->target.begin(), plan->target.end());
    EXPECT_EQ(final_targets.size(), plan->target.size());
  }
}

TEST(MigrationPlannerTest, CyclesAreBrokenWithSwapsWhenThePoolIsFull) {
  // n == m: no free instance exists, so any permutation change requires
  // swap steps. Descending consecutive links are cheap and ascending ones
  // expensive, so the optimum is a reversal-style permutation (2-cycles)
  // while the current deployment (identity) rides the expensive direction.
  graph::CommGraph app = graph::Ring(6);
  const int m = 6;
  deploy::CostMatrix costs(m, 5.0);
  for (int i = 0; i < m; ++i) {
    costs.At(i, i) = 0.0;
    costs.At((i + 1) % m, i) = 0.1;  // descending direction: cheap
  }
  deploy::Deployment current = IdentityDeployment(m);

  PlannerOptions options;
  options.max_migrations = m;
  options.full_solve_method = "cp";  // exact on this 6-node toy
  auto plan = PlanMigration(app, costs, current, options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_FALSE(plan->steps.empty());
  bool has_swap = false;
  for (const MigrationStep& step : plan->steps) {
    if (step.kind == MigrationStep::Kind::kSwap) has_swap = true;
  }
  EXPECT_TRUE(has_swap) << "a full-pool rotation needs swap steps";
  EXPECT_TRUE(
      ValidateMigrationPlan(app, costs, current, *plan, options.objective)
          .ok());
  EXPECT_LT(plan->cost_after_ms, plan->cost_before_ms);
}

TEST(MigrationPlannerTest, MigrationPenaltyBlocksCheapMoves) {
  graph::CommGraph app = graph::Mesh2D(3, 4);
  deploy::CostMatrix costs = StructuredCosts(16, 17);
  deploy::Deployment current = IdentityDeployment(12);

  PlannerOptions free_moves;
  free_moves.max_migrations = 12;
  free_moves.full_solve_method = "local";
  auto unpriced = PlanMigration(app, costs, current, free_moves);
  ASSERT_TRUE(unpriced.ok());
  ASSERT_GT(unpriced->migrations, 0);

  // A penalty larger than the whole achievable gain: moving cannot pay for
  // itself, so the plan keeps the current deployment.
  PlannerOptions priced = free_moves;
  priced.objective.migration_weight = unpriced->improvement_ms() + 1.0;
  auto blocked = PlanMigration(app, costs, current, priced);
  ASSERT_TRUE(blocked.ok());
  EXPECT_EQ(blocked->target, current);
  EXPECT_TRUE(blocked->steps.empty());

  // A moderate penalty still allows the plan but each accepted move must
  // have bought at least the penalty on average.
  priced.objective.migration_weight = 0.01;
  auto moderate = PlanMigration(app, costs, current, priced);
  ASSERT_TRUE(moderate.ok());
  if (moderate->migrations > 0) {
    EXPECT_GT(moderate->improvement_ms(),
              priced.objective.migration_weight * moderate->migrations);
  }
}

TEST(MigrationPlannerTest, LongestPathObjectiveIsSupported) {
  graph::CommGraph app = graph::AggregationTree(3, 3);  // 13 nodes, acyclic
  deploy::CostMatrix costs = StructuredCosts(16, 23);
  deploy::Deployment current = IdentityDeployment(13);

  PlannerOptions options;
  options.objective = deploy::Objective::kLongestPath;
  options.max_migrations = 4;
  auto plan = PlanMigration(app, costs, current, options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_LE(plan->migrations, 4);
  EXPECT_TRUE(
      ValidateMigrationPlan(app, costs, current, *plan, options.objective)
          .ok());
}

TEST(MigrationPlannerTest, ValidatorRejectsBrokenPlans) {
  graph::CommGraph app = graph::Mesh2D(2, 3);
  deploy::CostMatrix costs = StructuredCosts(8, 29);
  deploy::Deployment current = IdentityDeployment(6);

  PlannerOptions options;
  options.max_migrations = 3;
  auto plan = PlanMigration(app, costs, current, options);
  ASSERT_TRUE(plan.ok());
  ASSERT_FALSE(plan->steps.empty()) << "structured costs should admit a gain";

  MigrationPlan tampered = *plan;
  tampered.cost_after_ms += 0.5;  // lying about the final cost
  EXPECT_FALSE(
      ValidateMigrationPlan(app, costs, current, tampered, options.objective)
          .ok());

  tampered = *plan;
  tampered.steps[0].to = current[1];  // move into an occupied instance
  EXPECT_FALSE(
      ValidateMigrationPlan(app, costs, current, tampered, options.objective)
          .ok());

  tampered = *plan;
  tampered.migrations += 1;
  EXPECT_FALSE(
      ValidateMigrationPlan(app, costs, current, tampered, options.objective)
          .ok());
}

TEST(MigrationPlannerTest, ValidatorRejectsOutOfOrderDependentSteps) {
  // A dependent chain: node 0 vacates instance 0 into the only free slot,
  // then node 1 moves into instance 0. Reversing the steps makes step 1
  // target an occupied instance, which the validator must reject.
  graph::CommGraph app = graph::Ring(3);
  deploy::CostMatrix costs = StructuredCosts(4, 37);
  deploy::Deployment current = IdentityDeployment(3);

  MigrationPlan chain;
  chain.target = {3, 0, 2};
  chain.migrations = 2;
  chain.cost_before_ms = deploy::LongestLinkCost(app, current, costs);
  chain.cost_after_ms = deploy::LongestLinkCost(app, chain.target, costs);
  MigrationStep first;
  first.node = 0;
  first.from = 0;
  first.to = 3;
  MigrationStep second;
  second.node = 1;
  second.from = 1;
  second.to = 0;
  chain.steps = {first, second};
  EXPECT_TRUE(ValidateMigrationPlan(app, costs, current, chain,
                                    deploy::Objective::kLongestLink)
                  .ok());
  std::swap(chain.steps[0], chain.steps[1]);
  EXPECT_FALSE(ValidateMigrationPlan(app, costs, current, chain,
                                     deploy::Objective::kLongestLink)
                   .ok())
      << "step order must matter for dependent moves";
}

TEST(MigrationPlannerTest, DeterministicForFixedInputs) {
  graph::CommGraph app = graph::Mesh2D(4, 4);
  deploy::CostMatrix costs = StructuredCosts(20, 31);
  deploy::Deployment current = IdentityDeployment(16);
  PlannerOptions options;
  options.max_migrations = 6;
  auto a = PlanMigration(app, costs, current, options);
  auto b = PlanMigration(app, costs, current, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->target, b->target);
  EXPECT_EQ(a->cost_after_ms, b->cost_after_ms);
  EXPECT_EQ(a->steps.size(), b->steps.size());
}

}  // namespace
}  // namespace cloudia::redeploy
