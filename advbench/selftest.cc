// Self-test of the benchmark's helpers (helpers.h). Exits non-zero on the
// first failed expectation; run.py runs it after every build.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "deploy/cost.h"
#include "graph/templates.h"
#include "helpers.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

void TestPercentileRule() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  Expect(advbench::Percentile(v, 0.5) == 50.0, "p50 of 1..100 is 50");
  Expect(advbench::Percentile(v, 0.9) == 90.0, "p90 of 1..100 is 90");
  Expect(advbench::Percentile({7.0}, 0.9) == 7.0, "p90 of one sample");
  Expect(advbench::Percentile({}, 0.5) == 0.0, "empty sample");
  Expect(advbench::SamplesBeyond(100, 0.9) == 10, "10 samples beyond p90/100");
  Expect(advbench::SamplesBeyond(99, 0.9) == 9, "9 samples beyond p90/99");
  Expect(advbench::MinSamplesForPercentile(0.9) == 100, "p90 needs 100");
  Expect(advbench::MinSamplesForPercentile(0.5) == 20, "p50 needs 20");
}

void TestGeometricMean() {
  Expect(std::fabs(advbench::GeometricMean({1.0, 4.0}) - 2.0) < 1e-12,
         "geomean(1, 4) = 2");
  Expect(std::fabs(advbench::GeometricMean({0.5, 2.0, 1.0}) - 1.0) < 1e-12,
         "geomean(0.5, 2, 1) = 1");
  Expect(advbench::GeometricMean({}) == 0.0, "geomean of nothing is 0");
  Expect(advbench::GeometricMean({1.0, 0.0}) == 0.0, "non-positive value");
}

void TestSpanFold() {
  // parent [0, 100] with children [10, 40], [30, 60] (overlapping: union
  // 50) and [90, 120] (clipped to 10): self time 100 - 60 = 40.
  std::vector<advbench::SpanRecord> spans = {
      {1, 0, "service", 0, 100},   {2, 1, "deploy.cp", 10, 40},
      {3, 1, "deploy.cp", 30, 60}, {4, 1, "hier", 90, 120},
      {5, 4, "hier", 95, 100},
  };
  auto layers = advbench::FoldSpans(spans);
  Expect(layers["service"].count == 1, "one service span");
  Expect(std::fabs(layers["service"].busy_s - 100e-9) < 1e-15,
         "service busy 100 ns");
  Expect(std::fabs(layers["service"].self_s - 40e-9) < 1e-15,
         "service self 40 ns");
  Expect(std::fabs(layers["deploy.cp"].self_s - 60e-9) < 1e-15,
         "leaf self time = duration");
  Expect(layers["hier"].count == 2, "two hier spans");
  Expect(std::fabs(layers["hier"].self_s - 30e-9) < 1e-15,
         "hier self = 25 + 5 ns");
  Expect(advbench::LayerOfSpan("session.solve.cp") == "deploy.cp",
         "session.solve.<m> maps to deploy.<m>");
  Expect(advbench::LayerOfSpan("portfolio.mip") == "deploy.portfolio",
         "portfolio members map to deploy.portfolio");
  Expect(advbench::LayerOfSpan("hier.shard.3") == "hier", "hier phases");
}

void TestCheckPlan() {
  using namespace cloudia;
  graph::CommGraph g = graph::Mesh2D(2, 3);
  deploy::CostMatrix costs(8, 1.0);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) costs.At(i, j) = i == j ? 0.0 : 1.0 + i + j;
  }
  const deploy::Deployment plan = {0, 1, 2, 3, 4, 5};
  auto eval = deploy::CostEvaluator::Create(&g, &costs,
                                            deploy::Objective::kLongestLink);
  Expect(eval.ok(), "evaluator");
  const double cost = eval->Cost(plan);
  const deploy::ObjectiveSpec link = deploy::Objective::kLongestLink;
  Expect(advbench::CheckPlan(g, costs, link, plan, cost).empty(),
         "valid plan accepted");
  Expect(!advbench::CheckPlan(g, costs, link, {0, 1, 2, 3, 4, 4}, cost)
              .empty(),
         "non-injective plan rejected");
  Expect(!advbench::CheckPlan(g, costs, link, {0, 1, 2, 3, 4, 9}, cost)
              .empty(),
         "out-of-pool plan rejected");
  Expect(!advbench::CheckPlan(g, costs, link, {0, 1, 2, 3, 4}, cost).empty(),
         "short plan rejected");
  Expect(!advbench::CheckPlan(g, costs, link, plan, cost * 0.99).empty(),
         "mis-reported cost rejected");

  redeploy::OnlineCheckRecord moved;
  moved.remeasured = true;
  moved.plan.target = {6, 7, 2, 3, 4, 5};
  Expect(advbench::CheckMigrations({moved}, 2, plan, moved.plan.target)
             .empty(),
         "two moves within k = 2");
  Expect(!advbench::CheckMigrations({moved}, 1, plan, moved.plan.target)
              .empty(),
         "two moves exceed k = 1");
  Expect(!advbench::CheckMigrations({moved}, 2, plan, plan).empty(),
         "final deployment must follow the plans");
}

}  // namespace

int main() {
  TestPercentileRule();
  TestGeometricMean();
  TestSpanFold();
  TestCheckPlan();
  if (failures > 0) return 1;
  std::printf("advbench selftest: all checks passed\n");
  return 0;
}
