#include "helpers.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace advbench {

namespace {

// Index of the nearest-rank q-percentile in a sorted sample of n > 0.
size_t RankIndex(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return std::min(index, n - 1);
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t index = RankIndex(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - 1 - RankIndex(n, q);
}

size_t MinSamplesForPercentile(double q, size_t tail) {
  size_t n = 1;
  while (SamplesBeyond(n, q) < tail) ++n;
  return n;
}

double GeometricMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) {
    if (!(v > 0.0)) return 0.0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::map<std::string, LayerTotals> FoldSpans(
    const std::vector<SpanRecord>& spans) {
  std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, LayerTotals> layers;
  for (const SpanRecord& s : spans) {
    const int64_t duration = std::max<int64_t>(0, s.end_ns - s.start_ns);
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to this span.
      std::vector<std::pair<int64_t, int64_t>>& kids = it->second;
      std::sort(kids.begin(), kids.end());
      int64_t run_start = 0;
      int64_t run_end = -1;
      for (const auto& [start, end] : kids) {
        const int64_t a = std::max(start, s.start_ns);
        const int64_t b = std::min(end, s.end_ns);
        if (b <= a) continue;
        if (a > run_end) {
          if (run_end > run_start) covered += run_end - run_start;
          run_start = a;
          run_end = b;
        } else {
          run_end = std::max(run_end, b);
        }
      }
      if (run_end > run_start) covered += run_end - run_start;
    }
    LayerTotals& totals = layers[s.layer];
    ++totals.count;
    totals.busy_s += static_cast<double>(duration) * 1e-9;
    totals.self_s += static_cast<double>(duration - covered) * 1e-9;
  }
  return layers;
}

std::string LayerOfSpan(const std::string& name) {
  static const std::string kSessionSolve = "session.solve.";
  if (name.rfind(kSessionSolve, 0) == 0) {
    return "deploy." + name.substr(kSessionSolve.size());
  }
  if (name.rfind("portfolio.", 0) == 0) return "deploy.portfolio";
  if (name.rfind("deploy.", 0) == 0) return name;
  return name.substr(0, name.find('.'));
}

std::string CheckPlan(const cloudia::graph::CommGraph& graph,
                      const cloudia::deploy::CostMatrix& costs,
                      const cloudia::deploy::ObjectiveSpec& objective,
                      const cloudia::deploy::Deployment& deployment,
                      double reported_cost) {
  using cloudia::deploy::CostEvaluator;
  if (deployment.size() != static_cast<size_t>(graph.num_nodes())) {
    return "plan places " + std::to_string(deployment.size()) + " of " +
           std::to_string(graph.num_nodes()) + " nodes";
  }
  if (!cloudia::deploy::IsInjective(deployment, costs.size())) {
    return "plan is not an injective placement on the " +
           std::to_string(costs.size()) + "-instance pool";
  }
  auto evaluator = CostEvaluator::Create(&graph, &costs, objective);
  if (!evaluator.ok()) return evaluator.status().ToString();
  const double cost = evaluator->Cost(deployment);
  const double tolerance = 1e-9 * std::max(1.0, std::fabs(cost));
  if (!(std::fabs(cost - reported_cost) <= tolerance)) {
    return "reported cost " + std::to_string(reported_cost) +
           " != re-evaluated " + std::to_string(cost);
  }
  return "";
}

std::string CheckMigrations(
    const std::vector<cloudia::redeploy::OnlineCheckRecord>& records, int k,
    const cloudia::deploy::Deployment& initial,
    const cloudia::deploy::Deployment& final_deployment) {
  cloudia::deploy::Deployment current = initial;
  for (const cloudia::redeploy::OnlineCheckRecord& record : records) {
    if (!record.remeasured) continue;
    const cloudia::deploy::Deployment& target = record.plan.target;
    if (target.size() != current.size()) {
      return "migration plan resizes the deployment";
    }
    int moved = 0;
    for (size_t v = 0; v < current.size(); ++v) {
      moved += target[v] != current[v];
    }
    if (k >= 0 && moved > k) {
      return "migration plan moves " + std::to_string(moved) +
             " nodes, budget is " + std::to_string(k);
    }
    current = target;
  }
  if (current != final_deployment) {
    return "final deployment is not the result of the applied plans";
  }
  return "";
}

}  // namespace advbench
