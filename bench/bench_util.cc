#include "bench_util.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"
#include "common/stats.h"
#include "common/table.h"

namespace cloudia::bench {

double Scale() {
  static double scale = [] {
    const char* env = std::getenv("CLOUDIA_BENCH_SCALE");
    double s = env != nullptr ? std::atof(env) : 0.04;
    return std::clamp(s, 0.001, 1.0);
  }();
  return scale;
}

double ScaledSeconds(double paper_seconds, double min_seconds) {
  return std::max(paper_seconds * Scale(), min_seconds);
}

void PrintHeader(const std::string& figure, const std::string& paper_claim,
                 const std::string& setup) {
  std::printf("==================================================================\n");
  std::printf("%s\n", figure.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  std::printf("setup: %s (CLOUDIA_BENCH_SCALE=%.3f)\n", setup.c_str(), Scale());
  std::printf("==================================================================\n");
}

void PrintCdf(const std::string& value_label, std::vector<double> values,
              int points) {
  auto cdf = EmpiricalCdf(std::move(values), static_cast<size_t>(points));
  TextTable t({value_label, "CDF"});
  for (const CdfPoint& p : cdf) {
    t.AddRow({StrFormat("%.4f", p.value), StrFormat("%.3f", p.cumulative)});
  }
  std::printf("%s", t.ToString().c_str());
}

void PrintQuantiles(const std::string& label, std::vector<double> values) {
  if (values.empty()) {
    std::printf("%-24s (no data)\n", label.c_str());
    return;
  }
  std::printf("%-24s min %.4f  p10 %.4f  p50 %.4f  p90 %.4f  max %.4f  (n=%zu)\n",
              label.c_str(), Percentile(values, 0), Percentile(values, 10),
              Percentile(values, 50), Percentile(values, 90),
              Percentile(values, 100), values.size());
}

CloudFixture::CloudFixture(net::ProviderProfile profile, uint64_t seed, int n)
    : cloud(std::move(profile), seed) {
  auto alloc = cloud.Allocate(n);
  CLOUDIA_CHECK(alloc.ok());
  instances = std::move(alloc).value();
}

deploy::CostMatrix MeasuredMeanCosts(const net::CloudSimulator& cloud,
                                     const std::vector<net::Instance>& instances,
                                     double virtual_s, uint64_t seed) {
  measure::ProtocolOptions opts;
  opts.duration_s = virtual_s;
  opts.seed = seed;
  auto result = measure::RunStaged(cloud, instances, opts);
  CLOUDIA_CHECK(result.ok());
  // Short scaled budgets may leave links unsampled; benches prefer a warned
  // sentinel fill over aborting the whole figure.
  measure::BuildCostMatrixOptions bopts;
  bopts.allow_missing = true;
  measure::CostMatrixCoverage coverage;
  auto costs = measure::BuildCostMatrix(*result, measure::CostMetric::kMean,
                                        bopts, &coverage);
  CLOUDIA_CHECK(costs.ok());
  if (coverage.missing_links > 0) {
    std::fprintf(stderr,
                 "warning: %lld of %lld links unsampled; filled with the "
                 "%g ms sentinel\n",
                 static_cast<long long>(coverage.missing_links),
                 static_cast<long long>(coverage.total_links),
                 deploy::kUnmeasuredCostMs);
  }
  return std::move(costs).value();
}

bool WriteMetricsJson(const std::string& path, const std::string& bench,
                      const std::vector<Metric>& metrics) {
  std::FILE* f = path == "-" ? stdout : std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"metrics\": [\n", bench.c_str());
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"value\": %.9g, \"unit\": \"%s\", "
                 "\"gate\": \"%s\"}%s\n",
                 m.name.c_str(), m.value, m.unit.c_str(), m.gate.c_str(),
                 i + 1 < metrics.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  if (f != stdout) std::fclose(f);
  return true;
}

std::vector<double> OffDiagonal(const deploy::CostMatrix& m) {
  std::vector<double> out;
  int n = m.size();
  out.reserve(static_cast<size_t>(n) * static_cast<size_t>(n > 0 ? n - 1 : 0));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j) out.push_back(m.At(i, j));
    }
  }
  return out;
}

namespace {

// CPU time the calling thread spends in `body()`; time the thread is
// descheduled does not count.
double ThreadCpuSeconds(const std::function<void()>& body) {
  timespec start{}, end{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &start);
  body();
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &end);
  return static_cast<double>(end.tv_sec - start.tv_sec) +
         static_cast<double>(end.tv_nsec - start.tv_nsec) * 1e-9;
}

}  // namespace

MinBlockSeconds AlternatingMinSeconds(const std::function<void()>& a,
                                      const std::function<void()>& b,
                                      long long blocks) {
  a();  // warm caches before timing either side
  b();
  MinBlockSeconds best{1e100, 1e100};
  for (long long k = 0; k < blocks; ++k) {
    best.a_s = std::min(best.a_s, ThreadCpuSeconds(a));
    best.b_s = std::min(best.b_s, ThreadCpuSeconds(b));
  }
  return best;
}

}  // namespace cloudia::bench
