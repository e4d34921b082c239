// Shared plumbing for the figure-reproduction benchmark binaries.
//
// Every binary reproduces one figure of the VLDBJ paper: it prints the
// paper's claim, runs the experiment against the simulated cloud, and prints
// the same series the figure plots. Wall-clock budgets follow the paper's
// scaled by CLOUDIA_BENCH_SCALE (default 0.04; 1.0 = paper-scale budgets).
#ifndef CLOUDIA_BENCH_BENCH_UTIL_H_
#define CLOUDIA_BENCH_BENCH_UTIL_H_

#include <functional>
#include <string>
#include <vector>

#include "deploy/cost.h"
#include "measure/protocols.h"
#include "netsim/cloud.h"

namespace cloudia::bench {

/// CLOUDIA_BENCH_SCALE env var (default 0.04), clamped to [0.001, 1.0].
double Scale();

/// paper_seconds * Scale(), floored at `min_seconds`.
double ScaledSeconds(double paper_seconds, double min_seconds = 1.0);

/// Prints the figure banner: id, the paper's finding, our setup note.
void PrintHeader(const std::string& figure, const std::string& paper_claim,
                 const std::string& setup);

/// Prints an empirical CDF as aligned "value cumulative" rows.
void PrintCdf(const std::string& value_label, std::vector<double> values,
              int points = 20);

/// Prints min/p10/p50/p90/max of `values` on one line.
void PrintQuantiles(const std::string& label, std::vector<double> values);

/// Allocates `n` EC2-profile instances from a fresh cloud with `seed`.
struct CloudFixture {
  CloudFixture(net::ProviderProfile profile, uint64_t seed, int n);
  net::CloudSimulator cloud;
  std::vector<net::Instance> instances;
};

/// Staged-protocol mean-latency matrix over `virtual_s` of measurement.
deploy::CostMatrix MeasuredMeanCosts(const net::CloudSimulator& cloud,
                                     const std::vector<net::Instance>& instances,
                                     double virtual_s, uint64_t seed);

/// All off-diagonal entries of a cost matrix.
std::vector<double> OffDiagonal(const deploy::CostMatrix& m);

/// Minimum thread-CPU seconds of one call of `a` and of `b` over `blocks`
/// alternating calls (after one untimed warm-up call each). Each call must
/// do the same work every time. Load only ever adds time and adjacent calls
/// see the same machine state, so the ratio of the two minimums resolves
/// small differences on a shared machine. Both bodies run out of line,
/// behind the std::function, so loops compared this way compile alike.
struct MinBlockSeconds {
  double a_s = 0.0;
  double b_s = 0.0;
};
MinBlockSeconds AlternatingMinSeconds(const std::function<void()>& a,
                                      const std::function<void()>& b,
                                      long long blocks);

// -- Unified bench metric schema ---------------------------------------------
//
// Every bench binary's --json output is one object:
//   {"bench": "<binary name>", "metrics": [
//      {"name": "...", "value": <double>, "unit": "...", "gate": "..."}]}
// Metric names embed the configuration that produced them (for example
// "hier.q256.ratio") so tools/bench_snapshot.cpp only ever compares metrics
// measured under identical settings -- no per-bench special cases.

/// One scalar measurement. `gate` tells the snapshot checker how to compare
/// against a baseline value:
///   ""       informational only, never gated (absolute wall times);
///   "lower"  regression when value exceeds baseline by the tolerance;
///   "higher" regression when value falls below baseline by the tolerance;
///   "near"   regression when value differs from baseline either way
///            (determinism counts, quality ratios pinned by construction).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string gate;
};

/// Serializes `metrics` in the unified schema to `path` ("-" = stdout).
/// Returns false (with a stderr note) when the file cannot be written.
bool WriteMetricsJson(const std::string& path, const std::string& bench,
                      const std::vector<Metric>& metrics);

}  // namespace cloudia::bench

#endif  // CLOUDIA_BENCH_BENCH_UTIL_H_
