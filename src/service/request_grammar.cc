#include "service/request_grammar.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "deploy/solver_registry.h"
#include "graph/templates.h"

namespace cloudia::service {
namespace {

using Token = std::pair<std::string, std::string>;
using V = std::string_view;
using R = ParsedRequest;
using RV = RequestVerb;

/// Key groups; each verb accepts a set of them.
enum Scope : unsigned {
  kVerbKey = 1u << 0,    // verb=
  kQueue = 1u << 1,      // scheduling on the service queue
  kRedeploy = 1u << 2,   // drift policy of verb=redeploy
  kProvider = 1u << 3,   // measurement and price model
  kEnv = 1u << 4,        // the rest of the measurement recipe
  kApp = 1u << 5,        // graph template
  kSolve = 1u << 6,      // solver knobs
  kMatrixOut = 1u << 7,  // save the measured matrix
  kMatrixIn = 1u << 8,   // load a saved matrix
  kObs = 1u << 9,        // trace / metrics files
};
constexpr unsigned kServe =
    kVerbKey | kQueue | kProvider | kEnv | kApp | kSolve;

/// Indexed by RequestVerb.
constexpr struct {
  const char* name;
  unsigned scopes;
} kVerbs[] = {
    {"deploy", kServe},
    {"redeploy", kServe | kRedeploy},
    {"stats", kVerbKey},
    {"advise", kProvider | kEnv | kApp | kSolve | kMatrixOut | kObs},
    {"measure", kProvider | kEnv | kApp | kMatrixOut},
    {"solve", kProvider | kApp | kSolve | kMatrixIn | kObs},
};
const char* VerbName(RV v) { return kVerbs[static_cast<int>(v)].name; }
unsigned Scopes(RV v) { return kVerbs[static_cast<int>(v)].scopes; }
bool IsCli(RV v) { return v >= RV::kAdvise; }

constexpr int kMaxN = 1000000;
constexpr int kMaxInt = std::numeric_limits<int>::max();
/// Budgets and virtual durations stay small enough that converting them to
/// clock ticks cannot overflow.
constexpr double kMaxS = 1e6;
constexpr double kInf = std::numeric_limits<double>::infinity();

std::string Bound(double v) {
  if (std::isinf(v)) return "inf";
  char buf[32];
  std::snprintf(buf, sizeof(buf), v == std::floor(v) ? "%.0f" : "%g", v);
  return buf;
}

Status RangeError(V key, V value, V why, const std::string& range) {
  return Status::InvalidArgument(std::string(key) + "=" + std::string(value) +
                                 ": " + std::string(why) +
                                 " (valid range: " + range + ")");
}

/// Parses all of `value` as an integer in [lo, hi] into *out.
template <typename T>
Status Int(V key, V value, std::type_identity_t<T> lo,
           std::type_identity_t<T> hi, T* out, V why = "out of range") {
  // Appends only: GCC 12's -Wrestrict misfires on "[" + std::string.
  std::string range = "[";
  range.append(std::to_string(lo)).append(", ");
  range.append(std::to_string(hi)).append("]");
  const char* first = value.data();
  const char* last = first + value.size();
  T v{};
  auto [end, ec] = std::from_chars(first, last, v);
  if (ec != std::errc() || end != last) {
    // "-5" for an unsigned key or a value past the type is out of range;
    // anything else ("6x", "") is no integer at all.
    int64_t probe = 0;
    auto parsed = std::from_chars(first, last, probe);
    const bool numeric = ec == std::errc::result_out_of_range ||
                         (parsed.ec == std::errc() && parsed.ptr == last);
    return RangeError(key, value, numeric ? why : "expects an integer", range);
  }
  if (v < lo || v > hi) return RangeError(key, value, why, range);
  *out = v;
  return Status::OK();
}

/// Parses all of `value` as a finite number in [lo, hi] into *out.
Status Num(V key, V value, double lo, double hi, double* out,
           V why = "out of range") {
  std::string range = "[";
  range.append(Bound(lo)).append(", ").append(Bound(hi));
  range.append(std::isinf(hi) ? ")" : "]");
  const char* last = value.data() + value.size();
  double v = 0.0;
  auto [end, ec] = std::from_chars(value.data(), last, v);
  if (ec == std::errc::invalid_argument || end != last) {
    return RangeError(key, value, "expects a number", range);
  }
  if (ec != std::errc() || !std::isfinite(v) || v < lo || v > hi) {
    return RangeError(key, value, why, range);
  }
  *out = v;
  return Status::OK();
}

Status Seed(V key, V value, uint64_t* out) {
  return Int(key, value, 0, std::numeric_limits<uint64_t>::max(), out);
}

Status Weight(V key, V value, double* out) {
  return Num(key, value, 0, kInf, out, "weights must be finite and >= 0");
}

Status Probability(V key, V value, double* out) {
  return Num(key, value, 0, 1, out, "a probability");
}

/// Sets *out to the option named `value`.
template <typename T>
Status Choice(V key, V value,
              std::initializer_list<std::pair<const char*, T>> options,
              T* out) {
  std::string known;
  for (const auto& [name, option] : options) {
    if (value == name) {
      *out = option;
      return Status::OK();
    }
    known += (known.empty() ? "" : ", ") + std::string(name);
  }
  return Status::InvalidArgument("unknown " + std::string(key) + " '" +
                                 std::string(value) + "' (known: " + known +
                                 ")");
}

Status Text(V value, std::string* out) {
  *out = std::string(value);
  return Status::OK();
}

/// Canonical registry name of a solver; the error lists every solver.
Status SolverName(V value, std::string* out) {
  CLOUDIA_ASSIGN_OR_RETURN(const deploy::NdpSolver* solver,
                           deploy::SolverRegistry::Global().Require(value));
  return Text(solver->name(), out);
}

/// "cp, mip,local" -> {"cp", "mip", "local"}: splits on commas and trims
/// surrounding whitespace. Empty -> empty.
std::vector<std::string> SplitCommaList(V csv) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= csv.size()) {
    const size_t comma = std::min(csv.find(',', start), csv.size());
    size_t lo = start, hi = comma;
    while (lo < hi && std::isspace(static_cast<unsigned char>(csv[lo]))) ++lo;
    while (hi > lo && std::isspace(static_cast<unsigned char>(csv[hi - 1]))) {
      --hi;
    }
    if (hi > lo) out.emplace_back(csv.substr(lo, hi - lo));
    start = comma + 1;
  }
  return out;
}

/// One key: spelling, the group deciding which verbs accept it, usage text,
/// default (applied through the same setter before the request's tokens;
/// nullptr = none, see help) and the setter with its range check.
struct KeyDef {
  const char* key;
  unsigned scope;
  const char* value;
  const char* default_value;
  const char* help;
  Status (*apply)(V key, V value, R& r);
};

const KeyDef kKeys[] = {
    {"verb", kVerbKey, "deploy|redeploy|stats", "deploy",
     "stats: print metrics",
     [](V, V, R&) { return Status::OK(); }},  // read before the other keys
    {"priority", kQueue, "P", "0", "higher runs first",
     [](V k, V v, R& r) { return Int(k, v, -kMaxInt, kMaxInt, &r.priority); }},
    {"deadline", kQueue, "S", nullptr, "start within S s of submission",
     [](V k, V v, R& r) { return Num(k, v, 0, kMaxS, &r.deadline_s); }},
    {"provider", kProvider, "ec2|gce|rackspace", "ec2", "cloud and price model",
     [](V, V v, R& r) {
       CLOUDIA_RETURN_IF_ERROR(ProviderProfileByName(v).status());
       return Text(v, &r.environment.provider);
     }},
    {"instances", kEnv, "N", nullptr, "default nodes + max(1, nodes/10)",
     [](V k, V v, R& r) {
       return Int(k, v, 2, kMaxN, &r.environment.instances);
     }},
    {"env-seed", kEnv, "N", "1", "seeds allocation and measurement",
     [](V k, V v, R& r) { return Seed(k, v, &r.environment.seed); }},
    {"protocol", kEnv, "token|uncoordinated|staged", "staged",
     "measurement protocol",
     [](V k, V v, R& r) {
       using P = measure::Protocol;
       return Choice<P>(k, v, {{"token", P::kTokenPassing},
                               {"uncoordinated", P::kUncoordinated},
                               {"staged", P::kStaged}},
                        &r.environment.protocol);
     }},
    {"metric", kEnv, "mean|mean-sd|p99", "mean", "cost metric per link",
     [](V k, V v, R& r) {
       using M = measure::CostMetric;
       return Choice<M>(k, v, {{"mean", M::kMean},
                               {"mean-sd", M::kMeanPlusStdDev},
                               {"p99", M::kP99}},
                        &r.environment.metric);
     }},
    {"duration", kEnv, "S", "0", "virtual s; 0 = 5 min per 100 instances",
     [](V k, V v, R& r) {
       return Num(k, v, 0, kMaxS, &r.environment.measure_duration_s);
     }},
    {"probe-bytes", kEnv, "B", "1024", "probe message size",
     [](V k, V v, R& r) {
       return Num(k, v, 1, 1e9, &r.environment.probe_bytes);
     }},
    {"graph", kApp, "mesh|tree|bipartite|ring", "mesh", "template, sizes snap",
     [](V, V v, R& r) { return Text(v, &r.graph); }},  // checked by BuildGraph
    {"nodes", kApp, "N", "30", "application nodes",
     [](V k, V v, R& r) {
       return Int(k, v, 2, kMaxN, &r.nodes, "a graph needs >= 2 nodes");
     }},
    {"method", kSolve, "NAME", "cp", "solver below; serve lines also: auto",
     [](V, V v, R& r) {
       if (v == "auto" && !IsCli(r.verb)) return Text(v, &r.solve.method);
       return SolverName(v, &r.solve.method);
     }},
    {"objective", kSolve, "longest-link|longest-path", "longest-link",
     "latency objective",
     [](V, V v, R& r) {
       CLOUDIA_ASSIGN_OR_RETURN(r.solve.objective.primary,
                                deploy::ParseObjective(v));
       return Status::OK();
     }},
    {"budget", kSolve, "S", "10", "search budget, wall seconds",
     [](V k, V v, R& r) {
       return Num(k, v, 0, kMaxS, &r.solve.time_budget_s);
     }},
    {"clusters", kSolve, "K", "20", "cost clusters for cp/mip; 0 = none",
     [](V k, V v, R& r) {
       return Int(k, v, 0, kMaxN, &r.solve.cost_clusters);
     }},
    {"price-weight", kSolve, "W", "0", "ms per $/hour of instance price",
     [](V k, V v, R& r) {
       return Weight(k, v, &r.solve.objective.price_weight);
     }},
    {"migration-weight", kSolve, "W", "0", "ms per node moved off default",
     [](V k, V v, R& r) {
       return Weight(k, v, &r.solve.objective.migration_weight);
     }},
    {"r1-samples", kSolve, "N", "1000", "random samples for r1",
     [](V k, V v, R& r) { return Int(k, v, 1, kMaxInt, &r.solve.r1_samples); }},
    {"threads", kSolve, "N", "0", "solver threads; 0 = all available",
     [](V k, V v, R& r) {
       int64_t threads = 0;
       CLOUDIA_RETURN_IF_ERROR(Int(k, v, INT64_MIN, INT64_MAX, &threads));
       CLOUDIA_RETURN_IF_ERROR(ValidateThreadCount(k, threads));
       r.solve.threads = static_cast<int>(threads);
       return Status::OK();
     }},
    {"portfolio", kSolve, "A,B,...", nullptr, "default cp,mip,local,r2",
     [](V, V v, R& r) {
       CLOUDIA_ASSIGN_OR_RETURN(
           r.solve.portfolio_members,
           deploy::ValidatePortfolioMembers(deploy::SolverRegistry::Global(),
                                            SplitCommaList(v)));
       return Status::OK();
     }},
    {"seed", kSolve, "N", "1", "seeds the solve",
     [](V k, V v, R& r) { return Seed(k, v, &r.solve.seed); }},
    {"hier-clusters", kSolve, "K", "0", "hier instance clusters; 0 = auto",
     [](V k, V v, R& r) {
       return Int(k, v, 0, kMaxN, &r.solve.hier_clusters);
     }},
    {"hier-shard-solver", kSolve, "NAME", nullptr,
     "hier shard solver; default local",
     [](V, V v, R& r) { return SolverName(v, &r.solve.hier_shard_solver); }},
    {"hier-polish-steps", kSolve, "N", "2000", "hier boundary-polish steps",
     [](V k, V v, R& r) {
       return Int(k, v, 0, kMaxInt, &r.solve.hier_polish_steps);
     }},
    {"k", kRedeploy, "N", "4", "moves per plan; -1 = no limit",
     [](V k, V v, R& r) { return Int(k, v, -1, kMaxInt, &r.max_migrations); }},
    {"checks", kRedeploy, "N", "8", "drift checks",
     [](V k, V v, R& r) { return Int(k, v, 1, kMaxInt, &r.checks); }},
    {"check-interval", kRedeploy, "S", "1800", "virtual s between drift checks",
     [](V k, V v, R& r) {
       return Num(k, v, 1, kMaxS, &r.policy.check_interval_s);
     }},
    {"drift-rate", kRedeploy, "P", "0.35", "congestion episodes per rack pair",
     [](V k, V v, R& r) {
       return Probability(k, v, &r.policy.dynamics.episode_rate);
     }},
    {"drift-severity", kRedeploy, "X", "3", "max episode RTT multiplier",
     [](V k, V v, R& r) {
       return Num(k, v, 1, 1e6, &r.policy.dynamics.severity_hi,
                  "an RTT multiplier");
     }},
    {"drift-seed", kRedeploy, "N", nullptr, "drift seed (default env-seed + 1)",
     [](V k, V v, R& r) { return Seed(k, v, &r.policy.dynamics.seed); }},
    {"relocation-prob", kRedeploy, "P", "0.05", "VM relocations per hour",
     [](V k, V v, R& r) {
       return Probability(k, v, &r.policy.dynamics.relocation_prob);
     }},
    {"out", kMatrixOut, "FILE", nullptr, "save the measured cost matrix",
     [](V, V v, R& r) { return Text(v, &r.out); }},
    {"costs", kMatrixIn, "FILE", nullptr, "cost matrix saved by measure",
     [](V, V v, R& r) { return Text(v, &r.costs); }},
    {"trace", kObs, "FILE", nullptr, "write a Chrome trace_event JSON",
     [](V, V v, R& r) { return Text(v, &r.trace); }},
    {"metrics", kObs, "FILE", nullptr, "write counters as bench-schema JSON",
     [](V, V v, R& r) { return Text(v, &r.metrics); }},
};

Status ScopeError(const std::string& key, const KeyDef& def, RV verb) {
  if (verb == RV::kDeploy && def.scope == kRedeploy) {
    return Status::InvalidArgument(
        "key '" + key +
        "' requires verb=redeploy (a deploy request would silently drop it)");
  }
  if (IsCli(verb) && (def.scope & (kVerbKey | kQueue | kRedeploy))) {
    return Status::InvalidArgument(
        "key '" + key + "' is only accepted on cloudia_serve request lines");
  }
  return Status::InvalidArgument("key '" + key + "' does not apply to " +
                                 (IsCli(verb) ? "cloudia_cli " : "verb=") +
                                 VerbName(verb));
}

/// Builds the named template with roughly `nodes` nodes: the deepest 3-ary
/// tree within `nodes`, a 1:9 bipartite split, a ring, or the nearest
/// rows x cols mesh factorization.
Result<graph::CommGraph> BuildGraph(const std::string& name, int nodes) {
  std::optional<graph::CommGraph> g;
  if (name == "tree") {
    int levels = 1, count = 1, width = 3;
    for (; count + width <= nodes; width *= 3, ++levels) count += width;
    g = graph::AggregationTree(3, levels);
  } else if (name == "bipartite") {
    const int frontends = std::max(1, nodes / 10);
    g = graph::Bipartite(frontends, std::max(1, nodes - frontends));
  } else if (name == "ring") {
    g = graph::Ring(std::max(3, nodes));
  } else if (name == "mesh") {
    int rows = 1;
    for (int r = 2; r * r <= nodes; ++r) {
      if (nodes % r == 0) rows = r;
    }
    g = graph::Mesh2D(rows, nodes / rows);
  } else {
    return Status::InvalidArgument(
        "unknown graph '" + name + "' (known: mesh, tree, bipartite, ring)");
  }
  if (g->num_nodes() < 2) {
    return Status::InvalidArgument(
        "graph=" + name + " nodes=" + std::to_string(nodes) +
        ": the template snaps to " + std::to_string(g->num_nodes()) +
        " node(s); a graph needs >= 2 nodes");
  }
  return std::move(*g);
}

/// Resolves what depends on several keys: the graph, the pool size, the
/// solver/objective pairing, required files and redeploy defaults.
Result<R> Finalize(R r, const std::vector<Token>& tokens) {
  auto given = [&](V key) {
    return std::any_of(tokens.begin(), tokens.end(),
                       [&](const Token& t) { return t.first == key; });
  };
  if (r.verb == RV::kStats) return r;
  CLOUDIA_ASSIGN_OR_RETURN(graph::CommGraph app, BuildGraph(r.graph, r.nodes));
  const int n = app.num_nodes();
  r.app = std::make_shared<const graph::CommGraph>(std::move(app));
  if (!given("instances")) r.environment.instances = n + std::max(1, n / 10);
  // Only verbs that solve on the measured pool need it to hold the graph.
  if ((Scopes(r.verb) & kEnv) && (Scopes(r.verb) & kSolve) &&
      r.environment.instances < n) {
    return Status::InvalidArgument(
        "instances=" + std::to_string(r.environment.instances) +
        " cannot hold the " + std::to_string(n) + "-node graph");
  }
  if (r.solve.method != "auto") {
    CLOUDIA_ASSIGN_OR_RETURN(
        const deploy::NdpSolver* solver,
        deploy::SolverRegistry::Global().Require(r.solve.method));
    if (!solver->Supports(r.solve.objective.primary)) {
      return Status::InvalidArgument(
          std::string(solver->display_name()) + " does not support the " +
          deploy::ObjectiveName(r.solve.objective) + " objective");
    }
  }
  if (r.verb == RV::kMeasure && r.out.empty()) {
    return Status::InvalidArgument("measure needs out=FILE");
  }
  if (r.verb == RV::kSolve && r.costs.empty()) {
    return Status::InvalidArgument(
        "solve needs costs=FILE (a matrix saved by measure)");
  }
  if (r.verb == RV::kRedeploy) {
    net::DynamicsConfig& d = r.policy.dynamics;
    if (!given("drift-seed")) d.seed = r.environment.seed + 1;
    d.severity_lo = 1.0 + 0.6 * (d.severity_hi - 1.0);
    d.epoch_minutes = 30.0;
    d.recovery_per_epoch = 0.1;
    d.relocation_window_hours = 1.0;
    r.policy.planner.time_budget_s = 1.0;
  }
  return r;
}

Result<R> ParseTokens(const std::vector<Token>& tokens, RV verb) {
  R r;
  r.verb = verb;
  // Every key must exist; verb= is read first because it decides which of
  // the other keys the line may carry.
  std::vector<const KeyDef*> defs;
  for (const auto& [key, value] : tokens) {
    auto def = std::find_if(std::begin(kKeys), std::end(kKeys),
                            [&](const KeyDef& d) { return key == d.key; });
    if (def == std::end(kKeys)) {
      return Status::InvalidArgument("unknown request key '" + key + "'");
    }
    defs.push_back(def);
    if (def->scope == kVerbKey && !IsCli(verb)) {
      CLOUDIA_RETURN_IF_ERROR(Choice<RV>(key, value,
                                         {{"deploy", RV::kDeploy},
                                          {"redeploy", RV::kRedeploy},
                                          {"stats", RV::kStats}},
                                         &r.verb));
    }
  }
  for (const KeyDef& def : kKeys) {
    if (def.default_value == nullptr) continue;
    CLOUDIA_RETURN_IF_ERROR(def.apply(def.key, def.default_value, r));
  }
  for (size_t i = 0; i < tokens.size(); ++i) {
    const auto& [key, value] = tokens[i];
    if ((defs[i]->scope & Scopes(r.verb)) == 0) {
      return ScopeError(key, *defs[i], r.verb);
    }
    CLOUDIA_RETURN_IF_ERROR(defs[i]->apply(key, value, r));
  }
  return Finalize(std::move(r), tokens);
}

}  // namespace

Result<ParsedRequest> ParseRequestLine(std::string_view line) {
  std::vector<Token> tokens;
  std::istringstream in{std::string(line)};
  for (std::string token; in >> token && token[0] != '#';) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("token '" + token + "' is not key=value");
    }
    tokens.emplace_back(token.substr(0, eq), token.substr(eq + 1));
  }
  return ParseTokens(tokens, RV::kDeploy);
}

Result<ParsedRequest> ParseRequestFlags(const Flags& flags) {
  if (flags.positional().size() != 1) {
    return Status::InvalidArgument("expected exactly one mode argument");
  }
  RV verb = RV::kAdvise;
  CLOUDIA_RETURN_IF_ERROR(Choice<RV>("mode", flags.positional()[0],
                                     {{"advise", RV::kAdvise},
                                      {"measure", RV::kMeasure},
                                      {"solve", RV::kSolve}},
                                     &verb));
  std::vector<Token> tokens;
  for (const std::string& name : flags.UnqueriedFlags()) {
    tokens.emplace_back(name, flags.GetString(name, ""));
  }
  return ParseTokens(tokens, verb);
}

std::string RequestKeyUsage(bool cli) {
  // The verbs a key's [..] note names; verb=stats takes no other key.
  const int first = cli ? 3 : 0, last = cli ? 6 : 2;
  std::string out;
  for (const KeyDef& def : kKeys) {
    std::string applies;
    int count = 0;
    for (int v = first; v < last; ++v) {
      if ((kVerbs[v].scopes & def.scope) == 0) continue;
      applies += (count++ > 0 ? ", " : "") + std::string(kVerbs[v].name);
    }
    if (count == 0) continue;
    std::string line =
        std::string("  ") + (cli ? "--" : "") + def.key + "=" + def.value;
    line.resize(std::max<size_t>(line.size() + 1, 30), ' ');
    line += def.help;
    if (def.default_value != nullptr) {
      line += std::string(" (default ") + def.default_value + ")";
    }
    if (count < last - first) line += " [" + applies + "]";
    out += line + "\n";
  }
  out += "solvers:";
  for (const std::string& name : deploy::SolverRegistry::Global().Names()) {
    out += " " + name;
  }
  return out + "\n";
}

Status ValidateThreadCount(std::string_view key, int64_t threads) {
  if (threads >= 0 && threads <= 1024) return Status::OK();
  return RangeError(key, std::to_string(threads),
                    threads < 0 ? "thread count cannot be negative (use 0 for "
                                  "hardware concurrency)"
                                : "too many threads",
                    "[0, 1024]");
}

}  // namespace cloudia::service
