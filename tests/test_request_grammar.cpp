// The shared request grammar of cloudia_cli and cloudia_serve: defaults,
// range checks, per-verb key scopes, identical specs from both surfaces, and
// a seeded mutation run that must only ever yield a value or a Status.
#include "service/request_grammar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "deploy/cost.h"

namespace cloudia::service {
namespace {

// Every field a parse produces, rendered so two parses compare as strings.
std::string Describe(const ParsedRequest& r) {
  std::ostringstream out;
  out << static_cast<int>(r.verb) << "|" << r.environment.Key() << "|"
      << r.graph << "/" << r.nodes << "|"
      << (r.app != nullptr ? r.app->ToString() : "no-app") << "|"
      << r.solve.method << "|" << deploy::ObjectiveSpecKey(r.solve.objective)
      << "|" << r.solve.time_budget_s << "|" << r.solve.cost_clusters << "|"
      << r.solve.r1_samples << "|" << r.solve.threads << "|" << r.solve.seed
      << "|" << r.solve.hier_clusters << "|" << r.solve.hier_shard_solver
      << "|" << r.solve.hier_polish_steps << "|";
  for (const std::string& m : r.solve.portfolio_members) out << m << ",";
  out << "|" << r.out << "|" << r.trace << "|" << r.metrics;
  return out.str();
}

Result<ParsedRequest> ParseCli(RequestVerb verb,
                               const std::vector<std::string>& args) {
  const char* mode = verb == RequestVerb::kMeasure ? "measure"
                     : verb == RequestVerb::kSolve  ? "solve"
                                                    : "advise";
  std::vector<const char*> argv = {"cloudia_cli", mode};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  CLOUDIA_ASSIGN_OR_RETURN(
      Flags flags, Flags::Parse(static_cast<int>(argv.size()), argv.data()));
  return ParseRequestFlags(flags);
}

std::vector<std::string> SplitTokens(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

TEST(RequestGrammar, DefaultsAndPoolSizeRule) {
  auto r = ParseRequestLine("");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->verb, RequestVerb::kDeploy);
  EXPECT_EQ(r->environment.provider, "ec2");
  EXPECT_EQ(r->graph, "mesh");
  EXPECT_EQ(r->app->num_nodes(), 30);
  EXPECT_EQ(r->environment.instances, 33);  // 30 + max(1, 30 / 10)
  EXPECT_EQ(r->environment.seed, 1u);
  EXPECT_EQ(r->solve.method, "cp");
  EXPECT_EQ(r->solve.time_budget_s, 10.0);
  EXPECT_EQ(r->solve.cost_clusters, 20);
  EXPECT_EQ(r->solve.seed, 1u);

  // The rule applies to the snapped template size: a 13-node 3-ary tree.
  auto tree = ParseRequestLine("graph=tree nodes=15");
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->app->num_nodes(), 13);
  EXPECT_EQ(tree->environment.instances, 14);
  auto explicit_pool = ParseRequestLine("nodes=9 instances=14");
  ASSERT_TRUE(explicit_pool.ok());
  EXPECT_EQ(explicit_pool->environment.instances, 14);
  EXPECT_FALSE(ParseRequestLine("nodes=9 instances=8").ok());
  // measure sizes a pool and solves nothing on it: no graph to hold.
  EXPECT_TRUE(
      ParseCli(RequestVerb::kMeasure, {"--instances=8", "--out=x"}).ok());
}

// Out-of-range values fail with an error naming the key and its valid range.
TEST(RequestGrammar, RejectsOutOfRangeValuesNamingTheRange) {
  const struct {
    const char* line;
    const char* error;
  } kCases[] = {
      {"graph=hexagon",
       "unknown graph 'hexagon' (known: mesh, tree, bipartite, ring)"},
      {"nodes=6x", "nodes=6x: expects an integer (valid range: [2, 1000000])"},
      {"nodes=0", "nodes=0: a graph needs >= 2 nodes (valid range: [2, "},
      {"seed=-5",
       "seed=-5: out of range (valid range: [0, 18446744073709551615])"},
      {"env-seed=-5", "env-seed=-5: out of range (valid range: [0, "},
      {"instances=-4",
       "instances=-4: out of range (valid range: [2, 1000000])"},
      {"budget=-1", "budget=-1: out of range (valid range: [0, 1000000])"},
      {"clusters=-3", "clusters=-3: out of range (valid range: [0, "},
      {"duration=nan", "duration=nan: out of range (valid range: [0, "},
      {"price-weight=inf",
       "weights must be finite and >= 0 (valid range: [0, inf))"},
      {"threads=-3", "thread count cannot be negative"},
      {"probe-bytes=0", "probe-bytes=0: out of range (valid range: [1, "},
      {"verb=redeploy drift-rate=1.5", "drift-rate=1.5: a probability"},
      {"graph=tree nodes=3", "snaps to 1 node(s)"},
      {"provider=azure", "unknown provider 'azure'"},
      {"method=flying-solver", "flying-solver"},
      {"method=cp objective=longest-path", "does not support"},
      {"nodes", "token 'nodes' is not key=value"},
  };
  for (const auto& c : kCases) {
    auto r = ParseRequestLine(c.line);
    ASSERT_FALSE(r.ok()) << c.line;
    EXPECT_NE(r.status().message().find(c.error), std::string::npos)
        << c.line << " -> " << r.status().message();
  }
}

TEST(RequestGrammar, EachVerbAcceptsOnlyItsKeys) {
  auto expect_error = [](const Result<ParsedRequest>& r, const char* text) {
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_NE(r.status().message().find(text), std::string::npos)
        << r.status().message();
  };
  expect_error(ParseRequestLine("nodes=10 k=4"),
               "key 'k' requires verb=redeploy");
  expect_error(ParseRequestLine("verb=stats nodes=10"),
               "key 'nodes' does not apply to verb=stats");
  expect_error(ParseRequestLine("out=costs.txt"),
               "key 'out' does not apply to verb=deploy");
  expect_error(ParseRequestLine("verb=terminate"), "unknown verb 'terminate'");
  expect_error(ParseRequestLine("protocl=token"),
               "unknown request key 'protocl'");
  for (const char* serve_only : {"--priority=3", "--deadline=1", "--k=4",
                                 "--verb=redeploy"}) {
    expect_error(ParseCli(RequestVerb::kAdvise, {serve_only}),
                 "is only accepted on cloudia_serve request lines");
  }
  expect_error(
      ParseCli(RequestVerb::kSolve, {"--costs=m.txt", "--instances=9"}),
      "key 'instances' does not apply to cloudia_cli solve");
  expect_error(ParseCli(RequestVerb::kAdvise, {"--costs=m.txt"}),
               "key 'costs' does not apply to cloudia_cli advise");
  expect_error(ParseCli(RequestVerb::kSolve, {}), "solve needs costs=FILE");
  expect_error(ParseCli(RequestVerb::kMeasure, {}), "measure needs out=FILE");
  // auto routing lives in the service; the CLI names a solver.
  expect_error(ParseCli(RequestVerb::kAdvise, {"--method=auto"}), "'auto'");
  EXPECT_TRUE(ParseRequestLine("method=auto").ok());

  auto stats = ParseRequestLine("verb=stats  # snapshot");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->verb, RequestVerb::kStats);
  EXPECT_EQ(stats->app, nullptr);
}

TEST(RequestGrammar, RedeployLineCarriesItsDriftPolicy) {
  auto r = ParseRequestLine(
      "verb=redeploy env-seed=7 k=2 checks=3 drift-rate=0.4 "
      "drift-severity=2.0 relocation-prob=0.1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->verb, RequestVerb::kRedeploy);
  EXPECT_EQ(r->max_migrations, 2);
  EXPECT_EQ(r->checks, 3);
  EXPECT_EQ(r->policy.check_interval_s, 1800.0);
  EXPECT_EQ(r->policy.dynamics.seed, 8u);  // env-seed + 1
  EXPECT_EQ(r->policy.dynamics.episode_rate, 0.4);
  EXPECT_EQ(r->policy.dynamics.severity_hi, 2.0);
  EXPECT_DOUBLE_EQ(r->policy.dynamics.severity_lo, 1.6);
  EXPECT_EQ(r->policy.dynamics.relocation_prob, 0.1);
  auto seeded = ParseRequestLine("verb=redeploy env-seed=7 drift-seed=42");
  ASSERT_TRUE(seeded.ok());
  EXPECT_EQ(seeded->policy.dynamics.seed, 42u);
}

// One key set in CLI form (--k=v, also --k v) and in line form (k=v) yields
// identical specs.
TEST(RequestGrammar, CliFlagsAndRequestLinesYieldIdenticalSpecs) {
  const std::vector<std::string> kKeySets = {
      "",
      "provider=gce instances=24 env-seed=9 duration=30 graph=tree nodes=13 "
      "method=local budget=1 seed=4",
      "provider=rackspace instances=40 env-seed=18446744073709551615 "
      "protocol=token metric=p99 duration=45.5 probe-bytes=512 "
      "graph=bipartite nodes=30 method=portfolio objective=longest-link "
      "budget=2 clusters=5 price-weight=0.5 migration-weight=0.125 "
      "r1-samples=50 threads=2 portfolio=cp,LOCAL seed=4 hier-clusters=3 "
      "hier-shard-solver=g2 hier-polish-steps=10",
      "graph=ring nodes=12 method=mip objective=longest-path clusters=0",
  };
  for (const std::string& keys : kKeySets) {
    auto line = ParseRequestLine(keys);
    ASSERT_TRUE(line.ok()) << keys << ": " << line.status().ToString();
    std::vector<std::string> eq_args, space_args;
    for (const std::string& token : SplitTokens(keys)) {
      eq_args.push_back("--" + token);
      const size_t eq = token.find('=');
      space_args.push_back("--" + token.substr(0, eq));
      space_args.push_back(token.substr(eq + 1));
    }
    for (const auto& args : {eq_args, space_args}) {
      auto cli = ParseCli(RequestVerb::kAdvise, args);
      ASSERT_TRUE(cli.ok()) << keys << ": " << cli.status().ToString();
      cli->verb = line->verb;  // the verb is the surface, not the spec
      EXPECT_EQ(Describe(*cli), Describe(*line)) << keys;
    }
  }
}

// Seeded mutations of every checked-in request line -- byte flips,
// truncations, token shuffles and duplications -- through both surfaces.
// Each parse returns a value or a Status; none aborts or throws.
TEST(RequestGrammarMutation, MutatedRequestsYieldValueOrStatus) {
  const std::filesystem::path root = CLOUDIA_SOURCE_DIR;
  std::vector<std::filesystem::path> files = {
      root / "examples" / "service_requests.txt"};
  for (const auto& entry :
       std::filesystem::directory_iterator(root / "tests" / "data")) {
    const std::string name = entry.path().filename().string();
    if (name.find("request") != std::string::npos &&
        entry.path().extension() == ".txt") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<std::string> lines;
  for (const auto& path : files) {
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_GE(files.size(), 8u);
  ASSERT_GE(lines.size(), 40u);

  Rng rng(20261017);
  constexpr int kMutantsPerLine = 400;
  int accepted = 0, rejected = 0;
  for (const std::string& original : lines) {
    for (int m = 0; m < kMutantsPerLine; ++m) {
      std::string line = original;
      const int ops = 1 + static_cast<int>(rng.Below(3));
      for (int op = 0; op < ops; ++op) {
        switch (rng.Below(4)) {
          case 0:  // flip one bit of one byte
            if (!line.empty()) {
              line[rng.Below(line.size())] ^=
                  static_cast<char>(1u << rng.Below(8));
            }
            break;
          case 1:  // truncate
            line.resize(rng.Below(line.size() + 1));
            break;
          case 2: {  // shuffle the tokens
            std::vector<std::string> tokens = SplitTokens(line);
            for (size_t i = tokens.size(); i > 1; --i) {
              std::swap(tokens[i - 1], tokens[rng.Below(i)]);
            }
            line.clear();
            for (const std::string& t : tokens) line += t + " ";
            break;
          }
          default: {  // duplicate one token, possibly with another value
            std::vector<std::string> tokens = SplitTokens(line);
            if (tokens.empty()) break;
            const std::string dup = tokens[rng.Below(tokens.size())];
            line += " " + dup;
            break;
          }
        }
      }
      auto as_line = ParseRequestLine(line);
      std::vector<std::string> args;
      for (const std::string& t : SplitTokens(line)) args.push_back("--" + t);
      auto as_flags = ParseCli(RequestVerb::kAdvise, args);
      for (const Result<ParsedRequest>* r : {&as_line, &as_flags}) {
        if (r->ok()) {
          ++accepted;
          if ((*r)->verb != RequestVerb::kStats) {
            ASSERT_NE((*r)->app, nullptr) << line;
            EXPECT_GE((*r)->app->num_nodes(), 2) << line;
          }
        } else {
          ++rejected;
          EXPECT_FALSE(r->status().message().empty()) << line;
        }
      }
    }
  }
  // Both outcomes occur, so the mutations exercise accept and reject paths.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace cloudia::service
