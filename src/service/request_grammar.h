// The one request grammar of both front ends.
//
// A deployment request is the paper's advisor input -- application graph,
// provider pool, objective, search budget -- spelled as key=value pairs.
// cloudia_serve reads one request per line ("nodes=30 method=cp") and
// cloudia_cli reads the same keys as flags ("--nodes=30 --method=cp"); both
// go through this parser, which owns every key's spelling, default, range
// check and error text. Malformed input yields a Status naming the key and
// its valid range; the parser never aborts or throws.
#ifndef CLOUDIA_SERVICE_REQUEST_GRAMMAR_H_
#define CLOUDIA_SERVICE_REQUEST_GRAMMAR_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>

#include "cloudia/session.h"
#include "common/flags.h"
#include "common/result.h"
#include "graph/comm_graph.h"
#include "service/advisor_service.h"
#include "service/environment.h"

namespace cloudia::service {

/// What a request asks for. Each verb accepts its own subset of the keys; a
/// key outside it is an error rather than silently dropped.
enum class RequestVerb {
  kDeploy, kRedeploy, kStats,  // cloudia_serve lines (`verb=`)
  kAdvise, kMeasure, kSolve,   // cloudia_cli modes; keep them last
};

/// One parsed request. Fields a verb does not accept keep their defaults.
struct ParsedRequest {
  RequestVerb verb = RequestVerb::kDeploy;
  /// Measurement recipe; `instances` is resolved (explicit `instances=`, or
  /// the application's node count + max(1, nodes / 10)).
  EnvironmentSpec environment;
  /// Graph template name and requested size; `app` is the built template,
  /// whose size may snap (see `graph=`). Null for verb=stats.
  std::string graph;
  int nodes = 0;
  std::shared_ptr<const graph::CommGraph> app;
  cloudia::SolveSpec solve;

  // -- cloudia_serve request lines -------------------------------------------
  int priority = 0;
  double deadline_s = std::numeric_limits<double>::infinity();
  /// verb=redeploy: migration budget per plan, drift checks, drift policy.
  int max_migrations = 0;
  int checks = 0;
  RedeployPolicy policy;

  // -- cloudia_cli files -----------------------------------------------------
  std::string out;      ///< save the measured matrix here
  std::string costs;    ///< solve: the matrix file to load
  std::string trace;    ///< Chrome trace_event JSON output
  std::string metrics;  ///< bench-schema metrics JSON output
};

/// Parses one cloudia_serve request line: whitespace-separated key=value
/// tokens, '#' starts a comment, `verb=` picks the verb (default deploy).
Result<ParsedRequest> ParseRequestLine(std::string_view line);

/// Parses a cloudia_cli command line: the one positional argument is the
/// mode (advise, measure or solve), and every flag the caller has not
/// queried is a request key.
Result<ParsedRequest> ParseRequestFlags(const Flags& flags);

/// The key table as usage text: one line per key the surface accepts, with
/// its value, default and the verbs it applies to. `cli` renders keys as
/// --flags for cloudia_cli; otherwise as request-line keys for
/// cloudia_serve. Ends with the registered solver roster.
std::string RequestKeyUsage(bool cli);

/// Thread counts (the `threads` key, cloudia_serve --threads) are in
/// [0, 1024], 0 meaning hardware concurrency; the error names `key`.
Status ValidateThreadCount(std::string_view key, int64_t threads);

}  // namespace cloudia::service

#endif  // CLOUDIA_SERVICE_REQUEST_GRAMMAR_H_
