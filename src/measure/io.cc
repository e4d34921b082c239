#include "measure/io.h"

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/table.h"

namespace cloudia::measure {

namespace {
constexpr char kHeader[] = "cloudia-cost-matrix v1";
}  // namespace

std::string CostMatrixToString(const deploy::CostMatrix& costs,
                               const std::string& metric_name) {
  std::string out = kHeader;
  out += '\n';
  out += StrFormat("n %d\n", costs.size());
  out += StrFormat("metric %s\n", metric_name.c_str());
  for (int i = 0; i < costs.size(); ++i) {
    out += StrFormat("row %d:", i);
    const double* row = costs.Row(i);
    for (int j = 0; j < costs.size(); ++j) out += StrFormat(" %.17g", row[j]);
    out += '\n';
  }
  return out;
}

Result<LoadedCostMatrix> CostMatrixFromString(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    return Status::InvalidArgument("missing cost-matrix header");
  }
  // Far beyond any real allocation, and small enough that a hostile 'n'
  // cannot overflow the int dimension. The cap alone does not bound the
  // allocation (65536^2 doubles are 32 GiB), so the matrix is sized only
  // once the text is long enough to hold its n^2 cells (below).
  constexpr long kMaxInstances = 1 << 16;
  size_t n = 0;
  {
    if (!std::getline(in, line) || line.rfind("n ", 0) != 0) {
      return Status::InvalidArgument("missing 'n <count>' line");
    }
    char* end = nullptr;
    errno = 0;
    long parsed = std::strtol(line.c_str() + 2, &end, 10);
    if (parsed < 0 || errno != 0 || (end != nullptr && *end != '\0')) {
      return Status::InvalidArgument("malformed instance count");
    }
    if (parsed > kMaxInstances) {
      return Status::InvalidArgument(
          StrFormat("instance count %ld exceeds the supported maximum %ld",
                    parsed, kMaxInstances));
    }
    n = static_cast<size_t>(parsed);
  }
  LoadedCostMatrix loaded;
  if (!std::getline(in, line) || line.rfind("metric ", 0) != 0) {
    return Status::InvalidArgument("missing 'metric <name>' line");
  }
  loaded.metric_name = line.substr(7);

  // Every cell needs at least a separator and a digit, so a header claiming
  // more cells than the remaining text can hold is rejected before the n^2
  // allocation (n <= 2^16 keeps 2 n^2 well inside size_t).
  const std::streamoff consumed = in.tellg();
  const size_t remaining =
      consumed < 0 ? 0 : text.size() - static_cast<size_t>(consumed);
  if (remaining < 2 * n * n) {
    return Status::InvalidArgument(StrFormat(
        "%zu bytes cannot hold the %zu x %zu matrix the header declares",
        remaining, n, n));
  }
  loaded.costs = deploy::CostMatrix(static_cast<int>(n));
  for (size_t i = 0; i < n; ++i) {
    if (!std::getline(in, line)) {
      return Status::InvalidArgument(StrFormat("missing row %zu", i));
    }
    std::string expected_prefix = StrFormat("row %zu:", i);
    if (line.rfind(expected_prefix, 0) != 0) {
      return Status::InvalidArgument(StrFormat("bad prefix on row %zu", i));
    }
    std::istringstream cells(line.substr(expected_prefix.size()));
    for (size_t j = 0; j < n; ++j) {
      if (!(cells >> loaded.costs.At(static_cast<int>(i),
                                     static_cast<int>(j)))) {
        return Status::InvalidArgument(
            StrFormat("row %zu has fewer than %zu values", i, n));
      }
    }
    double extra;
    if (cells >> extra) {
      return Status::InvalidArgument(
          StrFormat("row %zu has more than %zu values", i, n));
    }
  }
  return loaded;
}

Status SaveCostMatrix(const std::string& path,
                      const deploy::CostMatrix& costs,
                      const std::string& metric_name) {
  std::ofstream out(path);
  if (!out) {
    return Status::InvalidArgument(StrFormat("cannot open %s", path.c_str()));
  }
  out << CostMatrixToString(costs, metric_name);
  out.flush();
  if (!out) return Status::Internal(StrFormat("write failed: %s", path.c_str()));
  return Status::OK();
}

Result<LoadedCostMatrix> LoadCostMatrix(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound(StrFormat("cannot open %s", path.c_str()));
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return CostMatrixFromString(buffer.str());
}

}  // namespace cloudia::measure
