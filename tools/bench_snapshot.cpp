// bench_snapshot: one command that runs every bench binary in --json mode,
// merges their unified-schema metrics (bench/bench_util.h) into a single
// snapshot file (the checked-in BENCH_<n>.json series), and diffs snapshots
// against a baseline so CI can fail on perf/quality regressions.
//
// Modes (composable):
//   run      default: execute the bench binaries from --bench-dir at the
//            pinned smoke configuration below, merge their metrics.
//   --merge=a.json,b.json   merge existing per-bench JSON files instead of
//            running anything (used by the ctest fixtures).
//   --check --baseline=PATH [--tolerance=0.10]   compare the merged (or
//            --current=PATH) snapshot against a baseline snapshot; exit 1
//            when any *gated* metric regresses beyond the tolerance or a
//            gated baseline metric disappeared.
//
// Gate semantics per metric (set by the emitting bench, see bench_util.h):
//   "lower"  regression when value > baseline * (1 + tolerance)
//   "higher" regression when value < baseline * (1 - tolerance)
//   "near"   regression when |value - baseline| > tolerance * max(|b|, 1)
//   ""       informational, never compared
// A non-finite current value of a gated metric is always a regression (NaN
// fails every comparison above), and a baseline whose gated values are not
// all finite is rejected as unreadable.
//
// Only metrics sharing a name are compared, and names embed their
// configuration (e.g. "hier.q256.ratio"), so snapshots taken at different
// settings simply do not intersect instead of comparing apples to oranges.
//
// Micro-kernel times are gated on absolute nanoseconds, so the run mode
// executes bench_micro_kernels several times back to back and keeps each
// "ns" metric's minimum (noise only ever adds time) and every other
// metric's median. A rep is a whole pass over all kernels, so the reps of
// one kernel interleave with the others' and CPU-frequency drift hits all
// kernels alike.
//
// A bench that exits non-zero does not stop the run: every bench runs, the
// metrics each one wrote (a bench whose own gate failed still writes them)
// are merged and compared, and bench_snapshot then lists the failed benches
// and exits 2. A metrics file whose "value" is not a number, or whose
// "name", "unit" or "gate" is not a string, is unreadable (exit 2).
//
// Flags: --bench-dir=DIR (default "bench"), --out=PATH (default "-"),
// --merge=CSV, --current=PATH, --check, --baseline=PATH, --tolerance=F,
// --skip=CSV (bench names to not run).
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/flags.h"

namespace {

using cloudia::Flags;

// -- Minimal JSON ------------------------------------------------------------
// Parses exactly the subset the snapshot files use (objects, arrays,
// strings, numbers, booleans, null); no dependencies. Nesting is bounded
// (snapshot files nest 3 deep), so a hostile file fails to parse instead of
// overflowing the stack.

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> items;                            // kArray
  std::vector<std::pair<std::string, Json>> fields;   // kObject

  const Json* Find(const std::string& key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool Parse(Json* out) {
    SkipWs();
    if (!ParseValue(out, 0)) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    const size_t len = std::string(word).size();
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  bool ParseString(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        char esc = s_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          default: c = esc; break;  // \" \\ \/ and anything exotic verbatim
        }
      }
      out->push_back(c);
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  static constexpr int kMaxDepth = 32;

  bool ParseValue(Json* out, int depth) {
    SkipWs();
    if (pos_ >= s_.size() || depth > kMaxDepth) return false;
    const char c = s_[pos_];
    if (c == '{') {
      out->type = Json::Type::kObject;
      ++pos_;
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == '}') { ++pos_; return true; }
      while (true) {
        std::string key;
        SkipWs();
        if (!ParseString(&key)) return false;
        SkipWs();
        if (pos_ >= s_.size() || s_[pos_] != ':') return false;
        ++pos_;
        Json value;
        if (!ParseValue(&value, depth + 1)) return false;
        out->fields.emplace_back(std::move(key), std::move(value));
        SkipWs();
        if (pos_ < s_.size() && s_[pos_] == ',') { ++pos_; continue; }
        if (pos_ < s_.size() && s_[pos_] == '}') { ++pos_; return true; }
        return false;
      }
    }
    if (c == '[') {
      out->type = Json::Type::kArray;
      ++pos_;
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == ']') { ++pos_; return true; }
      while (true) {
        Json value;
        if (!ParseValue(&value, depth + 1)) return false;
        out->items.push_back(std::move(value));
        SkipWs();
        if (pos_ < s_.size() && s_[pos_] == ',') { ++pos_; continue; }
        if (pos_ < s_.size() && s_[pos_] == ']') { ++pos_; return true; }
        return false;
      }
    }
    if (c == '"') {
      out->type = Json::Type::kString;
      return ParseString(&out->string);
    }
    if (c == 't') { out->type = Json::Type::kBool; out->boolean = true;
                    return Literal("true"); }
    if (c == 'f') { out->type = Json::Type::kBool; out->boolean = false;
                    return Literal("false"); }
    if (c == 'n') { return Literal("null"); }
    // Number.
    char* end = nullptr;
    out->type = Json::Type::kNumber;
    out->number = std::strtod(s_.c_str() + pos_, &end);
    if (end == s_.c_str() + pos_) return false;
    pos_ = static_cast<size_t>(end - s_.c_str());
    return true;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

// -- Metrics -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string gate;
};

bool ReadFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[4096];
  size_t got = 0;
  out->clear();
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, got);
  }
  std::fclose(f);
  return true;
}

bool ReadMetricsFile(const std::string& path, std::vector<Metric>* out) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return false;
  }
  Json root;
  if (!JsonParser(text).Parse(&root) || root.type != Json::Type::kObject) {
    std::fprintf(stderr, "error: %s is not valid JSON\n", path.c_str());
    return false;
  }
  const Json* metrics = root.Find("metrics");
  if (metrics == nullptr || metrics->type != Json::Type::kArray) {
    std::fprintf(stderr, "error: %s has no \"metrics\" array\n",
                 path.c_str());
    return false;
  }
  for (const Json& m : metrics->items) {
    const Json* name = m.Find("name");
    const Json* value = m.Find("value");
    if (name == nullptr || value == nullptr) {
      std::fprintf(stderr, "error: %s: metric without name/value\n",
                   path.c_str());
      return false;
    }
    const Json* unit = m.Find("unit");
    const Json* gate = m.Find("gate");
    for (const auto& [key, field] :
         {std::pair{"name", name}, {"unit", unit}, {"gate", gate}}) {
      if (field != nullptr && field->type != Json::Type::kString) {
        std::fprintf(stderr, "error: %s: a metric's \"%s\" is not a string\n",
                     path.c_str(), key);
        return false;
      }
    }
    if (value->type != Json::Type::kNumber) {
      std::fprintf(stderr, "error: %s: metric %s: \"value\" is not a number\n",
                   path.c_str(), name->string.c_str());
      return false;
    }
    out->push_back({name->string, value->number,
                    unit != nullptr ? unit->string : "",
                    gate != nullptr ? gate->string : ""});
  }
  return true;
}

bool WriteSnapshot(const std::string& path, const std::vector<Metric>& metrics) {
  std::FILE* f = path == "-" ? stdout : std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_snapshot\",\n  \"metrics\": [\n");
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

const Metric* FindMetric(const std::vector<Metric>& metrics,
                         const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

// Returns the number of regressions (0 = check passed), printing one line
// per gated comparison.
int CheckAgainstBaseline(const std::vector<Metric>& current,
                         const std::vector<Metric>& baseline,
                         double tolerance) {
  int regressions = 0;
  int compared = 0;
  for (const Metric& base : baseline) {
    if (base.gate.empty()) continue;
    const Metric* cur = FindMetric(current, base.name);
    if (cur == nullptr) {
      std::fprintf(stderr, "FAIL %-40s gated metric missing from current\n",
                   base.name.c_str());
      ++regressions;
      continue;
    }
    ++compared;
    bool bad = false;
    if (!std::isfinite(cur->value)) {
      bad = true;  // NaN would pass every comparison below
    } else if (base.gate == "lower") {
      bad = cur->value > base.value * (1.0 + tolerance) + 1e-12;
    } else if (base.gate == "higher") {
      bad = cur->value < base.value * (1.0 - tolerance) - 1e-12;
    } else if (base.gate == "near") {
      bad = std::fabs(cur->value - base.value) >
            tolerance * std::max(std::fabs(base.value), 1.0);
    }
    std::printf("%s %-40s %12.4g -> %12.4g  (%s, tol %.0f%%)\n",
                bad ? "FAIL" : "ok  ", base.name.c_str(), base.value,
                cur->value, base.gate.c_str(), 100.0 * tolerance);
    if (bad) ++regressions;
  }
  std::printf("%d gated metric(s) compared, %d regression(s)\n", compared,
              regressions);
  return regressions;
}

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  std::string token;
  for (char c : csv + ",") {
    if (c == ',') {
      if (!token.empty()) out.push_back(token);
      token.clear();
    } else {
      token += c;
    }
  }
  return out;
}

bool Contains(const std::vector<std::string>& v, const std::string& s) {
  for (const std::string& x : v) {
    if (x == s) return true;
  }
  return false;
}

// Folds the reps of one bench into one metric list, in the first rep's
// order: the min of each "ns" metric, the median of every other one.
std::vector<Metric> CombineReps(const std::vector<std::vector<Metric>>& reps) {
  std::vector<Metric> out;
  for (const Metric& first : reps.front()) {
    std::vector<double> values;
    for (const std::vector<Metric>& rep : reps) {
      if (const Metric* m = FindMetric(rep, first.name)) {
        values.push_back(m->value);
      }
    }
    std::sort(values.begin(), values.end());
    Metric combined = first;
    combined.value =
        first.unit == "ns" ? values.front() : values[values.size() / 2];
    out.push_back(combined);
  }
  return out;
}

// The pinned smoke configuration: small enough for CI, identical across
// runs so snapshot metrics stay comparable by name.
struct BenchSpec {
  const char* name;
  const char* smoke_args;
  int reps;
};

constexpr BenchSpec kBenches[] = {
    {"bench_micro_kernels", "--benchmark_min_time=0.05", 5},
    {"bench_service_throughput", "--requests=24 --duration=15", 1},
    {"bench_redeploy", "--checks=8 --duration=20", 1},
    {"bench_hier_scalability",
     "--sizes=512,2000 --quality-sizes=256 --budget=5", 1},
    {"bench_pareto_frontier", "--nodes=16 --budget=3 --threads=1", 1},
    {"bench_obs_overhead", "--iters=2000000 --reps=5", 1},
};

}  // namespace

int main(int argc, char** argv) {
  auto flags = Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "error: bad flags\n");
    return 2;
  }
  const std::string bench_dir = flags->GetString("bench-dir", "bench");
  const std::string out_path = flags->GetString("out", "-");
  const std::string merge_csv = flags->GetString("merge", "");
  const std::string current_path = flags->GetString("current", "");
  const std::string baseline_path = flags->GetString("baseline", "");
  const bool check = flags->GetBool("check", false);
  auto tolerance = flags->GetDouble("tolerance", 0.10);
  if (!tolerance.ok() || *tolerance < 0) {
    std::fprintf(stderr, "error: bad --tolerance\n");
    return 2;
  }
  const std::vector<std::string> skip = SplitCsv(flags->GetString("skip", ""));

  std::vector<Metric> current;
  // Benches that exited non-zero or wrote no readable metrics.
  std::vector<std::string> failed;
  if (!current_path.empty()) {
    if (!ReadMetricsFile(current_path, &current)) return 2;
  } else if (!merge_csv.empty()) {
    for (const std::string& path : SplitCsv(merge_csv)) {
      if (!ReadMetricsFile(path, &current)) return 2;
    }
  } else {
    for (const BenchSpec& spec : kBenches) {
      if (Contains(skip, spec.name)) continue;
      const std::string part =
          (out_path == "-" ? std::string("bench_snapshot") : out_path) + "." +
          spec.name + ".part.json";
      const std::string cmd = bench_dir + "/" + spec.name + " " +
                              spec.smoke_args + " --json=" + part;
      std::vector<std::vector<Metric>> reps;
      bool ok = true;
      for (int rep = 0; rep < spec.reps; ++rep) {
        std::printf("== %s\n", cmd.c_str());
        std::fflush(stdout);
        const int rc = std::system(cmd.c_str());
        if (rc != 0) {
          std::fprintf(stderr, "error: '%s' exited with %d\n", cmd.c_str(),
                       rc);
          ok = false;
        }
        // A bench whose own gate failed still wrote its metrics; keep them.
        std::vector<Metric> metrics;
        if (ReadMetricsFile(part, &metrics)) {
          reps.push_back(std::move(metrics));
        } else {
          ok = false;
        }
        std::remove(part.c_str());
      }
      if (!ok) failed.push_back(spec.name);
      if (reps.empty()) continue;
      for (const Metric& m : CombineReps(reps)) current.push_back(m);
    }
  }

  if (out_path != "-" || !check) {
    if (!WriteSnapshot(out_path, current)) return 2;
    if (out_path != "-") std::printf("wrote %s\n", out_path.c_str());
  }

  int regressions = 0;
  if (check) {
    if (baseline_path.empty()) {
      std::fprintf(stderr, "error: --check needs --baseline=PATH\n");
      return 2;
    }
    std::vector<Metric> baseline;
    if (!ReadMetricsFile(baseline_path, &baseline)) return 2;
    for (const Metric& m : baseline) {
      if (!m.gate.empty() && !std::isfinite(m.value)) {
        std::fprintf(stderr, "error: %s: gated metric %s is not finite\n",
                     baseline_path.c_str(), m.name.c_str());
        return 2;
      }
    }
    regressions = CheckAgainstBaseline(current, baseline, *tolerance);
  }
  if (!failed.empty()) {
    std::string names;
    for (const std::string& name : failed) {
      names += (names.empty() ? "" : ", ") + name;
    }
    std::printf("overall: FAIL (failed bench(es): %s)\n", names.c_str());
    return 2;
  }
  if (regressions > 0) {
    std::printf("overall: FAIL (%d regression(s) vs %s)\n", regressions,
                baseline_path.c_str());
    return 1;
  }
  if (check) {
    std::printf("overall: PASS (no regression vs %s)\n",
                baseline_path.c_str());
  }
  return 0;
}
