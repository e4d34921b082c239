#include "obs/trace.h"

#include <cmath>
#include <cstdio>

namespace cloudia::obs {

int Tracer::LaneLocked() {
  auto [it, inserted] =
      lanes_.emplace(std::this_thread::get_id(), static_cast<int>(lanes_.size()));
  (void)inserted;
  return it->second;
}

SpanId Tracer::BeginSpan(const std::string& name, const std::string& category,
                         SpanId parent) {
  std::lock_guard<std::mutex> lock(mu_);
  TraceEvent event;
  event.kind = TraceEvent::Kind::kSpan;
  event.name = name;
  event.category = category;
  event.id = next_id_++;
  event.parent = parent;
  event.start_ns = clock_->NowNs();
  event.lane = LaneLocked();
  span_index_[event.id] = events_.size();
  events_.push_back(std::move(event));
  return events_.back().id;
}

void Tracer::EndSpan(SpanId id) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = span_index_.find(id);
  if (it == span_index_.end()) return;
  TraceEvent& event = events_[it->second];
  if (event.duration_ns < 0) {
    event.duration_ns = clock_->NowNs() - event.start_ns;
  }
}

void Tracer::Instant(const std::string& name, const std::string& category,
                     SpanId parent, std::vector<TraceArg> args) {
  std::lock_guard<std::mutex> lock(mu_);
  TraceEvent event;
  event.kind = TraceEvent::Kind::kInstant;
  event.name = name;
  event.category = category;
  event.parent = parent;
  event.start_ns = clock_->NowNs();
  event.duration_ns = 0;
  event.lane = LaneLocked();
  event.args = std::move(args);
  events_.push_back(std::move(event));
}

void Tracer::AddArg(SpanId id, TraceArg arg) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = span_index_.find(id);
  if (it == span_index_.end()) return;
  events_[it->second].args.push_back(std::move(arg));
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

namespace {

void AppendJsonString(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
  }
  out += '"';
}

void AppendMicros(std::string& out, int64_t ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out += buf;
}

void AppendArgs(std::string& out, const TraceEvent& event) {
  out += "\"args\":{";
  bool first = true;
  if (event.parent != 0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "\"parent\":%lld",
                  static_cast<long long>(event.parent));
    out += buf;
    first = false;
  }
  for (const TraceArg& arg : event.args) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(out, arg.key);
    out += ':';
    if (arg.is_number && !std::isfinite(arg.number)) {
      out += "null";  // JSON has no inf or NaN
    } else if (arg.is_number) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.9g", arg.number);
      out += buf;
    } else {
      AppendJsonString(out, arg.text);
    }
  }
  out += '}';
}

}  // namespace

std::string Tracer::ToChromeTraceJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t now_ns = clock_->NowNs();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"name\":";
    AppendJsonString(out, event.name);
    out += ",\"cat\":";
    AppendJsonString(out, event.category.empty() ? "cloudia" : event.category);
    if (event.kind == TraceEvent::Kind::kSpan) {
      out += ",\"ph\":\"X\",\"ts\":";
      AppendMicros(out, event.start_ns);
      out += ",\"dur\":";
      AppendMicros(out,
                   event.duration_ns >= 0 ? event.duration_ns
                                          : now_ns - event.start_ns);
      char buf[32];
      std::snprintf(buf, sizeof(buf), ",\"id\":%lld",
                    static_cast<long long>(event.id));
      out += buf;
    } else {
      out += ",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
      AppendMicros(out, event.start_ns);
    }
    char buf[48];
    std::snprintf(buf, sizeof(buf), ",\"pid\":1,\"tid\":%d,", event.lane);
    out += buf;
    AppendArgs(out, event);
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::string json = ToChromeTraceJson();
  std::FILE* f = path == "-" ? stdout : std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot write trace to '%s'\n", path.c_str());
    return false;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  if (f != stdout) std::fclose(f);
  return true;
}

}  // namespace cloudia::obs
