// Span tracer: hierarchical timed spans and instant events with explicit
// parent handles, exported as Chrome trace_event JSON (open the file at
// chrome://tracing or https://ui.perfetto.dev).
//
// Time comes from an obs::Clock (see clock.h). With the default RealClock,
// traces carry steady-clock timestamps; with an injected VirtualClock on a
// single-threaded path (the redeploy event-queue loop), the exported JSON is
// byte-identical across runs: span ids are a per-tracer counter and exported
// thread lanes are logical ids assigned in first-use order, never OS ids.
//
// All mutation goes through one mutex -- tracing is for stage-granularity
// spans (allocate/measure/solve, hier phases, incumbent events), not
// per-iteration hot loops.
#ifndef CLOUDIA_OBS_TRACE_H_
#define CLOUDIA_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/clock.h"

namespace cloudia::obs {

/// Handle to a span. 0 means "no span" (top level / tracing disabled).
using SpanId = int64_t;

/// One key=value annotation; numbers export as JSON numbers (a non-finite
/// one as null).
struct TraceArg {
  std::string key;
  bool is_number = false;
  double number = 0.0;
  std::string text;
};

inline TraceArg Arg(std::string key, double value) {
  TraceArg a;
  a.key = std::move(key);
  a.is_number = true;
  a.number = value;
  return a;
}
inline TraceArg Arg(std::string key, std::string value) {
  TraceArg a;
  a.key = std::move(key);
  a.text = std::move(value);
  return a;
}

struct TraceEvent {
  enum class Kind { kSpan, kInstant };
  Kind kind = Kind::kSpan;
  std::string name;
  std::string category;
  SpanId id = 0;  ///< span id; 0 for instants
  SpanId parent = 0;
  int64_t start_ns = 0;
  int64_t duration_ns = -1;  ///< -1 while the span is still open
  int lane = 0;              ///< logical thread lane for the export
  std::vector<TraceArg> args;
};

class Tracer {
 public:
  /// `clock` null means the process-wide RealClock.
  explicit Tracer(const Clock* clock = nullptr)
      : clock_(clock != nullptr ? clock
                                : static_cast<const Clock*>(RealClock::Get())) {
  }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  SpanId BeginSpan(const std::string& name, const std::string& category,
                   SpanId parent = 0);
  void EndSpan(SpanId id);
  void Instant(const std::string& name, const std::string& category,
               SpanId parent, std::vector<TraceArg> args = {});
  void AddArg(SpanId id, TraceArg arg);

  const Clock* clock() const { return clock_; }

  /// Copy of all events in record order (open spans have duration_ns = -1).
  std::vector<TraceEvent> Snapshot() const;
  size_t event_count() const;

  /// Chrome trace_event JSON ({"traceEvents": [...]}). Spans export as "X"
  /// complete events (still-open ones are closed at "now"), instants as "i";
  /// parent span ids ride in args.parent.
  std::string ToChromeTraceJson() const;

  /// ToChromeTraceJson() to `path` ("-" = stdout). False on open failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  int LaneLocked();

  const Clock* clock_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::map<SpanId, size_t> span_index_;
  std::map<std::thread::id, int> lanes_;
  SpanId next_id_ = 1;
};

/// RAII span. A default-constructed Span (or one built on a null tracer) is
/// a no-op with id 0, so call sites need no branching.
class Span {
 public:
  Span() = default;
  Span(Tracer* tracer, const std::string& name,
       const std::string& category = "", SpanId parent = 0)
      : tracer_(tracer) {
    if (tracer_ != nullptr) id_ = tracer_->BeginSpan(name, category, parent);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept : tracer_(other.tracer_), id_(other.id_) {
    other.tracer_ = nullptr;
    other.id_ = 0;
  }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      End();
      tracer_ = other.tracer_;
      id_ = other.id_;
      other.tracer_ = nullptr;
      other.id_ = 0;
    }
    return *this;
  }
  ~Span() { End(); }

  void End() {
    if (tracer_ != nullptr && id_ != 0) tracer_->EndSpan(id_);
    tracer_ = nullptr;
    id_ = 0;
  }
  SpanId id() const { return id_; }

 private:
  Tracer* tracer_ = nullptr;
  SpanId id_ = 0;
};

}  // namespace cloudia::obs

#endif  // CLOUDIA_OBS_TRACE_H_
