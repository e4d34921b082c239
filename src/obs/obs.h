// ObsConfig: the one knob for attaching observability to a layer.
//
// Both pointers are optional and non-owning (the caller -- a CLI, a test, or
// a long-lived service -- owns the registry/tracer and outlives the work).
// Default-constructed config means "observability off": every instrumented
// call site degrades to a null check.
#ifndef CLOUDIA_OBS_OBS_H_
#define CLOUDIA_OBS_OBS_H_

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cloudia::obs {

struct ObsConfig {
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
  /// Spans emitted under this config nest beneath this span (0 = top level).
  SpanId parent = 0;
  /// Set when `tracer` runs on this VirtualClock (a deterministic trace in
  /// virtual time): a layer that simulates virtual time, such as a
  /// measurement protocol, advances the clock by the time it simulated
  /// before closing its span, so the span covers that time.
  VirtualClock* virtual_clock = nullptr;

  bool enabled() const { return metrics != nullptr || tracer != nullptr; }

  /// Same sinks, re-rooted at `span` -- for handing to a child layer.
  ObsConfig Under(SpanId span) const {
    ObsConfig child = *this;
    child.parent = span;
    return child;
  }
};

}  // namespace cloudia::obs

#endif  // CLOUDIA_OBS_OBS_H_
