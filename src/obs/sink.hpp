#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "obs/event_log.hpp"
#include "obs/metrics_registry.hpp"

namespace dps::obs {

enum class Phase : std::uint8_t;  // obs/phase.hpp
class PhaseTimes;

/// Owns the telemetry state of one run: a metrics registry, a bounded
/// event log, and the clock that stamps events.
///
/// The clock is *seedable*: a simulation calls set_time(simulated_now)
/// every step, making every stamped event bit-reproducible across runs;
/// a live control plane never calls it and events get monotonic wall time
/// since the observer's construction.
class Observer {
 public:
  explicit Observer(std::size_t events_capacity = 65536,
                    bool span_events = true);

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  EventLog& events() { return events_; }
  const EventLog& events() const { return events_; }

  /// Pins the clock to a driven (simulated) time. Sticky: once called,
  /// now() returns the last pinned value until the next call.
  void set_time(ObsSeconds t) {
    driven_time_.store(t, std::memory_order_relaxed);
  }

  /// Driven time when set_time was ever called, wall seconds since
  /// construction otherwise.
  ObsSeconds now() const;

  /// Stamps the event with now() (unless the caller pre-stamped a
  /// non-negative time via emit_at) and appends it to the log.
  void emit(EventKind kind, std::int32_t unit = -1, double value = 0.0,
            double extra = 0.0, const char* detail = nullptr);
  void emit_at(ObsSeconds time, EventKind kind, std::int32_t unit = -1,
               double value = 0.0, double extra = 0.0,
               const char* detail = nullptr);

  /// Whether timed phases should also append kSpan events to the event
  /// log (they always feed their histogram).
  bool span_events() const { return span_events_; }

  /// The latency histogram phase_info(phase) names, registered on first
  /// use.
  Histogram& phase_histogram(Phase phase);

 private:
  MetricsRegistry metrics_;
  EventLog events_;
  std::unique_ptr<std::atomic<Histogram*>[]> phase_histograms_;
  std::atomic<double> driven_time_{-1.0};
  std::chrono::steady_clock::time_point epoch_;
  bool span_events_;
};

/// Cheap, copyable handle to an Observer — the one argument threaded
/// through engine, managers, power interfaces, fault injector, and the
/// control server. Default-constructed it is *disabled*: every operation
/// is an inline null check and nothing else, which is what makes leaving
/// the instrumentation compiled-in essentially free.
class ObsSink {
 public:
  ObsSink() = default;
  explicit ObsSink(std::shared_ptr<Observer> observer)
      : observer_(std::move(observer)) {}

  /// Convenience: a fresh enabled sink.
  static ObsSink create(std::size_t events_capacity = 65536,
                        bool span_events = true) {
    return ObsSink(std::make_shared<Observer>(events_capacity, span_events));
  }

  bool enabled() const { return observer_ != nullptr; }
  explicit operator bool() const { return enabled(); }
  Observer* observer() const { return observer_.get(); }

  /// Attaches a fresh PhaseTimes, shared by every copy made from now on,
  /// that collects the totals of every phase a PhaseClock on this sink
  /// marks (obs/phase.hpp). Independent of enabled().
  void attach_phase_times();
  PhaseTimes* phases() const { return phases_.get(); }

  void set_time(ObsSeconds t) const {
    if (observer_) observer_->set_time(t);
  }
  ObsSeconds now() const { return observer_ ? observer_->now() : 0.0; }

  void event(EventKind kind, std::int32_t unit = -1, double value = 0.0,
             double extra = 0.0, const char* detail = nullptr) const {
    if (observer_) observer_->emit(kind, unit, value, extra, detail);
  }
  void event_at(ObsSeconds time, EventKind kind, std::int32_t unit = -1,
                double value = 0.0, double extra = 0.0,
                const char* detail = nullptr) const {
    if (observer_) observer_->emit_at(time, kind, unit, value, extra, detail);
  }

  /// Metric handles for hot paths: resolve once at wiring time, keep the
  /// pointer, guard updates with a null check. All return nullptr when the
  /// sink is disabled.
  Counter* counter(const std::string& name, const std::string& help = "") const {
    return observer_ ? &observer_->metrics().counter(name, help) : nullptr;
  }
  Gauge* gauge(const std::string& name, const std::string& help = "") const {
    return observer_ ? &observer_->metrics().gauge(name, help) : nullptr;
  }
  Histogram* histogram(const std::string& name,
                       std::vector<double> upper_bounds,
                       const std::string& help = "") const {
    return observer_ ? &observer_->metrics().histogram(
                           name, std::move(upper_bounds), help)
                     : nullptr;
  }
  Histogram* latency_histogram(const std::string& name,
                               const std::string& help = "") const {
    return observer_
               ? &observer_->metrics().histogram(
                     name, default_latency_bounds(), help)
               : nullptr;
  }

 private:
  std::shared_ptr<Observer> observer_;
  std::shared_ptr<PhaseTimes> phases_;
};

}  // namespace dps::obs
