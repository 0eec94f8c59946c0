#include "obs/sink.hpp"

#include "obs/phase.hpp"

namespace dps::obs {

Observer::Observer(std::size_t events_capacity, bool span_events)
    : events_(events_capacity),
      phase_histograms_(new std::atomic<Histogram*>[kPhaseCount]()),
      epoch_(std::chrono::steady_clock::now()),
      span_events_(span_events) {}

ObsSeconds Observer::now() const {
  const double driven = driven_time_.load(std::memory_order_relaxed);
  if (driven >= 0.0) return driven;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void Observer::emit(EventKind kind, std::int32_t unit, double value,
                    double extra, const char* detail) {
  emit_at(now(), kind, unit, value, extra, detail);
}

void Observer::emit_at(ObsSeconds time, EventKind kind, std::int32_t unit,
                       double value, double extra, const char* detail) {
  events_.push(Event{time, kind, unit, value, extra, detail});
}

Histogram& Observer::phase_histogram(Phase phase) {
  // The registry is idempotent, so threads racing to the first use
  // register one histogram.
  auto& cached = phase_histograms_[static_cast<std::size_t>(phase)];
  if (cached.load(std::memory_order_acquire) == nullptr) {
    const PhaseInfo& info = phase_info(phase);
    cached.store(&metrics_.histogram(info.histogram, default_latency_bounds(),
                                     info.help),
                 std::memory_order_release);
  }
  return *cached.load(std::memory_order_acquire);
}

void ObsSink::attach_phase_times() {
  phases_ = std::make_shared<PhaseTimes>();
}

}  // namespace dps::obs
