#include "workloads/instance.hpp"

#include <algorithm>

namespace dps {

WorkloadInstance::WorkloadInstance(const WorkloadSpec& spec,
                                   std::uint64_t seed)
    : spec_(&spec), rng_(seed) {
  if (spec.socket_skew > 0.0) {
    lead_ = rng_.uniform(0.0, spec.socket_skew);
    cursor_ = -1;
  }
  // One shared duration-scale per run draw keeps the phase *structure*
  // intact (a uniformly slower run, as Spark variance mostly is), while
  // small per-segment draws wiggle individual phases.
  run_scale_ = std::max(0.5, 1.0 + rng_.normal(0.0, spec.duration_jitter));
}

WorkloadInstance WorkloadInstance::idle(Seconds duration) {
  WorkloadInstance inst;
  inst.lead_ = duration;
  inst.cursor_ = -1;
  return inst;
}

bool WorkloadInstance::next(Piece* out) {
  Segment realized{};
  if (cursor_ < 0) {
    realized = hold(lead_, kIdlePower);
  } else {
    const auto k = static_cast<std::size_t>(cursor_);
    if (spec_ == nullptr || k >= spec_->segments.size()) return false;
    const Segment& seg = spec_->segments[k];
    const double seg_scale = std::max(
        0.25, 1.0 + rng_.normal(0.0, spec_->duration_jitter * 0.5));
    const double power_scale =
        std::max(0.5, 1.0 + rng_.normal(0.0, spec_->power_jitter));
    realized.duration = seg.duration * run_scale_ * seg_scale;
    realized.start_power = seg.start_power * power_scale;
    realized.end_power = seg.end_power * power_scale;
  }
  ++cursor_;
  out->start = start_;
  start_ += realized.duration;
  out->end = start_;
  out->duration = realized.duration;
  out->start_power = realized.start_power;
  out->power_delta = realized.end_power - realized.start_power;
  return true;
}

}  // namespace dps
