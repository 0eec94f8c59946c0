#include "workloads/instance.hpp"

#include <algorithm>
#include <cmath>

namespace dps {
namespace {

std::vector<Seconds> prefix_starts(const std::vector<Segment>& segments) {
  std::vector<Seconds> starts;
  starts.reserve(segments.size());
  Seconds at = 0.0;
  for (const auto& seg : segments) {
    starts.push_back(at);
    at += seg.duration;
  }
  return starts;
}

}  // namespace

WorkloadInstance::WorkloadInstance(const WorkloadSpec& spec, Rng& rng) {
  segments_.reserve(spec.segments.size() + 1);
  if (spec.socket_skew > 0.0) {
    const Seconds offset = rng.uniform(0.0, spec.socket_skew);
    segments_.push_back(hold(offset, kIdlePower));
  }
  // One shared duration-scale per run draw keeps the phase *structure*
  // intact (a uniformly slower run, as Spark variance mostly is), while
  // small per-segment draws wiggle individual phases.
  const double run_scale =
      std::max(0.5, 1.0 + rng.normal(0.0, spec.duration_jitter));
  for (const auto& seg : spec.segments) {
    const double seg_scale =
        std::max(0.25, 1.0 + rng.normal(0.0, spec.duration_jitter * 0.5));
    const double power_scale =
        std::max(0.5, 1.0 + rng.normal(0.0, spec.power_jitter));
    Segment realized = seg;
    realized.duration = seg.duration * run_scale * seg_scale;
    realized.start_power = seg.start_power * power_scale;
    realized.end_power = seg.end_power * power_scale;
    segments_.push_back(realized);
  }
  for (const auto& seg : segments_) total_work_ += seg.duration;
  segment_starts_ = prefix_starts(segments_);
}

WorkloadInstance::WorkloadInstance(const WorkloadSpec& spec,
                                   std::uint64_t seed) {
  Rng rng(seed);
  *this = WorkloadInstance(spec, rng);
}

WorkloadInstance WorkloadInstance::idle(Seconds duration) {
  WorkloadInstance inst;
  inst.segments_.push_back(hold(duration, kIdlePower));
  inst.total_work_ = duration;
  inst.active_ = false;
  inst.segment_starts_ = prefix_starts(inst.segments_);
  return inst;
}

Watts WorkloadInstance::demand_at(Seconds progress) const {
  std::size_t hint = 0;
  return demand_at(progress, &hint);
}

Watts WorkloadInstance::demand_at(Seconds progress, std::size_t* hint) const {
  if (segments_.empty()) return kIdlePower;
  if (progress <= 0.0) return segments_.front().start_power;
  if (progress >= total_work_) return kIdlePower;  // run done, socket idles

  std::size_t i = std::min(*hint, segments_.size() - 1);
  // The hint may be ahead if the caller rewound (new run); back up first.
  while (i > 0 && progress < segment_starts_[i]) --i;
  while (i + 1 < segments_.size() &&
         progress >= segment_starts_[i] + segments_[i].duration) {
    ++i;
  }
  *hint = i;
  return piece(i).demand(progress);
}

WorkloadInstance::Piece WorkloadInstance::piece(std::size_t hint) const {
  if (segments_.empty()) return Piece{};
  const std::size_t i = std::min(hint, segments_.size() - 1);
  const auto& seg = segments_[i];
  Piece p;
  p.start = segment_starts_[i];
  // The scan's forward test is progress >= start + duration, and any
  // progress at or past total_work() returns idle demand before the scan.
  p.end = std::min(segment_starts_[i] + seg.duration, total_work_);
  p.duration = seg.duration;
  p.start_power = seg.start_power;
  p.power_delta = seg.end_power - seg.start_power;
  return p;
}

}  // namespace dps
