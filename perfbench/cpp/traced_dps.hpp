#pragma once

#include <chrono>
#include <memory>
#include <vector>

#include "core/cap_readjuster.hpp"
#include "core/dps_config.hpp"
#include "core/dps_manager.hpp"
#include "core/history.hpp"
#include "core/priority_module.hpp"
#include "managers/manager.hpp"
#include "managers/mimd.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Benchmark-side copy of DpsManager::decide that calls the DPS stage
/// classes in the same order, with a span around each: history (Kalman
/// filter), priority (Algorithm 2), stateless MIMD (Algorithm 1), restore
/// and readjust (Algorithms 3-4), then unresponsive-unit eviction. Its
/// decisions must equal DpsManager's bit for bit; the traced run checks
/// that on every workload. Supports the default pipeline only (no
/// ablation switches, no observability sink).
class TracedDps final : public dps::PowerManager {
 public:
  TracedDps(const dps::DpsConfig& config, const SpanName& span);

  std::string_view name() const override { return "dps"; }
  void reset(const dps::ManagerContext& ctx) override;
  void decide(std::span<const dps::Watts> power, std::span<dps::Watts> caps) override;
  void update_budget(dps::Watts new_total_budget) override;

 private:
  void update_evictions(std::span<const dps::Watts> power, std::span<dps::Watts> caps);

  dps::DpsConfig config_;
  const SpanName& span_;
  dps::MimdController stateless_;
  dps::EstimatedPowerHistory history_;
  dps::PriorityModule priority_;
  dps::CapReadjuster readjuster_;
  dps::ManagerContext ctx_;
  std::vector<int> silent_streak_;
  std::vector<bool> evicted_;
};

/// Timing decorator: one span named `span` around every decide() of the
/// wrapped manager, plus the DPS restore and priority counts when the
/// manager is a DpsManager. Everything else passes straight through.
class TimedManager final : public dps::PowerManager {
 public:
  TimedManager(std::unique_ptr<dps::PowerManager> inner, const SpanName& span,
               bool inherit_main = false);
  TimedManager(dps::PowerManager& inner, const SpanName& span);

  std::string_view name() const override { return inner_.name(); }
  void reset(const dps::ManagerContext& ctx) override { inner_.reset(ctx); }
  void decide(std::span<const dps::Watts> power, std::span<dps::Watts> caps) override;
  void update_budget(dps::Watts budget) override { inner_.update_budget(budget); }
  void set_obs(const dps::obs::ObsSink& sink) override { inner_.set_obs(sink); }

 private:
  std::unique_ptr<dps::PowerManager> owned_;
  dps::PowerManager& inner_;
  const SpanName& span_;
  bool inherit_main_;
  const dps::DpsManager* dps_;
};

/// Pass-through decorator for the untraced run: stamps the steady clock as
/// each decide() starts, so the interval between two stamps is one whole
/// engine step (physics, telemetry, decide, actuation). One clock read per
/// step is all it adds.
class StepTimer final : public dps::PowerManager {
 public:
  explicit StepTimer(dps::PowerManager& inner) : inner_(inner) {}

  std::string_view name() const override { return inner_.name(); }
  void reset(const dps::ManagerContext& ctx) override { inner_.reset(ctx); }
  void decide(std::span<const dps::Watts> power, std::span<dps::Watts> caps) override {
    stamps_.push_back(std::chrono::steady_clock::now());
    inner_.decide(power, caps);
  }
  void update_budget(dps::Watts budget) override { inner_.update_budget(budget); }

  /// Microseconds between consecutive decide() starts.
  std::vector<double> step_us() const;

 private:
  dps::PowerManager& inner_;
  std::vector<std::chrono::steady_clock::time_point> stamps_;
};

}  // namespace perfbench
