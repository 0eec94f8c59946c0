#include "obs/phase.hpp"

#include <chrono>
#include <iterator>
#include <string>

#include "util/csv.hpp"

namespace dps::obs {
namespace {

using P = Phase;

/// The phase table, in Phase order. The histogram, help and span names are
/// part of the exported metrics and event stream, so they stay stable.
constexpr PhaseInfo kPhases[] = {
    {"", P::kNone},
    {"faults.advance", P::kNone},
    {"sched.tick", P::kNone},
    {"engine.physics", P::kNone},
    {"power.record", P::kEnginePhysics},
    {"sim.step", P::kEnginePhysics},
    {"power.read", P::kEnginePhysics},
    {"thermal.step", P::kNone},
    {"power.read", P::kNone},
    {"engine.decide", P::kNone, "engine_decide_seconds",
     "Wall time of one manager decision", "decide"},
    {"ctrl.root", P::kEngineDecide, "ctrl_root_decide_seconds",
     "Wall time of one root-tier decision", "ctrl_root_decide"},
    {"ctrl.leaf", P::kEngineDecide},
    {"core.history", P::kEngineDecide, "dps_history_update_seconds",
     "Kalman-filtered history update stage", "dps_history"},
    {"core.priority", P::kEngineDecide, "dps_priority_update_seconds",
     "Priority module stage (Algorithm 2)", "dps_priority"},
    {"managers.mimd", P::kEngineDecide},
    {"core.readjust", P::kEngineDecide, "dps_readjust_seconds",
     "Restore / cap-readjust stage (Algs. 3-4)", "dps_readjust"},
    {"core.evict", P::kEngineDecide},
    {"thermal.governor", P::kNone},
    {"power.set_cap", P::kNone},
    {"engine.account", P::kNone},
    {"net.collect", P::kNone},
    {"net.decide", P::kNone, "ctrl_decide_seconds",
     "Wall time of one manager decision in a round"},
    {"net.reply", P::kNone},
    {"net.uplink", P::kNone},
};
static_assert(std::size(kPhases) == kPhaseCount);

}  // namespace

const PhaseInfo& phase_info(Phase phase) {
  return kPhases[static_cast<std::size_t>(phase)];
}

void PhaseTimes::add(Phase phase, std::uint64_t ns) {
  // A thread_local object's address tags its thread (never 0 or 1).
  thread_local const char tag = 0;
  const auto me = reinterpret_cast<std::uintptr_t>(&tag);
  Slot& s = slots_[static_cast<std::size_t>(phase)];
  s.ns.fetch_add(ns, std::memory_order_relaxed);
  s.entries.fetch_add(1, std::memory_order_relaxed);
  std::uintptr_t seen = 0;
  if (!s.thread.compare_exchange_strong(seen, me, std::memory_order_relaxed) &&
      seen != me) {
    s.thread.store(1, std::memory_order_relaxed);
  }
}

bool PhaseClock::timed(Phase phase) const {
  return phase != Phase::kNone &&
         (times_ != nullptr ||
          (observer_ != nullptr && phase_info(phase).histogram != nullptr));
}

void PhaseClock::shift(Phase next) {
  const bool ending = timed(current_);
  if (ending || timed(next)) {
    const std::int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    const auto ns = static_cast<std::uint64_t>(now - since_ns_);
    const PhaseInfo& info = phase_info(current_);
    if (ending && times_ != nullptr) times_->add(current_, ns);
    if (ending && observer_ != nullptr && info.histogram != nullptr) {
      observer_->phase_histogram(current_).observe(1e-9 * ns);
      if (info.span != nullptr && observer_->span_events()) {
        observer_->emit_at(started_at_, EventKind::kSpan, -1, 0.0, 1e-9 * ns,
                           info.span);
      }
    }
    since_ns_ = now;
  }
  current_ = next;
  if (observer_ != nullptr && phase_info(next).span != nullptr &&
      observer_->span_events()) {
    started_at_ = observer_->now();
  }
}

Table phase_table(const PhaseTimes& times) {
  // Every top-level phase of a loop that ran prints, so a phase the run
  // skipped reads 0; a nested phase prints once it has entries.
  const auto loop = [](std::size_t i) {
    return i >= static_cast<std::size_t>(P::kNetCollect);
  };
  bool ran[2] = {false, false};  // the engine step, the control round
  double total_ns = 1.0;         // never 0, so a share is always a number
  for (std::size_t i = 1; i < kPhaseCount; ++i) {
    if (kPhases[i].parent != P::kNone) continue;
    total_ns += static_cast<double>(times.ns(static_cast<Phase>(i)));
    ran[loop(i)] = ran[loop(i)] || times.entries(static_cast<Phase>(i)) > 0;
  }
  Table table({"phase", "total [ms]", "share", "entries", "threads"});
  const auto add_rows = [&](const auto& self, Phase parent,
                            const std::string& indent) -> void {
    for (std::size_t i = 1; i < kPhaseCount; ++i) {
      const auto phase = static_cast<Phase>(i);
      const Phase up = kPhases[i].parent;
      const bool child = up == parent || (up == P::kEngineDecide &&
                                          parent == P::kNetDecide);
      if (!child ||
          (parent == P::kNone ? !ran[loop(i)] : times.entries(phase) == 0)) {
        continue;
      }
      const auto ns = static_cast<double>(times.ns(phase));
      table.add_row({indent + kPhases[i].name, format_double(1e-6 * ns, 2),
                     format_double(100.0 * ns / total_ns, 1) + "%",
                     std::to_string(times.entries(phase)),
                     times.summed(phase) ? "summed" : "one"});
      self(self, phase, indent + "  ");
    }
  };
  add_rows(add_rows, P::kNone, "");
  table.add_row({"total", format_double(1e-6 * total_ns, 2), "100%"});
  return table;
}

}  // namespace dps::obs
