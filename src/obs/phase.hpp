#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "obs/sink.hpp"
#include "util/table.hpp"

namespace dps::obs {

/// The named phases of one engine step and one control round. phase_info
/// names each after the benchmark's per-layer name wherever the phase times
/// the same work.
enum class Phase : std::uint8_t {
  kNone,  // between phases: never timed
  // Engine step, in step order (SimulationEngine::run). power.record,
  // sim.step and the block's power.read run inside the physics blocks.
  kFaultsAdvance, kSchedTick, kEnginePhysics, kPowerRecord, kSimStep,
  kBlockRead, kThermalStep, kPowerRead, kEngineDecide,
  // The stages of a manager's decide, then the rest of the step.
  kCtrlRoot, kCtrlLeaf, kCoreHistory, kCorePriority, kManagersMimd,
  kCoreReadjust, kCoreEvict, kThermalGovernor, kPowerSetCap, kEngineAccount,
  // Control round (ControlServer and AggregatorNode::run_round).
  kNetCollect, kNetDecide, kNetReply, kNetUplink, kCount
};
inline constexpr auto kPhaseCount = static_cast<std::size_t>(Phase::kCount);

/// One row of the static phase table.
struct PhaseInfo {
  const char* name;
  /// kNone for a phase of the loop itself. The stages of a manager's
  /// decide name kEngineDecide; in a control round they run, and print,
  /// under kNetDecide, the round's call of the same decide.
  Phase parent;
  /// The latency histogram (and its help) each entry feeds while an
  /// Observer is attached, and the kSpan event it appends when span
  /// events are on; or nullptr.
  const char* histogram = nullptr;
  const char* help = nullptr;
  const char* span = nullptr;
};

const PhaseInfo& phase_info(Phase phase);

/// Nanoseconds and entries per phase, in fixed arrays of relaxed atomics:
/// it allocates nothing after construction, so any thread adds to it.
class PhaseTimes {
 public:
  void add(Phase phase, std::uint64_t ns);
  std::uint64_t ns(Phase phase) const { return load(slot(phase).ns); }
  std::uint64_t entries(Phase phase) const { return load(slot(phase).entries); }
  /// Whether more than one thread added to the phase: its figure is then a
  /// sum over threads, not wall time on one.
  bool summed(Phase phase) const { return load(slot(phase).thread) == 1; }

 private:
  struct Slot {
    std::atomic<std::uint64_t> ns{0}, entries{0};
    std::atomic<std::uintptr_t> thread{0};  // the one adder's tag, or 1
  };
  template <typename T>
  static T load(const std::atomic<T>& a) { return a.load(std::memory_order_relaxed); }
  const Slot& slot(Phase p) const { return slots_[static_cast<std::size_t>(p)]; }

  std::array<Slot, kPhaseCount> slots_;
};

/// Marks the phase boundaries of one thread's pass through a loop or a
/// list of stages. enter(next) reads the clock once, credits the time
/// since the last boundary to the current phase, and makes `next` current;
/// the destructor ends the last phase. Credits go to the sink's PhaseTimes,
/// when one is attached, and to the phase's histogram and span event, when
/// an Observer is. With neither, the clock is never read and a boundary is
/// one predictable branch. Stages nested in a caller's phase run their own
/// clock, and the caller's phase still covers them.
class PhaseClock {
 public:
  /// Starts in `first`.
  explicit PhaseClock(const ObsSink& sink, Phase first = Phase::kNone)
      : times_(sink.phases()), observer_(sink.observer()),
        on_(times_ != nullptr || observer_ != nullptr) { enter(first); }
  ~PhaseClock() { enter(Phase::kNone); }
  PhaseClock(const PhaseClock&) = delete;
  PhaseClock& operator=(const PhaseClock&) = delete;

  void enter(Phase next) {
    if (on_) shift(next);
  }

 private:
  bool timed(Phase phase) const;
  void shift(Phase next);

  PhaseTimes* times_;
  Observer* observer_;
  bool on_;
  Phase current_ = Phase::kNone;
  std::int64_t since_ns_ = 0;
  ObsSeconds started_at_ = 0.0;
};

/// One row per phase, indented under its parent: its total, its share of
/// the loop, its entries, and whether the figure is summed over threads.
/// A loop that ran (the engine step, the control round) lists each of its
/// top-level phases; a nested phase is listed once it has entries. The
/// last row is the total, the sum of the top-level phases.
Table phase_table(const PhaseTimes& times);

}  // namespace dps::obs
