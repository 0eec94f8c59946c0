#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

namespace dps::obs {

/// Seconds since the observer's epoch — simulated time when a simulation
/// drives the clock, wall time on a live control plane. Defined here (not
/// pulled from power_interface.hpp) so dps_obs sits below every other
/// library and anything may link it.
using ObsSeconds = double;

/// The event taxonomy shared by the simulated and the live (TCP) stacks.
/// Keeping both paths on the same enum is the point: a run in the engine
/// and a run over real sockets produce comparable streams.
enum class EventKind : std::uint8_t {
  /// One manager decision finished. value = requested cap sum [W],
  /// extra = budget in effect [W].
  kDecision,
  /// A unit's cap actually changed (constant re-sends are not events).
  /// value = new cap [W].
  kCapWrite,
  /// A set_cap request was swallowed (stuck actuator / crashed unit /
  /// dead client). value = the cap that was lost [W].
  kCapDrop,
  /// DPS evicted the unit from the shared pool as unresponsive.
  /// value = cap freed [W].
  kEvict,
  /// A previously evicted unit came back and was re-admitted.
  kReadmit,
  /// A fault activated. detail = fault kind, value = magnitude,
  /// extra = scheduled duration [s] (<= 0: never clears).
  kFaultBegin,
  /// A fault cleared. detail = fault kind.
  kFaultEnd,
  /// The budget in effect changed. value = new budget [W],
  /// extra = previous budget [W].
  kBudgetChange,
  /// A client connected to the control server. unit = assigned id.
  kClientConnect,
  /// A client disconnected / went dead mid-session.
  kClientDisconnect,
  /// A timed phase (obs/phase.hpp). detail = span name,
  /// extra = duration [s]; time is the span start.
  kSpan,
  /// A job entered the scheduler's queue (src/sched/). value = job id,
  /// extra = requested units.
  kJobSubmit,
  /// A queued job was placed and started running. unit = first unit of
  /// its allocation, value = job id, extra = granted units.
  kJobStart,
  /// A running job finished and released its units. value = job id,
  /// extra = queue wait [s] (final start - submit).
  kJobEnd,
  /// A running job was killed by a unit crash and put back in the queue.
  /// unit = the crashed unit, value = job id, extra = retries so far.
  kJobRequeue,
  /// A connected client missed the round deadline; its unit was scored
  /// 0 W this round. extra = the round deadline [s].
  kClientTimeout,
  /// A restarted client reclaimed its old slot mid-session.
  kClientReadmit,
  /// The controller wrote a state snapshot. value = rounds completed,
  /// extra = snapshot size [bytes].
  kCheckpointWrite,
  /// A restarted controller restored a snapshot and resumed stateful
  /// control. value = the snapshot's round count.
  kCheckpointRestore,
  /// A client lost the server and self-applied its failsafe cap.
  /// value = the failsafe cap [W].
  kFailsafeCap,
  /// Control-plane hierarchy (src/ctrl/): an aggregator reported its
  /// shard's aggregate power upward. unit = the shard's id at the parent
  /// (-1 before the hello ack), value = aggregate power [W],
  /// extra = units in the shard.
  kShardReport,
  /// Control-plane hierarchy: a shard's budget was (re)assigned — by the
  /// parent over the wire, or by the in-sim tree's root level.
  /// unit = shard index, value = new shard budget [W], extra = old [W].
  kShardBudget,
  /// Thermal governor (src/thermal/): a unit's sensed temperature crossed
  /// the trip point. value = sensed temperature [C], extra = trip [C].
  kThermalTrip,
  /// Thermal governor engaged: the unit is force-capped from here on.
  /// value = the forced cap [W], extra = the manager's requested cap [W].
  kThrottleOn,
  /// Thermal governor released the unit (sensed temperature fell through
  /// the clear point). value = sensed temperature [C],
  /// extra = throttled duration [s].
  kThrottleOff,
};

/// Stable lower_snake name for CSV / trace exports.
const char* to_string(EventKind kind);
/// Inverse of to_string; returns false on an unknown name.
bool event_kind_from_string(const std::string& name, EventKind& out);

/// One structured event. `detail` must point at a string with static
/// lifetime (event-kind names, span-name literals) — the ring buffer keeps
/// only the pointer.
struct Event {
  ObsSeconds time = 0.0;
  EventKind kind = EventKind::kDecision;
  std::int32_t unit = -1;  // -1: not unit-scoped
  double value = 0.0;
  double extra = 0.0;
  const char* detail = nullptr;
};

/// Bounded ring buffer of events. push() overwrites the oldest entry once
/// full, so a long run always keeps the newest `capacity` events — record
/// cheaply forever, export the interesting tail. A single mutex guards the
/// ring; events are rare relative to the work that generates them (a few
/// per decision step), so contention is not a concern.
class EventLog {
 public:
  explicit EventLog(std::size_t capacity = 65536);

  void push(const Event& event);

  /// Events oldest → newest (at most `capacity` of them).
  std::vector<Event> snapshot() const;

  /// Events ever pushed, including overwritten ones.
  std::uint64_t total_pushed() const;
  /// Events lost to overwriting so far.
  std::uint64_t dropped() const;
  std::size_t capacity() const { return ring_.size(); }

 private:
  mutable std::mutex mu_;
  std::vector<Event> ring_;
  std::size_t head_ = 0;  // next write slot
  std::uint64_t total_ = 0;
};

}  // namespace dps::obs
