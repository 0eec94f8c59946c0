#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "managers/manager.hpp"
#include "net/net_config.hpp"
#include "net/protocol.hpp"
#include "obs/sink.hpp"

namespace dps {

/// Central controller node: accepts one TCP connection per power-capping
/// unit, then runs the synchronous decision loop the paper describes —
/// every round it collects a 3-byte power report from each unit, hands the
/// vector of measurements to the PowerManager, and answers each unit with a
/// 3-byte cap message. This is the deployment shape of both DPS and SLURM's
/// plugin (server on a central node, clients on computing nodes), and it is
/// what the Section 6.5 overhead bench drives over loopback.
///
/// Hardening (all driven by NetConfig):
///
///  * Round deadline — the collect phase is poll()-driven: a unit whose
///    report has not arrived within round_deadline_s is scored 0 W for the
///    round (dark, exactly what a stateful manager's unresponsive-unit
///    eviction keys on) and receives no reply until a report of its does
///    arrive; the cluster's round rate is bounded by the deadline instead
///    of the slowest straggler. The connection is kept — a late report is
///    consumed by a later round, preserving the client's strict
///    report/reply lockstep.
///  * Readmission — the listen socket stays open for the whole session; a
///    restarted client reconnects with a hello frame naming its old unit
///    id and is spliced back into its slot mid-session (it receives a
///    kSetCap on its next report, so its cap is re-synchronized).
///  * Checkpoint/restore — resume_session() rebuilds a session around a
///    manager restored from a snapshot (src/core/checkpoint.hpp) instead
///    of resetting it, so DPS's learned state survives a controller crash.
class ControlServer {
 public:
  /// Binds and listens on `port` (0 picks a free port). By default only
  /// loopback is bound; pass bind_any for a real multi-machine deployment.
  ControlServer(std::uint16_t port, int expected_units, bool bind_any = false,
                const NetConfig& net = {});
  ~ControlServer();

  ControlServer(const ControlServer&) = delete;
  ControlServer& operator=(const ControlServer&) = delete;

  /// Port actually bound (useful with port 0).
  std::uint16_t port() const { return port_; }

  /// Blocks until all expected units have connected and completed the
  /// hello handshake. A fresh client (hello unit = kHelloAnyUnit) gets the
  /// next free id in connection order; a reconnecting client naming a
  /// valid id gets that slot. Returns early, with slots still empty, once
  /// `*stop` is set: a signal handler sets it, and a handler installed
  /// without SA_RESTART interrupts the blocking accept().
  void accept_all(const std::atomic<bool>* stop = nullptr);

  /// Runs `rounds` decision rounds with `manager`, starting from the
  /// constant allocation defined by `ctx`.
  void run_rounds(PowerManager& manager, const ManagerContext& ctx,
                  int rounds);

  /// Long-lived session variant: begin_session resets `manager` once;
  /// each run_round then performs one collect/decide/reply exchange, the
  /// phases net.collect, net.decide and net.reply (obs/phase.hpp), without
  /// touching the manager's accumulated state (essential for DPS, whose
  /// whole point is the state it keeps between rounds).
  ///
  /// Fault tolerance: a client that disconnects is marked dead, its unit
  /// reports 0 W to the manager from then on (the node is dark — a
  /// stateful manager's unresponsive-unit eviction then reclaims its cap
  /// budget for the survivors, and even a stateless MIMD squeezes the dead
  /// cap toward the minimum), and no further messages are sent to it. The
  /// session keeps serving the surviving clients; run_round throws only
  /// when every client is gone.
  void begin_session(PowerManager& manager, const ManagerContext& ctx);

  /// begin_session for a manager already restored from a checkpoint: the
  /// manager is NOT reset — the caller restored its state — and the cap
  /// vectors pick up where the snapshot left off, so the wire-dedup logic
  /// does not spuriously re-send unchanged caps. `round` seeds rounds().
  void resume_session(PowerManager& manager, const ManagerContext& ctx,
                      std::uint64_t round, std::span<const Watts> caps,
                      std::span<const Watts> previous_caps);

  void run_round(PowerManager& manager);

  /// Clients still connected.
  int alive_count() const;

  /// Sends every client a shutdown message and closes the connections.
  void shutdown();

  /// Caps decided in the most recent round (for inspection by tests).
  const std::vector<Watts>& last_caps() const { return caps_; }
  /// Power reports collected in the most recent round (0 W for dead or
  /// deadline-missing units) — what an aggregator (src/ctrl/) sums into
  /// the shard-level report it sends to its parent.
  const std::vector<Watts>& last_power() const { return power_; }
  /// Last caps actually sent per unit (the wire-dedup baseline); -1 until
  /// a unit has received its first kSetCap. Checkpointed alongside caps.
  const std::vector<Watts>& previous_caps() const { return previous_caps_; }
  /// Rounds completed in the current session (resumes from a checkpoint's
  /// round count after resume_session).
  std::uint64_t rounds() const { return rounds_; }

  /// Session message counters: rounds where a unit's cap changed send a
  /// kSetCap (the client performs a RAPL write); unchanged caps send
  /// kKeepCap (same 3 bytes on the wire, but the client skips the write —
  /// with DPS's restore active, most quiet rounds are all-keep).
  std::uint64_t set_cap_messages() const { return set_cap_messages_; }
  std::uint64_t keep_cap_messages() const { return keep_cap_messages_; }

  /// Attaches an observability sink: client connect/disconnect/timeout/
  /// readmit and decision / cap-write events, and the round's phases, the
  /// same stream shape the simulated engine produces. Call
  /// before accept_all so connects are captured; also forwarded to the
  /// manager by begin_session. Events get wall time (the sink's clock is
  /// not driven).
  void set_obs(const obs::ObsSink& sink);

 private:
  /// Per-connection receive state. The collect phase reads are
  /// non-blocking, so a report can arrive in pieces across poll() wakeups
  /// (or across rounds, for a straggler).
  struct Slot {
    int fd = -1;
    bool dead = true;
    WireBytes rx{};
    std::size_t rx_len = 0;
    bool has_report = false;
  };

  /// Accepts one pending connection and performs the hello handshake;
  /// used both at startup (blocking accept loop) and mid-session
  /// (readmission). Returns the unit admitted, or -1.
  int admit_one(double hello_timeout_s);
  void mark_dead(std::size_t u);
  /// Waits for every live unit's report, until the round deadline.
  void collect();
  /// Answers every unit that reported with its cap (or a keep).
  void reply();
  /// Drains whatever is readable on slot `u` without blocking; updates
  /// has_report / power_ and marks the slot dead on close.
  void drain_slot(std::size_t u);

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  int expected_units_ = 0;
  NetConfig net_;
  std::vector<Slot> slots_;
  std::vector<Watts> caps_;
  std::vector<Watts> previous_caps_;
  std::vector<Watts> power_;
  std::uint64_t rounds_ = 0;
  std::uint64_t set_cap_messages_ = 0;
  std::uint64_t keep_cap_messages_ = 0;
  obs::ObsSink obs_;
  obs::Counter* obs_rounds_ = nullptr;
  obs::Counter* obs_set_caps_ = nullptr;
  obs::Counter* obs_keep_caps_ = nullptr;
  obs::Counter* obs_disconnects_ = nullptr;
  obs::Counter* obs_timeouts_ = nullptr;
  obs::Counter* obs_readmits_ = nullptr;
};

}  // namespace dps
