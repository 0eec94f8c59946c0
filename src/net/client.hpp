#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/net_config.hpp"
#include "net/protocol.hpp"
#include "obs/sink.hpp"

namespace dps {

/// Per-node client of the control plane: connects to the central server,
/// then loops — report measured power (3 bytes), receive the new cap
/// (3 bytes), apply it locally. On real deployments the callbacks wrap
/// RAPL; in this repository they wrap the simulator or a canned trace.
class NodeClient {
 public:
  /// Returns the unit's measured average power since the last call.
  using PowerSource = std::function<Watts()>;
  /// Applies a freshly received power cap.
  using CapSink = std::function<void(Watts)>;

  /// `net` supplies the client keys of [net]: reconnect_max_attempts
  /// connection attempts per connect()/reconnect cycle, retried with
  /// exponential backoff from reconnect_base_backoff_s up to
  /// reconnect_max_backoff_s and multiplicative jitter (so a cluster of
  /// restarted nodes does not stampede the controller in lockstep), and
  /// the failsafe_cap_w self-applied when the server is lost. Throws
  /// std::invalid_argument when `net` breaks a net_section() rule.
  /// `jitter_seed` seeds the jitter stream; give each node a distinct one.
  /// `unit_hint` is the slot to reclaim on the *first* connect (-1: any
  /// free slot). A restarted process that knows which unit it was (an
  /// aggregator resuming from a checkpoint, src/ctrl/) sets it so the
  /// parent splices it back mid-session instead of treating it as a
  /// stranger; after the first hello the assigned id takes precedence.
  NodeClient(PowerSource power_source, CapSink cap_sink,
             const NetConfig& net = {}, std::uint64_t jitter_seed = 1,
             int unit_hint = -1);
  ~NodeClient();

  NodeClient(const NodeClient&) = delete;
  NodeClient& operator=(const NodeClient&) = delete;

  /// Connects to `host`:`port`. The host may be a dotted-quad IPv4
  /// address or a hostname ("localhost", a cluster head-node name) —
  /// resolution goes through getaddrinfo. Failed attempts retry with the
  /// configured exponential backoff; the final error message reports how
  /// many attempts were made. Performs the hello handshake: a first
  /// connection requests any slot, a reconnect reclaims the unit id held
  /// before. Throws std::runtime_error when every attempt failed.
  void connect(std::uint16_t port, const std::string& host = "127.0.0.1");

  /// Runs the report/receive loop until the server sends shutdown or the
  /// connection closes. Returns the number of completed rounds.
  int run();

  /// Runs exactly one round; returns false if the server shut us down or
  /// the connection was lost.
  bool run_round();

  /// What ended (or continued) a round. Callers that must react
  /// differently to an orderly shutdown and a lost connection — an
  /// aggregator (src/ctrl/) propagating its parent's shutdown down the
  /// tree but riding out an uplink outage — use run_round_ex instead of
  /// the boolean run_round.
  enum class RoundOutcome { kContinue, kShutdown, kLost };
  RoundOutcome run_round_ex();

  /// Resilient loop: on connection loss (anything but an orderly
  /// kShutdown) the failsafe cap is applied (if configured) and the
  /// client reconnects — reclaiming its unit id — with the configured
  /// backoff, resuming the report loop. Returns the total number of
  /// completed rounds once the server orderly shuts the client down, or
  /// once a reconnect cycle exhausts its attempts.
  int run_resilient(std::uint16_t port,
                    const std::string& host = "127.0.0.1");

  /// Unit id assigned by the server's hello ack; -1 before connect().
  int unit_id() const { return unit_id_; }

  /// Attaches an observability sink: reconnect / failsafe counters and
  /// kFailsafeCap events.
  void set_obs(const obs::ObsSink& sink);

 private:
  void close_fd();
  void apply_failsafe();

  PowerSource power_source_;
  CapSink cap_sink_;
  NetConfig net_;
  int fd_ = -1;
  int unit_id_ = -1;
  int unit_hint_;
  std::uint64_t jitter_state_;
  obs::ObsSink obs_;
  obs::Counter* obs_reconnects_ = nullptr;
  obs::Counter* obs_failsafes_ = nullptr;
};

}  // namespace dps
