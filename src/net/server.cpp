#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "net/wire.hpp"
#include "obs/phase.hpp"

namespace dps {
namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

int remaining_ms(Clock::time_point deadline) {
  const auto remaining = deadline - Clock::now();
  if (remaining <= Clock::duration::zero()) return 0;
  return static_cast<int>(
             std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
                 .count()) +
         1;
}

}  // namespace

ControlServer::ControlServer(std::uint16_t port, int expected_units,
                             bool bind_any, const NetConfig& net)
    : expected_units_(expected_units), net_(net) {
  if (expected_units <= 0) {
    throw std::invalid_argument("ControlServer: expected_units must be > 0");
  }
  check_section(net_section(), net_);
  ignore_sigpipe();
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("socket");

  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(bind_any ? INADDR_ANY : INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    throw_errno("bind");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, expected_units) < 0) throw_errno("listen");
  slots_.resize(static_cast<std::size_t>(expected_units));
}

ControlServer::~ControlServer() {
  for (auto& slot : slots_) {
    if (slot.fd >= 0) ::close(slot.fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void ControlServer::set_obs(const obs::ObsSink& sink) {
  obs_ = sink;
  obs_rounds_ = sink.counter("ctrl_rounds_total", "Decision rounds served");
  obs_set_caps_ = sink.counter(
      "ctrl_set_cap_messages_total", "kSetCap messages sent (RAPL writes)");
  obs_keep_caps_ = sink.counter(
      "ctrl_keep_cap_messages_total", "kKeepCap messages sent (skipped writes)");
  obs_disconnects_ = sink.counter(
      "ctrl_client_disconnects_total", "Clients that died mid-session");
  obs_timeouts_ = sink.counter(
      "ctrl_client_timeouts_total",
      "Rounds a connected client missed the collect deadline (scored 0 W)");
  obs_readmits_ = sink.counter(
      "ctrl_client_readmits_total",
      "Restarted clients spliced back into their slot mid-session");
}

void ControlServer::mark_dead(std::size_t u) {
  Slot& slot = slots_[u];
  if (slot.fd >= 0) ::close(slot.fd);
  slot.fd = -1;
  slot.dead = true;
  slot.rx_len = 0;
  slot.has_report = false;
  if (u < power_.size()) power_[u] = 0.0;
  if (obs_disconnects_ != nullptr) obs_disconnects_->add();
  obs_.event(obs::EventKind::kClientDisconnect, static_cast<std::int32_t>(u));
}

int ControlServer::admit_one(double hello_timeout_s) {
  const int fd = ::accept(listen_fd_, nullptr, nullptr);
  if (fd < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    throw_errno("accept");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  WireBytes bytes;
  if (read_exact_deadline(fd, bytes.data(), bytes.size(), hello_timeout_s) !=
      IoStatus::kOk) {
    ::close(fd);
    return -1;
  }
  const auto hello = decode_hello(bytes);
  if (!hello || hello->version != kProtocolVersion) {
    ::close(fd);
    return -1;
  }

  // Pick the slot: a named id reclaims that slot if it is vacant; a fresh
  // client gets the first never-or-no-longer connected one.
  int unit = -1;
  if (hello->unit != kHelloAnyUnit) {
    const auto u = static_cast<std::size_t>(hello->unit);
    if (u < slots_.size() && slots_[u].fd < 0) unit = static_cast<int>(u);
  } else {
    for (std::size_t u = 0; u < slots_.size(); ++u) {
      if (slots_[u].fd < 0) {
        unit = static_cast<int>(u);
        break;
      }
    }
  }
  if (unit < 0) {
    ::close(fd);
    return -1;
  }

  const auto ack =
      encode_hello(Hello{kProtocolVersion, static_cast<std::uint8_t>(unit)});
  if (!write_all(fd, ack.data(), ack.size())) {
    ::close(fd);
    return -1;
  }

  Slot& slot = slots_[static_cast<std::size_t>(unit)];
  slot.fd = fd;
  slot.dead = false;
  slot.rx_len = 0;
  slot.has_report = false;

  const bool in_session = !caps_.empty();
  if (in_session) {
    // Force a kSetCap on the unit's next report: a restarted node lost its
    // cap (and a failsafe-capped survivor may hold the wrong one).
    previous_caps_[static_cast<std::size_t>(unit)] = -1.0;
    if (obs_readmits_ != nullptr) obs_readmits_->add();
    obs_.event(obs::EventKind::kClientReadmit, unit);
  } else {
    obs_.event(obs::EventKind::kClientConnect, unit);
  }
  return unit;
}

void ControlServer::accept_all(const std::atomic<bool>* stop) {
  const double hello_timeout =
      net_.round_deadline_s > 0.0 ? net_.round_deadline_s : 5.0;
  while (stop == nullptr || !*stop) {
    const bool all_connected =
        std::all_of(slots_.begin(), slots_.end(),
                    [](const Slot& slot) { return slot.fd >= 0; });
    if (all_connected) break;
    admit_one(hello_timeout);
  }
}

void ControlServer::drain_slot(std::size_t u) {
  Slot& slot = slots_[u];
  while (!slot.has_report) {
    const ssize_t n = ::recv(slot.fd, slot.rx.data() + slot.rx_len,
                             slot.rx.size() - slot.rx_len, MSG_DONTWAIT);
    if (n == 0) {
      mark_dead(u);
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == ECONNRESET || errno == ETIMEDOUT) {
        mark_dead(u);
        return;
      }
      throw_errno("recv");
    }
    slot.rx_len += static_cast<std::size_t>(n);
    if (slot.rx_len < slot.rx.size()) continue;
    slot.rx_len = 0;
    const auto message = decode(slot.rx);
    if (!message || message->type != MessageType::kPowerReport) {
      throw std::runtime_error("unexpected message from client");
    }
    power_[u] = message->value;
    slot.has_report = true;
  }
}

void ControlServer::begin_session(PowerManager& manager,
                                  const ManagerContext& ctx) {
  const std::size_t n = slots_.size();
  if (static_cast<int>(n) != ctx.num_units) {
    throw std::invalid_argument("begin_session: unit count mismatch");
  }
  manager.set_obs(obs_);
  manager.reset(ctx);
  caps_.assign(n, ctx.constant_cap());
  // Force a kSetCap for every unit on the first round: the clients have
  // not applied the constant allocation yet.
  previous_caps_.assign(n, -1.0);
  power_.assign(n, 0.0);
  for (auto& slot : slots_) {
    slot.rx_len = 0;
    slot.has_report = false;
  }
  rounds_ = 0;
  set_cap_messages_ = 0;
  keep_cap_messages_ = 0;
}

void ControlServer::resume_session(PowerManager& manager,
                                   const ManagerContext& ctx,
                                   std::uint64_t round,
                                   std::span<const Watts> caps,
                                   std::span<const Watts> previous_caps) {
  const std::size_t n = slots_.size();
  if (static_cast<int>(n) != ctx.num_units || caps.size() != n ||
      previous_caps.size() != n) {
    throw std::invalid_argument("resume_session: unit count mismatch");
  }
  manager.set_obs(obs_);
  // No manager.reset(): the caller restored its state from a checkpoint
  // (core/checkpoint.hpp restore_manager) — resetting here would throw the
  // recovered histories away and defeat the restore.
  caps_.assign(caps.begin(), caps.end());
  previous_caps_.assign(previous_caps.begin(), previous_caps.end());
  power_.assign(n, 0.0);
  for (std::size_t u = 0; u < n; ++u) {
    slots_[u].rx_len = 0;
    slots_[u].has_report = false;
    // Re-synchronize every client that survived or reconnected across the
    // controller outage: it may have self-applied a failsafe cap in the
    // meantime, so the checkpointed dedup baseline cannot be trusted for
    // a connected peer.
    if (!slots_[u].dead) previous_caps_[u] = -1.0;
  }
  rounds_ = round;
  set_cap_messages_ = 0;
  keep_cap_messages_ = 0;
}

void ControlServer::run_round(PowerManager& manager) {
  if (caps_.size() != slots_.size()) {
    throw std::logic_error("run_round: begin_session not called");
  }
  obs::PhaseClock clock(obs_, obs::Phase::kNetCollect);
  collect();
  clock.enter(obs::Phase::kNetDecide);
  manager.decide(power_, caps_);
  if (obs_rounds_ != nullptr) {
    obs_rounds_->add();
    Watts cap_sum = 0.0;
    for (const Watts c : caps_) cap_sum += c;
    obs_.event(obs::EventKind::kDecision, -1, cap_sum);
  }
  clock.enter(obs::Phase::kNetReply);
  reply();
  ++rounds_;
}

void ControlServer::collect() {
  const std::size_t n = slots_.size();
  // Poll()-driven under the round deadline: every live unit gets until
  // the deadline for its 3-byte report to finish arriving; the listen
  // socket is watched too so a restarted client can be readmitted
  // mid-round. A unit that misses the deadline is scored 0 W (dark) —
  // feeding the stateful manager's unresponsive-unit eviction — and its
  // connection is kept: the straggling report is consumed by a later
  // round, preserving the client's report/reply lockstep.
  const bool bounded = net_.round_deadline_s > 0.0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             bounded ? net_.round_deadline_s : 0.0));
  std::vector<pollfd> pfds;
  std::vector<std::size_t> pfd_units;
  while (true) {
    pfds.clear();
    pfd_units.clear();
    for (std::size_t u = 0; u < n; ++u) {
      if (!slots_[u].dead && !slots_[u].has_report) {
        pfds.push_back(pollfd{slots_[u].fd, POLLIN, 0});
        pfd_units.push_back(u);
      }
    }
    if (pfds.empty()) break;  // every live unit reported (or none is live)
    pfds.push_back(pollfd{listen_fd_, POLLIN, 0});

    int timeout_ms = -1;
    if (bounded) {
      timeout_ms = remaining_ms(deadline);
      if (timeout_ms == 0) break;
    }
    const int ready = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll");
    }
    if (ready == 0) break;  // round deadline expired

    for (std::size_t i = 0; i < pfd_units.size(); ++i) {
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        drain_slot(pfd_units[i]);
      }
    }
    if (pfds.back().revents & POLLIN) {
      // Bound the hello read so a connect-then-stall peer cannot wedge
      // the round; its slot stays vacant until it completes a handshake.
      const double hello_timeout =
          bounded ? std::min(0.25, remaining_ms(deadline) / 1000.0) : 0.25;
      admit_one(hello_timeout);
    }
  }

  int alive = 0;
  for (std::size_t u = 0; u < n; ++u) {
    if (slots_[u].dead) continue;
    ++alive;
    if (!slots_[u].has_report) {
      // Missed the deadline: dark this round.
      power_[u] = 0.0;
      if (obs_timeouts_ != nullptr) obs_timeouts_->add();
      obs_.event(obs::EventKind::kClientTimeout, static_cast<std::int32_t>(u),
                 0.0, net_.round_deadline_s);
    }
  }
  if (alive == 0) {
    throw std::runtime_error("run_round: all clients disconnected");
  }
}

void ControlServer::reply() {
  // Only units whose report was consumed this round get a reply —
  // answering a unit that did not report would break its strict
  // send-one/receive-one protocol.
  for (std::size_t u = 0; u < slots_.size(); ++u) {
    if (slots_[u].dead || !slots_[u].has_report) continue;
    slots_[u].has_report = false;
    // Caps that moved less than the wire resolution would decode to the
    // same value anyway — tell the client to keep what it has and skip
    // the RAPL write.
    const bool unchanged =
        std::abs(caps_[u] - previous_caps_[u]) < kWireResolution / 2;
    const Message message =
        unchanged ? Message{MessageType::kKeepCap, 0.0}
                  : Message{MessageType::kSetCap, caps_[u]};
    if (unchanged) {
      ++keep_cap_messages_;
      if (obs_keep_caps_ != nullptr) obs_keep_caps_->add();
    } else {
      ++set_cap_messages_;
      previous_caps_[u] = caps_[u];
      if (obs_set_caps_ != nullptr) {
        obs_set_caps_->add();
        obs_.event(obs::EventKind::kCapWrite, static_cast<std::int32_t>(u),
                   caps_[u]);
      }
    }
    const auto bytes = encode(message);
    if (!write_all(slots_[u].fd, bytes.data(), bytes.size())) {
      mark_dead(u);
    }
  }
}

void ControlServer::run_rounds(PowerManager& manager, const ManagerContext& ctx,
                               int rounds) {
  begin_session(manager, ctx);
  for (int round = 0; round < rounds; ++round) run_round(manager);
}

int ControlServer::alive_count() const {
  int alive = 0;
  for (const auto& slot : slots_) {
    if (!slot.dead) ++alive;
  }
  return alive;
}

void ControlServer::shutdown() {
  for (auto& slot : slots_) {
    if (slot.fd < 0) continue;
    const auto bytes = encode(Message{MessageType::kShutdown, 0.0});
    write_all(slot.fd, bytes.data(), bytes.size());
    ::close(slot.fd);
    slot.fd = -1;
    slot.dead = true;
  }
}

}  // namespace dps
