#include "net/client.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "net/wire.hpp"
#include "util/rng.hpp"

namespace dps {
namespace {

/// A uniform draw in [0, 1) for backoff jitter: one SplitMix64 step, so
/// the client needs no whole generator.
double next_jitter(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

}  // namespace

NodeClient::NodeClient(PowerSource power_source, CapSink cap_sink,
                       const NetConfig& net, std::uint64_t jitter_seed,
                       int unit_hint)
    : power_source_(std::move(power_source)),
      cap_sink_(std::move(cap_sink)),
      net_(net),
      unit_hint_(unit_hint),
      jitter_state_(jitter_seed) {
  if (!power_source_ || !cap_sink_) {
    throw std::invalid_argument("NodeClient: callbacks required");
  }
  check_section(net_section(), net_);
}

NodeClient::~NodeClient() { close_fd(); }

void NodeClient::close_fd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void NodeClient::set_obs(const obs::ObsSink& sink) {
  obs_ = sink;
  obs_reconnects_ = sink.counter(
      "client_reconnects_total",
      "Successful reconnections after a lost server connection");
  obs_failsafes_ = sink.counter(
      "client_failsafe_activations_total",
      "Times the failsafe cap was self-applied on server loss");
}

void NodeClient::connect(std::uint16_t port, const std::string& host) {
  ignore_sigpipe();

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  std::string last_error = "no attempt made";

  for (int attempt = 1; attempt <= net_.reconnect_max_attempts; ++attempt) {
    if (attempt > 1) {
      // Exponential backoff with multiplicative jitter: half deterministic
      // half random, so restarted nodes spread out instead of stampeding.
      const double uncapped =
          net_.reconnect_base_backoff_s *
          static_cast<double>(1ULL << std::min(attempt - 2, 30));
      const double capped = std::min(net_.reconnect_max_backoff_s, uncapped);
      const double delay = capped * (0.5 + 0.5 * next_jitter(jitter_state_));
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    }

    // Hostname or dotted-quad — getaddrinfo handles both. Resolved every
    // attempt: on a reconnect, DNS may point at a failed-over controller.
    addrinfo* results = nullptr;
    const int rc =
        ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                      &results);
    if (rc != 0) {
      last_error = std::string("cannot resolve '") + host +
                   "': " + ::gai_strerror(rc);
      continue;
    }

    int fd = -1;
    for (addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
      fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
      if (fd < 0) {
        last_error = std::string("socket: ") + std::strerror(errno);
        continue;
      }
      if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
      last_error = std::string("connect: ") + std::strerror(errno);
      ::close(fd);
      fd = -1;
    }
    ::freeaddrinfo(results);
    if (fd < 0) continue;

    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    // Hello handshake: request our old slot back on a reconnect (or the
    // configured hint, for a process restarted from a checkpoint), any
    // free slot on a first connection.
    const int claim = unit_id_ >= 0 ? unit_id_ : unit_hint_;
    const std::uint8_t wanted =
        claim >= 0 ? static_cast<std::uint8_t>(claim) : kHelloAnyUnit;
    const auto hello = encode_hello(Hello{kProtocolVersion, wanted});
    WireBytes ack;
    if (!write_all(fd, hello.data(), hello.size()) ||
        !read_exact(fd, ack.data(), ack.size())) {
      // The server refused us (slot occupied, version mismatch) or died
      // mid-handshake; both are retryable.
      last_error = "server closed the connection during the hello handshake";
      ::close(fd);
      continue;
    }
    const auto reply = decode_hello(ack);
    if (!reply || reply->version != kProtocolVersion) {
      ::close(fd);
      throw std::runtime_error("NodeClient: bad hello ack from server");
    }
    unit_id_ = reply->unit;
    fd_ = fd;
    return;
  }
  throw std::runtime_error(
      "NodeClient: connect to " + host + ":" + std::to_string(port) +
      " failed after " + std::to_string(net_.reconnect_max_attempts) +
      " attempt(s): " + last_error);
}

NodeClient::RoundOutcome NodeClient::run_round_ex() {
  const auto report =
      encode(Message{MessageType::kPowerReport, power_source_()});
  if (!write_all(fd_, report.data(), report.size())) {
    return RoundOutcome::kLost;
  }

  WireBytes bytes;
  if (!read_exact(fd_, bytes.data(), bytes.size())) {
    return RoundOutcome::kLost;
  }

  const auto message = decode(bytes);
  if (!message) throw std::runtime_error("undecodable server message");
  switch (message->type) {
    case MessageType::kSetCap:
      cap_sink_(message->value);
      return RoundOutcome::kContinue;
    case MessageType::kKeepCap:
      return RoundOutcome::kContinue;
    case MessageType::kShutdown:
      return RoundOutcome::kShutdown;
    case MessageType::kPowerReport:
    case MessageType::kHello:
      throw std::runtime_error("unexpected message type from server");
  }
  return RoundOutcome::kShutdown;
}

bool NodeClient::run_round() {
  return run_round_ex() == RoundOutcome::kContinue;
}

int NodeClient::run() {
  int rounds = 0;
  while (run_round()) ++rounds;
  return rounds;
}

void NodeClient::apply_failsafe() {
  if (net_.failsafe_cap_w <= 0.0) return;
  cap_sink_(net_.failsafe_cap_w);
  if (obs_failsafes_ != nullptr) obs_failsafes_->add();
  obs_.event(obs::EventKind::kFailsafeCap, unit_id_, net_.failsafe_cap_w);
}

int NodeClient::run_resilient(std::uint16_t port, const std::string& host) {
  if (fd_ < 0) connect(port, host);
  int rounds = 0;
  while (true) {
    const RoundOutcome outcome = run_round_ex();
    if (outcome == RoundOutcome::kContinue) {
      ++rounds;
      continue;
    }
    close_fd();
    if (outcome == RoundOutcome::kShutdown) return rounds;

    // Server lost mid-session: fall back to a cap that is safe without
    // coordination, then try to get back in — reclaiming our unit id so
    // the controller splices us into the same slot.
    apply_failsafe();
    try {
      connect(port, host);
    } catch (const std::runtime_error&) {
      // Reconnect exhausted its attempts; stay parked at the failsafe.
      return rounds;
    }
    if (obs_reconnects_ != nullptr) obs_reconnects_->add();
  }
}

}  // namespace dps
