#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/dps_manager.hpp"
#include "experiments/pair_runner.hpp"
#include "managers/constant.hpp"
#include "managers/slurm_stateless.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/exporters.hpp"
#include "obs/phase.hpp"
#include "obs/sink.hpp"

namespace dps {
namespace {

// --- Wire protocol ---

TEST(Protocol, MessagesAreExactlyThreeBytes) {
  EXPECT_EQ(kMessageSize, 3u);
  const auto bytes = encode(Message{MessageType::kPowerReport, 123.4});
  EXPECT_EQ(bytes.size(), 3u);
}

TEST(Protocol, RoundTripWithinResolution) {
  for (const Watts value : {0.0, 0.1, 42.5, 110.0, 164.9, 1000.0}) {
    const auto decoded =
        decode(encode(Message{MessageType::kSetCap, value}));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->type, MessageType::kSetCap);
    EXPECT_NEAR(decoded->value, value, kWireResolution / 2 + 1e-9);
  }
}

TEST(Protocol, AllTypesRoundTrip) {
  for (const auto type :
       {MessageType::kPowerReport, MessageType::kSetCap,
        MessageType::kKeepCap, MessageType::kShutdown}) {
    const auto decoded = decode(encode(Message{type, 7.0}));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->type, type);
  }
}

TEST(Protocol, ValueSaturatesAtCodecRange) {
  const auto decoded =
      decode(encode(Message{MessageType::kSetCap, 1e9}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_NEAR(decoded->value, 6553.5, 1e-9);
  const auto negative =
      decode(encode(Message{MessageType::kSetCap, -5.0}));
  EXPECT_DOUBLE_EQ(negative->value, 0.0);
}

TEST(Protocol, UnknownTypeRejected) {
  WireBytes bytes = {0x7f, 0x00, 0x01};
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Protocol, HelloRoundTrip) {
  const auto any = decode_hello(encode_hello({kProtocolVersion, kHelloAnyUnit}));
  ASSERT_TRUE(any.has_value());
  EXPECT_EQ(any->version, kProtocolVersion);
  EXPECT_EQ(any->unit, kHelloAnyUnit);
  const auto named = decode_hello(encode_hello({kProtocolVersion, 7}));
  ASSERT_TRUE(named.has_value());
  EXPECT_EQ(named->unit, 7);
  // A hello frame still decodes as a 3-byte message, so a pre-hello server
  // reading with decode() does not misparse it as a power report.
  const auto as_message = decode(encode_hello({kProtocolVersion, 7}));
  ASSERT_TRUE(as_message.has_value());
  EXPECT_EQ(as_message->type, MessageType::kHello);
  // Non-hello frames are rejected by the hello decoder.
  EXPECT_FALSE(
      decode_hello(encode(Message{MessageType::kPowerReport, 50.0})));
}

// --- Loopback control plane ---

TEST(ControlPlane, FullDecisionLoopOverTcp) {
  constexpr int kUnits = 4;
  constexpr int kRounds = 20;
  ControlServer server(0, kUnits);
  obs::ObsSink sink;
  sink.attach_phase_times();
  server.set_obs(sink);

  std::vector<Watts> applied_caps(kUnits, 0.0);
  std::vector<std::thread> clients;
  std::atomic<int> total_rounds{0};
  clients.reserve(kUnits);
  for (int u = 0; u < kUnits; ++u) {
    clients.emplace_back([&, u] {
      // Unit u pretends to draw 30 W (u even) or pins at its cap (u odd).
      Watts cap = 110.0;
      NodeClient client([&]() { return u % 2 == 0 ? 30.0 : cap * 0.99; },
                        [&](Watts c) {
                          cap = c;
                          applied_caps[u] = c;
                        });
      client.connect(server.port());
      total_rounds += client.run();
    });
  }

  server.accept_all();
  ManagerContext ctx;
  ctx.num_units = kUnits;
  ctx.total_budget = 110.0 * kUnits;
  MimdConfig per_round = slurm_plugin_defaults();
  per_round.decision_interval_steps = 1;  // rebalance every test round
  SlurmStatelessManager manager(per_round);
  server.run_rounds(manager, ctx, kRounds);
  server.shutdown();
  for (auto& t : clients) t.join();

  EXPECT_EQ(total_rounds.load(), kUnits * kRounds);
  const obs::PhaseTimes& phases = *sink.phases();
  EXPECT_GT(phases.ns(obs::Phase::kNetDecide), 0u);
  for (const auto phase : {obs::Phase::kNetCollect, obs::Phase::kNetDecide,
                           obs::Phase::kNetReply}) {
    EXPECT_EQ(phases.entries(phase), static_cast<std::uint64_t>(kRounds));
  }
  // The quiet even units were squeezed, the hungry odd units fattened.
  EXPECT_LT(applied_caps[0], 110.0);
  EXPECT_GT(applied_caps[1], 110.0);
  // Budget respected on the wire-delivered caps.
  Watts sum = 0.0;
  for (const Watts c : server.last_caps()) sum += c;
  EXPECT_LE(sum, ctx.total_budget + 1e-6);
}

TEST(ControlPlane, ConstantManagerDeliversConstantCaps) {
  constexpr int kUnits = 2;
  ControlServer server(0, kUnits);
  std::vector<Watts> got(kUnits, 0.0);
  std::vector<std::thread> clients;
  for (int u = 0; u < kUnits; ++u) {
    clients.emplace_back([&, u] {
      NodeClient client([] { return 50.0; }, [&, u](Watts c) { got[u] = c; });
      client.connect(server.port());
      client.run();
    });
  }
  server.accept_all();
  ManagerContext ctx;
  ctx.num_units = kUnits;
  ctx.total_budget = 220.0;
  ConstantManager manager;
  server.run_rounds(manager, ctx, 3);
  server.shutdown();
  for (auto& t : clients) t.join();
  EXPECT_NEAR(got[0], 110.0, kWireResolution);
  EXPECT_NEAR(got[1], 110.0, kWireResolution);
}

TEST(ControlPlane, ConstantManagerSendsKeepCapAfterFirstRound) {
  constexpr int kUnits = 3;
  constexpr int kRounds = 10;
  ControlServer server(0, kUnits);
  std::vector<int> writes(kUnits, 0);
  std::vector<std::thread> clients;
  for (int u = 0; u < kUnits; ++u) {
    clients.emplace_back([&, u] {
      NodeClient client([] { return 50.0; },
                        [&, u](Watts) { ++writes[u]; });
      client.connect(server.port());
      client.run();
    });
  }
  server.accept_all();
  ManagerContext ctx;
  ctx.num_units = kUnits;
  ctx.total_budget = 330.0;
  ConstantManager manager;
  server.run_rounds(manager, ctx, kRounds);
  server.shutdown();
  for (auto& t : clients) t.join();
  // Constant caps never change after round one: one real write per client,
  // keep-cap messages for the rest.
  EXPECT_EQ(server.set_cap_messages(), static_cast<std::uint64_t>(kUnits));
  EXPECT_EQ(server.keep_cap_messages(),
            static_cast<std::uint64_t>(kUnits * (kRounds - 1)));
  for (const int w : writes) EXPECT_EQ(w, 1);
}

TEST(ControlPlane, SurvivesClientDeathMidSession) {
  constexpr int kUnits = 3;
  ControlServer server(0, kUnits);
  std::vector<std::thread> clients;
  std::vector<int> rounds_done(kUnits, 0);
  for (int u = 0; u < kUnits; ++u) {
    clients.emplace_back([&, u] {
      NodeClient client([] { return 80.0; }, [](Watts) {});
      client.connect(server.port());
      if (u == 1) {
        // Client 1 dies after 3 rounds (destructor closes the socket).
        for (int r = 0; r < 3; ++r) client.run_round();
        rounds_done[u] = 3;
        return;
      }
      rounds_done[u] = client.run();
    });
  }
  server.accept_all();
  ManagerContext ctx;
  ctx.num_units = kUnits;
  ctx.total_budget = 330.0;
  ConstantManager manager;
  server.begin_session(manager, ctx);
  for (int r = 0; r < 10; ++r) server.run_round(manager);
  EXPECT_EQ(server.alive_count(), kUnits - 1);
  server.shutdown();
  for (auto& t : clients) t.join();
  EXPECT_EQ(rounds_done[0], 10);
  EXPECT_EQ(rounds_done[2], 10);
}

TEST(ControlPlane, DeadClientBudgetRedistributedOverTcp) {
  // The dead-client path end to end, over real loopback TCP: a client
  // disconnects mid-session, the server marks its unit dead (reporting
  // 0 W from then on), DPS's unresponsive-unit eviction parks the dead
  // cap at the hardware minimum, and the freed watts land on the
  // survivors.
  constexpr int kUnits = 3;
  constexpr Watts kBudget = 330.0;
  ControlServer server(0, kUnits);
  std::vector<std::thread> clients;
  for (int u = 0; u < kUnits; ++u) {
    clients.emplace_back([&, u] {
      // Survivors pin at their cap (always hungry); unit 0 dies after
      // two rounds (the destructor closes the socket).
      Watts cap = 110.0;
      // Claim unit u: the server otherwise numbers clients in connection
      // order, and the assertions below name units by role.
      NodeClient client([&] { return cap * 0.99; },
                        [&](Watts c) { cap = c; }, NetConfig{}, 1, u);
      client.connect(server.port());
      if (u == 0) {
        for (int r = 0; r < 2; ++r) client.run_round();
        return;
      }
      client.run();
    });
  }
  server.accept_all();

  ManagerContext ctx;
  ctx.num_units = kUnits;
  ctx.total_budget = kBudget;
  DpsConfig config;
  config.unresponsive_steps = 3;  // evict quickly; the test runs 20 rounds
  DpsManager manager(config);
  server.begin_session(manager, ctx);
  for (int r = 0; r < 20; ++r) server.run_round(manager);

  EXPECT_EQ(server.alive_count(), kUnits - 1);
  ASSERT_EQ(manager.evicted().size(), static_cast<std::size_t>(kUnits));
  EXPECT_TRUE(manager.evicted()[0]);
  // Dead unit parked at the hardware minimum; its budget went to the
  // survivors (both above the constant allocation now).
  const auto& caps = server.last_caps();
  EXPECT_NEAR(caps[0], ctx.min_cap, 1e-9);
  EXPECT_GT(caps[1], kBudget / kUnits);
  EXPECT_GT(caps[2], kBudget / kUnits);
  Watts sum = 0.0;
  for (const Watts c : caps) sum += c;
  EXPECT_LE(sum, kBudget + 1e-6);

  server.shutdown();
  for (auto& t : clients) t.join();
}

TEST(ControlPlane, AllClientsGoneThrows) {
  ControlServer server(0, 1);
  std::thread client_thread([&] {
    NodeClient client([] { return 50.0; }, [](Watts) {});
    client.connect(server.port());
    client.run_round();  // one round, then disconnect
  });
  server.accept_all();
  ManagerContext ctx;
  ctx.num_units = 1;
  ctx.total_budget = 110.0;
  ConstantManager manager;
  server.begin_session(manager, ctx);
  server.run_round(manager);
  client_thread.join();
  EXPECT_THROW(server.run_round(manager), std::runtime_error);
  EXPECT_EQ(server.alive_count(), 0);
}

TEST(ControlPlane, PortZeroPicksEphemeralPort) {
  ControlServer server(0, 1);
  EXPECT_GT(server.port(), 0);
}

TEST(ControlPlane, RejectsZeroUnits) {
  EXPECT_THROW(ControlServer(0, 0), std::invalid_argument);
}

TEST(ControlPlane, ClientRequiresCallbacks) {
  EXPECT_THROW(NodeClient(nullptr, [](Watts) {}), std::invalid_argument);
  EXPECT_THROW(NodeClient([] { return 0.0; }, nullptr),
               std::invalid_argument);
}

TEST(ControlPlane, CapQuantizationStaysWithinWireResolution) {
  constexpr int kUnits = 1;
  ControlServer server(0, kUnits);
  Watts got = 0.0;
  std::thread client_thread([&] {
    NodeClient client([] { return 87.3; }, [&](Watts c) { got = c; });
    client.connect(server.port());
    client.run();
  });
  server.accept_all();
  ManagerContext ctx;
  ctx.num_units = 1;
  ctx.total_budget = 123.456;
  ConstantManager manager;
  server.run_rounds(manager, ctx, 1);
  server.shutdown();
  client_thread.join();
  EXPECT_NEAR(got, 123.456, kWireResolution);
}

// --- Round deadlines ---

/// Captures the power vector every decide() for inspection; allocates the
/// constant split so clients stay in lockstep.
class RecordingManager final : public PowerManager {
 public:
  std::string_view name() const override { return "recording"; }
  void reset(const ManagerContext& ctx) override {
    ctx_ = ctx;
    last_power.assign(static_cast<std::size_t>(ctx.num_units), 0.0);
  }
  void decide(std::span<const Watts> power, std::span<Watts> caps) override {
    std::copy(power.begin(), power.end(), last_power.begin());
    for (auto& cap : caps) cap = ctx_.constant_cap();
  }
  void update_budget(Watts new_total_budget) override {
    ctx_.total_budget = new_total_budget;
  }

  std::vector<Watts> last_power;

 private:
  ManagerContext ctx_;
};

TEST(RoundDeadline, HungClientBoundsRoundLatencyAndScoresZero) {
  constexpr double kDeadline = 0.25;
  NetConfig net;
  net.round_deadline_s = kDeadline;
  ControlServer server(0, 2, false, net);
  const auto sink = obs::ObsSink::create();
  server.set_obs(sink);

  std::atomic<bool> release{false};
  std::atomic<int> normal_unit{-1};
  std::thread normal([&] {
    NodeClient client([] { return 50.0; }, [](Watts) {});
    client.connect(server.port());
    normal_unit = client.unit_id();
    while (client.run_round()) {
    }
  });
  std::thread hung([&] {
    // Completes the handshake, then never sends a report: a wedged node
    // agent whose socket stays open.
    NodeClient client([] { return 60.0; }, [](Watts) {});
    client.connect(server.port());
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  server.accept_all();

  ManagerContext ctx;
  ctx.num_units = 2;
  ctx.total_budget = 220.0;
  RecordingManager manager;
  server.begin_session(manager, ctx);
  for (int r = 0; r < 3; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    server.run_round(manager);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    // The acceptance bound: a stalled client delays a round by at most the
    // configured deadline (plus scheduling margin), never indefinitely.
    EXPECT_LT(elapsed, kDeadline + 0.3);
  }
  ASSERT_GE(normal_unit.load(), 0);
  const std::size_t hung_unit = normal_unit.load() == 0 ? 1 : 0;
  EXPECT_NEAR(manager.last_power[static_cast<std::size_t>(normal_unit)], 50.0,
              kWireResolution);
  EXPECT_DOUBLE_EQ(manager.last_power[hung_unit], 0.0);
  // Still connected — a straggler is scored dark, not evicted from TCP.
  EXPECT_EQ(server.alive_count(), 2);

  int timeout_events = 0;
  for (const auto& event : sink.observer()->events().snapshot()) {
    if (event.kind == obs::EventKind::kClientTimeout &&
        event.unit == static_cast<std::int32_t>(hung_unit)) {
      ++timeout_events;
      EXPECT_DOUBLE_EQ(event.extra, kDeadline);
    }
  }
  EXPECT_GE(timeout_events, 3);

  release = true;
  hung.join();
  server.shutdown();
  normal.join();
}

TEST(RoundDeadline, StallEvictionReadmissionAppearInEventCsvInOrder) {
  constexpr double kDeadline = 0.15;
  NetConfig net;
  net.round_deadline_s = kDeadline;
  ControlServer server(0, 2, false, net);
  const auto sink = obs::ObsSink::create();
  server.set_obs(sink);

  std::atomic<bool> resume{false};
  std::atomic<int> staller_unit{-1};
  std::thread normal([&] {
    NodeClient client([] { return 50.0; }, [](Watts) {});
    client.connect(server.port());
    while (client.run_round()) {
    }
  });
  std::thread staller([&] {
    NodeClient client([] { return 90.0; }, [](Watts) {});
    client.connect(server.port());
    staller_unit = client.unit_id();
    for (int r = 0; r < 2; ++r) client.run_round();  // healthy at first
    while (!resume.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    while (client.run_round()) {  // resumes reporting
    }
  });
  server.accept_all();

  ManagerContext ctx;
  ctx.num_units = 2;
  ctx.total_budget = 220.0;
  DpsConfig config;
  config.unresponsive_steps = 2;  // evict after two dark rounds
  DpsManager manager(config);
  server.begin_session(manager, ctx);
  for (int r = 0; r < 2; ++r) server.run_round(manager);  // all healthy
  for (int r = 0; r < 4; ++r) server.run_round(manager);  // staller dark
  ASSERT_GE(staller_unit.load(), 0);
  const auto u = static_cast<std::size_t>(staller_unit.load());
  ASSERT_TRUE(manager.evicted()[u]);
  resume = true;
  for (int r = 0; r < 4; ++r) server.run_round(manager);  // reports return
  EXPECT_FALSE(manager.evicted()[u]);
  server.shutdown();
  normal.join();
  staller.join();

  // The lifecycle must appear in the exported events CSV in causal order:
  // the collect deadline fired, then DPS evicted the dark unit, then
  // readmitted it when its reports returned.
  const std::string path = testing::TempDir() + "/net_lifecycle_events.csv";
  obs::write_events_csv(sink.observer()->events(), path);
  const auto records = obs::read_events_csv(path);
  std::ptrdiff_t first_timeout = -1, first_evict = -1, first_readmit = -1;
  for (std::ptrdiff_t i = 0; i < std::ssize(records); ++i) {
    if (records[static_cast<std::size_t>(i)].unit !=
        static_cast<std::int32_t>(u)) {
      continue;
    }
    const auto& kind = records[static_cast<std::size_t>(i)].kind;
    if (kind == "client_timeout" && first_timeout < 0) first_timeout = i;
    if (kind == "evict" && first_evict < 0) first_evict = i;
    if (kind == "readmit" && first_readmit < 0) first_readmit = i;
  }
  ASSERT_GE(first_timeout, 0);
  ASSERT_GE(first_evict, 0);
  ASSERT_GE(first_readmit, 0);
  EXPECT_LT(first_timeout, first_evict);
  EXPECT_LT(first_evict, first_readmit);
}

// --- Checkpoint / restore ---

ControlCheckpoint sample_checkpoint(PowerManager& manager,
                                    ManagerContext& ctx,
                                    std::vector<Watts>& caps) {
  ctx.num_units = 4;
  ctx.total_budget = 440.0;
  manager.reset(ctx);
  caps.assign(4, ctx.constant_cap());
  std::vector<Watts> power(4, 0.0);
  for (int r = 0; r < 30; ++r) {
    for (std::size_t u = 0; u < 4; ++u) {
      power[u] = u % 2 == 1 ? caps[u] * 0.99 : 30.0 + (r % 5);
    }
    manager.decide(power, caps);
  }
  return make_checkpoint(manager, ctx, 30, caps, caps);
}

TEST(Checkpoint, DpsRoundTripContinuesBitIdentically) {
  // Every manager dpsd can run. DPS; the SLURM baseline, whose MIMD
  // controller keeps an RNG stream, averaging windows and a cadence
  // counter between rounds; and P2P, whose agents keep budgets, filters
  // and windows and whose exchange keeps an RNG and a ring stride. The
  // constant and feedback managers keep no state and may save none.
  for (const ManagerKind kind :
       {ManagerKind::kDps, ManagerKind::kSlurm, ManagerKind::kConstant,
        ManagerKind::kFeedback, ManagerKind::kP2p}) {
    SCOPED_TRACE(to_string(kind));
    const auto original = make_manager(kind);
    ManagerContext ctx;
    std::vector<Watts> caps_a;
    const auto ckpt = sample_checkpoint(*original, ctx, caps_a);
    EXPECT_EQ(ckpt.round, 30u);
    EXPECT_EQ(ckpt.manager_name, to_string(kind));
    const bool stateless =
        kind == ManagerKind::kConstant || kind == ManagerKind::kFeedback;
    EXPECT_EQ(ckpt.manager_state.empty(), stateless);

    const auto decoded = decode_checkpoint(encode_checkpoint(ckpt));
    EXPECT_EQ(decoded.round, ckpt.round);
    EXPECT_EQ(decoded.manager_name, ckpt.manager_name);
    EXPECT_EQ(decoded.caps, ckpt.caps);
    EXPECT_EQ(decoded.previous_caps, ckpt.previous_caps);
    EXPECT_EQ(decoded.manager_state, ckpt.manager_state);
    EXPECT_EQ(decoded.ctx.num_units, ctx.num_units);
    EXPECT_EQ(decoded.ctx.total_budget, ctx.total_budget);

    const auto restored = make_manager(kind);
    restore_manager(*restored, decoded);
    // Both managers must now continue bit-identically: the snapshot
    // carries every decision-relevant internal (exact EXPECT_EQ on
    // doubles).
    std::vector<Watts> caps_b = decoded.caps;
    std::vector<Watts> power(4, 0.0);
    for (int r = 30; r < 50; ++r) {
      for (std::size_t u = 0; u < 4; ++u) {
        power[u] = u % 2 == 1 ? caps_a[u] * 0.99 : 30.0 + (r % 5);
      }
      original->decide(power, caps_a);
      for (std::size_t u = 0; u < 4; ++u) {
        power[u] = u % 2 == 1 ? caps_b[u] * 0.99 : 30.0 + (r % 5);
      }
      restored->decide(power, caps_b);
      for (std::size_t u = 0; u < 4; ++u) {
        ASSERT_EQ(caps_a[u], caps_b[u]) << "round " << r << " unit " << u;
      }
    }
  }
}

TEST(Checkpoint, SlurmSnapshotWithoutStateRestoresCold) {
  // Snapshots of the SLURM manager written before it saved its MIMD state
  // hold no state bytes: they still restore, into a freshly reset manager.
  SlurmStatelessManager original;
  ManagerContext ctx;
  std::vector<Watts> caps_a;
  auto ckpt = sample_checkpoint(original, ctx, caps_a);
  ckpt.manager_state.clear();
  SlurmStatelessManager restored;
  restore_manager(restored, decode_checkpoint(encode_checkpoint(ckpt)));

  SlurmStatelessManager cold;
  cold.reset(ctx);
  std::vector<Watts> caps_b = caps_a;
  std::vector<Watts> power(4, 0.0);
  for (int r = 0; r < 20; ++r) {
    for (std::size_t u = 0; u < 4; ++u) {
      power[u] = u % 2 == 1 ? caps_a[u] * 0.99 : 30.0 + (r % 5);
    }
    restored.decide(power, caps_a);
    cold.decide(power, caps_b);
    ASSERT_EQ(caps_a, caps_b) << "round " << r;
  }
}

TEST(Checkpoint, FileRoundTripSurvivesExactly) {
  DpsManager manager;
  ManagerContext ctx;
  std::vector<Watts> caps;
  const auto ckpt = sample_checkpoint(manager, ctx, caps);
  const std::string path = testing::TempDir() + "/roundtrip.ckpt";
  write_checkpoint_file(path, ckpt);
  const auto back = read_checkpoint_file(path);
  EXPECT_EQ(back.round, ckpt.round);
  EXPECT_EQ(back.manager_name, ckpt.manager_name);
  EXPECT_EQ(back.caps, ckpt.caps);
  EXPECT_EQ(back.previous_caps, ckpt.previous_caps);
  EXPECT_EQ(back.manager_state, ckpt.manager_state);
}

TEST(Checkpoint, CorruptedAndTruncatedSnapshotsRejected) {
  DpsManager manager;
  ManagerContext ctx;
  std::vector<Watts> caps;
  const auto ckpt = sample_checkpoint(manager, ctx, caps);
  const std::string path = testing::TempDir() + "/corrupt.ckpt";
  write_checkpoint_file(path, ckpt);

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  ASSERT_GT(bytes.size(), 24u);

  // A flipped payload byte fails the CRC.
  {
    std::string corrupted = bytes;
    corrupted.back() = static_cast<char>(corrupted.back() ^ 0x5a);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << corrupted;
  }
  EXPECT_THROW(read_checkpoint_file(path), std::runtime_error);

  // A truncated file is rejected cleanly, not parsed partially.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, bytes.size() - 9);
  }
  EXPECT_THROW(read_checkpoint_file(path), std::runtime_error);

  // Garbage magic is rejected before anything else is trusted.
  {
    std::string corrupted = bytes;
    corrupted[0] = 'X';
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << corrupted;
  }
  EXPECT_THROW(read_checkpoint_file(path), std::runtime_error);

  EXPECT_THROW(read_checkpoint_file(testing::TempDir() + "/missing.ckpt"),
               std::runtime_error);
}

TEST(Checkpoint, WrongManagerSnapshotRejected) {
  DpsManager manager;
  ManagerContext ctx;
  std::vector<Watts> caps;
  const auto ckpt = sample_checkpoint(manager, ctx, caps);
  SlurmStatelessManager other;
  EXPECT_THROW(restore_manager(other, ckpt), std::runtime_error);
}

TEST(Checkpoint, ContextMustMatchItsUnitCount) {
  // Managers index unit_tdp by unit and size their state by num_units, so
  // a snapshot (CRC-valid, say) whose context disagrees with itself is
  // refused before any manager sees it.
  DpsManager manager;
  ManagerContext ctx;
  std::vector<Watts> caps;
  ControlCheckpoint ckpt = sample_checkpoint(manager, ctx, caps);
  ckpt.ctx.unit_tdp = {165.0, 165.0, 165.0, 165.0};
  EXPECT_EQ(decode_checkpoint(encode_checkpoint(ckpt)).ctx.unit_tdp.size(),
            4u);
  ckpt.ctx.unit_tdp = {165.0};
  EXPECT_THROW(decode_checkpoint(encode_checkpoint(ckpt)), std::runtime_error);
  // num_units follows the u64 round and the length-prefixed manager name.
  ckpt.ctx.unit_tdp.clear();
  auto bytes = encode_checkpoint(ckpt);
  const std::size_t at = 16 + ckpt.manager_name.size();
  for (const std::uint64_t units : {~0ULL, 1ULL << 40}) {
    for (int i = 0; i < 8; ++i) bytes[at + i] = (units >> (8 * i)) & 0xff;
    EXPECT_THROW(decode_checkpoint(bytes), std::runtime_error) << units;
  }
}

// --- Reconnect & readmission ---

TEST(Readmission, RestartedClientReclaimsSlotAndGetsResynced) {
  constexpr int kUnits = 2;
  ControlServer server(0, kUnits);
  const auto sink = obs::ObsSink::create();
  server.set_obs(sink);

  std::thread survivor([&] {
    NodeClient client([] { return 50.0; }, [](Watts) {});
    client.connect(server.port());
    while (client.run_round()) {
    }
  });
  std::atomic<int> first_unit{-1};
  std::thread mortal([&] {
    NodeClient client([] { return 80.0; }, [](Watts) {});
    client.connect(server.port());
    first_unit = client.unit_id();
    for (int r = 0; r < 2; ++r) client.run_round();
    // Destructor closes the socket: a node-agent crash.
  });
  server.accept_all();

  ManagerContext ctx;
  ctx.num_units = kUnits;
  ctx.total_budget = 220.0;
  ConstantManager manager;
  server.begin_session(manager, ctx);
  for (int r = 0; r < 2; ++r) server.run_round(manager);
  mortal.join();
  // The next rounds notice the death.
  while (server.alive_count() == kUnits) server.run_round(manager);
  ASSERT_EQ(server.alive_count(), kUnits - 1);

  // The restarted agent reconnects mid-session and reclaims a slot; its
  // first reply must be a kSetCap (resync), not a kKeepCap.
  std::atomic<int> reclaimed_unit{-1};
  std::atomic<int> caps_applied{0};
  std::thread restarted([&] {
    NodeClient client([] { return 80.0; }, [&](Watts) { ++caps_applied; });
    client.connect(server.port());
    reclaimed_unit = client.unit_id();
    while (client.run_round()) {
    }
  });
  for (int r = 0; r < 50 && server.alive_count() < kUnits; ++r) {
    server.run_round(manager);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(server.alive_count(), kUnits);
  for (int r = 0; r < 3; ++r) server.run_round(manager);
  server.shutdown();
  survivor.join();
  restarted.join();

  EXPECT_EQ(reclaimed_unit.load(), first_unit.load());
  EXPECT_GE(caps_applied.load(), 1);
  bool saw_readmit = false;
  for (const auto& event : sink.observer()->events().snapshot()) {
    if (event.kind == obs::EventKind::kClientReadmit &&
        event.unit == reclaimed_unit.load()) {
      saw_readmit = true;
    }
  }
  EXPECT_TRUE(saw_readmit);
}

// --- Client connect behaviour ---

TEST(ClientConnect, RetriesWithBackoffUntilServerAppears) {
  // Find a port that is currently free, then start the client before
  // anything listens on it: the first attempts see ECONNREFUSED and the
  // backoff loop carries the client until the server comes up.
  std::uint16_t port = 0;
  {
    ControlServer probe(0, 1);
    port = probe.port();
  }
  std::atomic<int> rounds{0};
  std::thread client_thread([&] {
    NetConfig net;
    net.reconnect_max_attempts = 60;
    net.reconnect_base_backoff_s = 0.01;
    net.reconnect_max_backoff_s = 0.05;
    NodeClient client([] { return 50.0; }, [](Watts) {}, net);
    client.connect(port, "localhost");  // hostname, not dotted-quad
    rounds = client.run();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ControlServer server(port, 1);
  server.accept_all();
  ManagerContext ctx;
  ctx.num_units = 1;
  ctx.total_budget = 110.0;
  ConstantManager manager;
  server.run_rounds(manager, ctx, 2);
  server.shutdown();
  client_thread.join();
  EXPECT_EQ(rounds.load(), 2);
}

TEST(ClientConnect, FailureReportsHostPortAndAttemptCount) {
  std::uint16_t port = 0;
  {
    ControlServer probe(0, 1);
    port = probe.port();
  }
  NetConfig net;
  net.reconnect_max_attempts = 3;
  net.reconnect_base_backoff_s = 0.005;
  net.reconnect_max_backoff_s = 0.01;
  NodeClient client([] { return 50.0; }, [](Watts) {}, net);
  try {
    client.connect(port);
    FAIL() << "connect to a dead port should throw";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("3 attempt"), std::string::npos) << what;
    EXPECT_NE(what.find("127.0.0.1"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(port)), std::string::npos) << what;
  }
}

TEST(ClientConnect, RejectsBadResilienceConfig) {
  NetConfig bad;
  bad.reconnect_max_attempts = 0;
  EXPECT_THROW(NodeClient([] { return 0.0; }, [](Watts) {}, bad),
               std::invalid_argument);
}

// --- Failsafe cap ---

TEST(Failsafe, AppliedWhenServerDiesAndReconnectFails) {
  auto server = std::make_unique<ControlServer>(0, 1);
  const std::uint16_t port = server->port();
  std::atomic<double> last_cap{0.0};
  std::atomic<int> total_rounds{-1};
  NetConfig net;
  net.failsafe_cap_w = 33.0;
  net.reconnect_max_attempts = 2;
  net.reconnect_base_backoff_s = 0.005;
  net.reconnect_max_backoff_s = 0.01;
  std::thread client_thread([&] {
    NodeClient client([] { return 80.0; }, [&](Watts c) { last_cap = c; },
                      net);
    total_rounds = client.run_resilient(port);
  });
  server->accept_all();
  ManagerContext ctx;
  ctx.num_units = 1;
  ctx.total_budget = 110.0;
  ConstantManager manager;
  server->begin_session(manager, ctx);
  server->run_round(manager);
  server.reset();  // controller crash: sockets close without a kShutdown
  client_thread.join();
  // The client fell back to its TDP-safe failsafe cap, then gave up after
  // exhausting its reconnect attempts (nothing relistened on the port).
  EXPECT_DOUBLE_EQ(last_cap.load(), 33.0);
  EXPECT_EQ(total_rounds.load(), 1);
}

// --- End-to-end controller restart ---

TEST(EndToEnd, RestartFromCheckpointMatchesUninterruptedAndBeatsColdRestart) {
  constexpr int kUnits = 4;
  constexpr int kTotalRounds = 40;
  constexpr int kCrashRound = 20;
  const Watts kBudget = 110.0 * kUnits;

  // Deterministic node behaviour: odd units always pin at their cap
  // (hungry), even units idle at 30 W — the learned DPS split is strongly
  // non-uniform, which is exactly the state a checkpoint must preserve.
  auto spawn_clients = [&](std::uint16_t port,
                           std::vector<std::thread>& threads) {
    for (int u = 0; u < kUnits; ++u) {
      threads.emplace_back([port, u] {
        NetConfig net;
        net.reconnect_max_attempts = 200;
        net.reconnect_base_backoff_s = 0.01;
        net.reconnect_max_backoff_s = 0.05;
        std::shared_ptr<double> cap = std::make_shared<double>(110.0);
        // Claim unit u, so the role below (hungry or idle) belongs to the
        // same unit in every run; by default the server numbers clients
        // in connection order.
        NodeClient client(
            [cap, u] { return u % 2 == 1 ? *cap * 0.99 : 30.0; },
            [cap](Watts c) { *cap = c; }, net,
            static_cast<std::uint64_t>(u) + 1, u);
        client.run_resilient(port);
      });
    }
  };

  ManagerContext ctx;
  ctx.num_units = kUnits;
  ctx.total_budget = kBudget;

  // Uninterrupted reference run, recording the cap trajectory per round.
  // The power schedule is a stateless function of the caps, so every run
  // shares the same fixed point; what a cold restart loses is the *path* —
  // it re-converges from the constant allocation while a restored manager
  // continues where the snapshot left off. Scoring the post-crash
  // trajectory (not just the final caps) is what makes the comparison
  // non-vacuous.
  std::vector<std::vector<Watts>> base_trace;
  {
    ControlServer server(0, kUnits);
    std::vector<std::thread> clients;
    spawn_clients(server.port(), clients);
    server.accept_all();
    DpsManager manager;
    server.begin_session(manager, ctx);
    for (int r = 0; r < kTotalRounds; ++r) {
      server.run_round(manager);
      base_trace.push_back(server.last_caps());
    }
    server.shutdown();
    for (auto& t : clients) t.join();
  }
  const std::vector<Watts>& base_caps = base_trace.back();

  // Crash at round kCrashRound, restart on the same port; `restore` picks
  // between resuming from the checkpoint and a cold stateless manager.
  // Returns the post-crash cap trajectory (rounds kCrashRound..end).
  auto run_with_crash =
      [&](bool restore) -> std::vector<std::vector<Watts>> {
    auto server = std::make_unique<ControlServer>(0, kUnits);
    const std::uint16_t port = server->port();
    std::vector<std::thread> clients;
    spawn_clients(port, clients);
    server->accept_all();
    DpsManager phase1;
    server->begin_session(phase1, ctx);
    for (int r = 0; r < kCrashRound; ++r) server->run_round(phase1);
    const ControlCheckpoint ckpt =
        make_checkpoint(phase1, ctx, server->rounds(), server->last_caps(),
                        server->previous_caps());
    server.reset();  // kill -9: no shutdown messages, clients reconnect

    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ControlServer reborn(port, kUnits);
    reborn.accept_all();
    DpsManager restored;
    SlurmStatelessManager cold;
    PowerManager* manager = nullptr;
    if (restore) {
      restore_manager(restored, ckpt);
      reborn.resume_session(restored, ckpt.ctx, ckpt.round, ckpt.caps,
                            ckpt.previous_caps);
      manager = &restored;
      EXPECT_EQ(reborn.rounds(), static_cast<std::uint64_t>(kCrashRound));
    } else {
      reborn.begin_session(cold, ctx);
      manager = &cold;
    }
    std::vector<std::vector<Watts>> trace;
    for (int r = 0; r < kTotalRounds - kCrashRound; ++r) {
      reborn.run_round(*manager);
      trace.push_back(reborn.last_caps());
    }
    reborn.shutdown();
    for (auto& t : clients) t.join();
    return trace;
  };

  const std::vector<std::vector<Watts>> restored_trace = run_with_crash(true);
  const std::vector<std::vector<Watts>> cold_trace = run_with_crash(false);
  ASSERT_EQ(restored_trace.size(),
            static_cast<std::size_t>(kTotalRounds - kCrashRound));
  ASSERT_EQ(cold_trace.size(), restored_trace.size());

  // Final KPIs within tolerance of the uninterrupted run: the restored
  // controller ends on the same caps (only wire quantization in between).
  for (int u = 0; u < kUnits; ++u) {
    const auto s = static_cast<std::size_t>(u);
    EXPECT_NEAR(restored_trace.back()[s], base_caps[s], 1.0) << "unit " << u;
  }

  // Trajectory error vs the uninterrupted run over the post-crash rounds.
  double restored_error = 0.0, cold_error = 0.0;
  for (std::size_t i = 0; i < restored_trace.size(); ++i) {
    const auto& base = base_trace[static_cast<std::size_t>(kCrashRound) + i];
    for (std::size_t u = 0; u < static_cast<std::size_t>(kUnits); ++u) {
      restored_error += std::abs(restored_trace[i][u] - base[u]);
      cold_error += std::abs(cold_trace[i][u] - base[u]);
    }
  }
  // Strictly better than restarting a stateless manager cold under the
  // same fault plan — the whole point of checkpointing a stateful manager.
  EXPECT_LT(restored_error, cold_error);
  // Sanity: the cold restart genuinely pays a re-convergence transient
  // (it walks from the constant allocation back to the learned split), so
  // the comparison above is not vacuous.
  EXPECT_GT(cold_error, 10.0);
}

}  // namespace
}  // namespace dps
