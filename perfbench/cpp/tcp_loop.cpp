// tcp_loop: the live control plane of the paper's Section 6.5 deployment.
// ControlServer runs DPS on the calling thread; three NodeClient threads
// connect over loopback and play one simulated socket each, rounds back to
// back (a closed loop: each client reports again only after its reply).

#include <array>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/dps_manager.hpp"
#include "experiments/registry.hpp"
#include "metrics/metrics.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "power/rapl_sim.hpp"
#include "sim/cluster.hpp"
#include "stats.hpp"
#include "traced_dps.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

const SpanName kNetRound("net.round");

constexpr int kClients = 3;
constexpr std::size_t kRoundsPerCell = 1024;
constexpr dps::Watts kBudgetPerSocket = 110.0;
const std::array<const char*, kClients> kNodeWorkloads = {"LR", "Bayes", "MG"};

/// One computing node behind a NodeClient: a single simulated socket and
/// its RAPL. Its power feed is keyed on the unit id the server assigned
/// and on how many reports it has made, never on which thread runs it, so
/// the session's outputs do not depend on the (racy) connection order.
class SimNode {
 public:
  void init(std::uint64_t seed, int unit) {
    unit_ = unit;
    spec_ = dps::workload_by_name(kNodeWorkloads[static_cast<std::size_t>(unit)]);
    std::vector<dps::GroupSpec> group;
    group.emplace_back(spec_, 1, dps::mix_seed(seed, static_cast<std::uint64_t>(unit)));
    cluster_ = std::make_unique<dps::Cluster>(std::move(group));
    dps::RaplSimConfig rapl_config;
    rapl_config.noise_seed = dps::mix_seed(seed, static_cast<std::uint64_t>(unit), 0x7261706cULL);
    rapl_ = std::make_unique<dps::SimulatedRapl>(1, rapl_config);
  }

  /// One second of the node's life under its current cap, then a reading.
  dps::Watts report() {
    rapl_->effective_caps_batch(effective_);
    cluster_->step(1.0, effective_, power_);
    rapl_->record_batch(power_, 1.0);
    rapl_->advance_step();
    rapl_->read_power_batch(measured_);
    return measured_[0];
  }

  void apply(dps::Watts cap) { rapl_->set_cap(0, cap); }

  int unit() const { return unit_; }
  const dps::WorkloadSpec& spec() const { return spec_; }
  const std::vector<dps::Completion>& completions() const { return cluster_->completions(0); }

 private:
  int unit_ = -1;
  dps::WorkloadSpec spec_;
  std::unique_ptr<dps::Cluster> cluster_;
  std::unique_ptr<dps::SimulatedRapl> rapl_;
  std::vector<dps::Watts> effective_ = std::vector<dps::Watts>(1);
  std::vector<dps::Watts> power_ = std::vector<dps::Watts>(1);
  std::vector<dps::Watts> measured_ = std::vector<dps::Watts>(1);
};

/// A live session: the server, its three client threads and their nodes.
/// The destructor shuts the server down and joins every client, also when
/// the session ends by an exception.
class Session {
 public:
  /// Call with the calling thread already pinned: the clients inherit it.
  Session(std::uint64_t seed, dps::PowerManager& manager) : server_(0, kClients) {
    try {
      for (int i = 0; i < kClients; ++i) {
        clients_.emplace_back([this, seed] { client_main(seed); });
      }
      server_.accept_all();
      dps::ManagerContext ctx;
      ctx.num_units = kClients;
      ctx.total_budget = kBudgetPerSocket * kClients;
      server_.begin_session(manager, ctx);
    } catch (...) {
      finish();
      throw;
    }
  }

  ~Session() { finish(); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  dps::ControlServer& server() { return server_; }

  /// Stops the clients and returns the nodes by unit id.
  const std::array<SimNode, kClients>& finish() {
    if (!finished_) {
      finished_ = true;
      server_.shutdown();
      for (auto& t : clients_) t.join();
    }
    return nodes_;
  }

  std::vector<std::string> errors() const {
    std::lock_guard<std::mutex> lock(mu_);
    return errors_;
  }

 private:
  void client_main(std::uint64_t seed) {
    try {
      SimNode node;
      dps::NodeClient client([&node] { return node.report(); },
                             [&node](dps::Watts cap) { node.apply(cap); });
      client.connect(server_.port());
      const int unit = client.unit_id();
      if (unit < 0 || unit >= kClients) throw std::runtime_error("bad unit id");
      node.init(seed, unit);
      client.run();
      std::lock_guard<std::mutex> lock(mu_);
      nodes_[static_cast<std::size_t>(unit)] = std::move(node);
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mu_);
      errors_.push_back(e.what());
    }
  }

  dps::ControlServer server_;
  mutable std::mutex mu_;  // guards nodes_ and errors_
  std::array<SimNode, kClients> nodes_;
  std::vector<std::string> errors_;
  bool finished_ = false;
  std::vector<std::thread> clients_;  // last: joined before the rest dies
};

class TcpLoop final : public Workload {
 public:
  TcpLoop(std::uint64_t seed, Scale scale)
      : seed_(seed),
        rounds_(scale == Scale::kFull ? 16384 : 2000),
        prefix_(scale == Scale::kFull ? 4 : 1),
        cpus_(1),
        baselines_(baseline_params(seed)) {}

  int prefix_units() const override { return prefix_; }
  int threads() const override { return kClients + 1; }
  UnitResult run(int index) override { return session(index, false); }
  UnitResult run_traced(int index) override { return session(index, true); }

  double setup_once() override {
    dps::DpsManager manager;
    cpus_.next();
    const auto start = now_ns();
    Session s(sub_seed(0), manager);
    return seconds_since(start);
  }

 private:
  std::uint64_t sub_seed(int index) const {
    return dps::mix_seed(seed_, static_cast<std::uint64_t>(index % prefix_));
  }

  UnitResult session(int index, bool traced) {
    UnitResult unit;
    dps::DpsManager dps_manager;
    TimedManager timed(dps_manager, kCoreDecide);
    dps::PowerManager& manager =
        traced ? static_cast<dps::PowerManager&>(timed) : dps_manager;
    cpus_.next();  // the session's four threads share one CPU
    auto start = now_ns();
    Session s(sub_seed(index), manager);
    unit.setup_s = seconds_since(start);
    dps::ControlServer& server = s.server();
    unit.round_us.reserve(static_cast<std::size_t>(rounds_));
    int lost = 0;
    start = now_ns();
    {
      ScopedSpan envelope(kUnitSpan);
      for (int r = 0; r < rounds_; ++r) {
        const auto round_start = now_ns();
        {
          ScopedSpan round(kNetRound);
          server.run_round(manager);
        }
        unit.round_us.push_back(static_cast<double>(now_ns() - round_start) * 1e-3);
        const auto& power = server.last_power();
        for (const double p : power) {
          if (p == 0.0) ++unit.counts.deadline_misses;
        }
        if (server.alive_count() < kClients) {
          lost = kClients - server.alive_count();
          break;
        }
      }
    }
    unit.body_s = seconds_since(start);
    unit.cell_ms = window_ms(unit.round_us, kRoundsPerCell);
    const std::int64_t rounds = static_cast<std::int64_t>(unit.round_us.size());
    unit.counts.steps = rounds;
    unit.counts.unit_steps = rounds * kClients;
    unit.counts.set_cap_messages = static_cast<std::int64_t>(server.set_cap_messages());
    unit.counts.keep_cap_messages = static_cast<std::int64_t>(server.keep_cap_messages());
    const std::vector<dps::Watts> final_caps = server.last_caps();
    const auto& nodes = s.finish();
    for (const auto& e : s.errors()) unit.problems.push_back("client: " + e);

    Digest d;
    d.add(rounds);
    for (const double c : final_caps) d.add(c);
    d.add(unit.counts.set_cap_messages);
    d.add(unit.counts.keep_cap_messages);
    for (const SimNode& node : nodes) {
      if (node.unit() < 0) continue;
      std::vector<double> latencies;
      for (const auto& c : node.completions()) {
        d.add(c.start);
        d.add(c.end);
        latencies.push_back(c.latency());
        add_run(unit.sim, node.spec(), c.latency());
      }
      unit.sim.runs_completed += static_cast<std::int64_t>(latencies.size());
      if (!latencies.empty()) {
        unit.sim.inv_speedup_sum +=
            dps::hmean_latency(latencies) / baseline_hmean(baselines_, node.spec());
        ++unit.sim.speedup_count;
      }
    }
    unit.digest = d.value();
    unit.item_digests.push_back(unit.digest);
    // Units scored 0 W at the round deadline and lost connections are
    // failed operations; so is a session cut short or a client error.
    unit.attempted = static_cast<int>(rounds_) * kClients;
    unit.failed_items = static_cast<int>(unit.counts.deadline_misses) + lost +
                        static_cast<int>(s.errors().size());
    if (rounds != rounds_) unit.problems.push_back("session ended early");
    if (unit.counts.deadline_misses > 0) unit.problems.push_back("round deadline missed");
    return unit;
  }

  std::uint64_t seed_;
  int rounds_;
  int prefix_;
  CpuRotation cpus_;
  dps::PairRunner baselines_;
};

}  // namespace

std::unique_ptr<Workload> make_tcp_loop(std::uint64_t seed, Scale scale) {
  return std::make_unique<TcpLoop>(seed, scale);
}

}  // namespace perfbench
