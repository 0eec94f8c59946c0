#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "core/config_io.hpp"
#include "ctrl/ctrl_config.hpp"
#include "faults/fault_config.hpp"
#include "net/net_config.hpp"
#include "obs/obs_config.hpp"
#include "sched/sched_config.hpp"
#include "thermal/thermal_config.hpp"
#include "util/config_table.hpp"
#include "util/ini.hpp"

namespace dps {
namespace {

TEST(Ini, ParsesSectionsKeysAndComments) {
  const auto ini = IniFile::parse(
      "# leading comment\n"
      "top = 1\n"
      "[dps]\n"
      "history_length = 30   ; trailing comment\n"
      "\n"
      "use_restore = false\n"
      "[stateless]\n"
      "inc_percentile = 1.25\n");
  EXPECT_EQ(ini.get("", "top"), "1");
  EXPECT_EQ(parse_integer<long>(*ini.get("dps", "history_length")), 30);
  EXPECT_EQ(parse_bool(*ini.get("dps", "use_restore")), false);
  EXPECT_DOUBLE_EQ(*parse_double(*ini.get("stateless", "inc_percentile")),
                   1.25);
  EXPECT_TRUE(ini.has_section("dps"));
  EXPECT_FALSE(ini.has_section("nope"));
}

TEST(Ini, MissingKeysReturnNullopt) {
  const auto ini = IniFile::parse("[a]\nx = 1\n");
  EXPECT_FALSE(ini.get("a", "y").has_value());
  EXPECT_FALSE(ini.get("b", "x").has_value());
}

TEST(Ini, UnparsableValuesReturnNullopt) {
  const auto ini = IniFile::parse("[a]\nx = hello\nb = maybe\n");
  EXPECT_FALSE(parse_integer<long>(*ini.get("a", "x")).has_value());
  EXPECT_FALSE(parse_double(*ini.get("a", "x")).has_value());
  EXPECT_FALSE(parse_bool(*ini.get("a", "b")).has_value());
  EXPECT_EQ(ini.get("a", "x"), "hello");
}

TEST(Ini, BoolSpellings) {
  const auto ini = IniFile::parse(
      "a = true\nb = YES\nc = on\nd = 1\ne = False\nf = off\n");
  EXPECT_EQ(parse_bool(*ini.get("", "a")), true);
  EXPECT_EQ(parse_bool(*ini.get("", "b")), true);
  EXPECT_EQ(parse_bool(*ini.get("", "c")), true);
  EXPECT_EQ(parse_bool(*ini.get("", "d")), true);
  EXPECT_EQ(parse_bool(*ini.get("", "e")), false);
  EXPECT_EQ(parse_bool(*ini.get("", "f")), false);
}

TEST(Ini, MalformedLinesThrow) {
  EXPECT_THROW(IniFile::parse("[unterminated\n"), std::runtime_error);
  EXPECT_THROW(IniFile::parse("no equals sign\n"), std::runtime_error);
  EXPECT_THROW(IniFile::parse("= value without key\n"), std::runtime_error);
}

TEST(Ini, LoadMissingFileThrows) {
  EXPECT_THROW(IniFile::load("/no/such/config.ini"), std::runtime_error);
}

TEST(ConfigIo, DefaultsWhenEmpty) {
  const auto config = dps_config_from_ini(IniFile::parse(""));
  const DpsConfig defaults;
  EXPECT_EQ(config.history_length, defaults.history_length);
  EXPECT_DOUBLE_EQ(config.deriv_inc_threshold, defaults.deriv_inc_threshold);
  EXPECT_EQ(config.use_restore, defaults.use_restore);
  EXPECT_DOUBLE_EQ(config.mimd.inc_percentile, defaults.mimd.inc_percentile);
}

TEST(ConfigIo, OverridesListedKeysOnly) {
  const auto config = dps_config_from_ini(IniFile::parse(
      "[dps]\n"
      "history_length = 40\n"
      "deriv_inc_threshold = 3.5\n"
      "use_kalman_filter = false\n"
      "[stateless]\n"
      "dec_percentile = 0.9\n"));
  EXPECT_EQ(config.history_length, 40u);
  EXPECT_DOUBLE_EQ(config.deriv_inc_threshold, 3.5);
  EXPECT_FALSE(config.use_kalman_filter);
  EXPECT_DOUBLE_EQ(config.mimd.dec_percentile, 0.9);
  // Untouched keys keep defaults.
  const DpsConfig defaults;
  EXPECT_DOUBLE_EQ(config.std_threshold, defaults.std_threshold);
  EXPECT_DOUBLE_EQ(config.mimd.inc_threshold, defaults.mimd.inc_threshold);
}

TEST(ConfigIo, FromFileRoundTrip) {
  const std::string path = testing::TempDir() + "/dps_config.ini";
  {
    std::ofstream out(path);
    out << "[dps]\npeak_count_threshold = 5\nrestore_threshold = 0.9\n";
  }
  const auto config = dps_config_from_file(path);
  EXPECT_EQ(config.peak_count_threshold, 5u);
  EXPECT_DOUBLE_EQ(config.restore_threshold, 0.9);
}

TEST(ConfigIo, ShippedDefaultConfigMatchesBuiltInDefaults) {
  // configs/dps.ini documents the paper defaults; loading it must change
  // nothing. Keeps the sample file honest as code defaults evolve.
  const auto config = dps_config_from_file(std::string(DPS_SOURCE_DIR) +
                                           "/configs/dps.ini");
  const DpsConfig defaults;
  EXPECT_EQ(config.history_length, defaults.history_length);
  EXPECT_DOUBLE_EQ(config.kf_process_variance, defaults.kf_process_variance);
  EXPECT_DOUBLE_EQ(config.kf_measurement_variance,
                   defaults.kf_measurement_variance);
  EXPECT_DOUBLE_EQ(config.peak_prominence, defaults.peak_prominence);
  EXPECT_EQ(config.peak_count_threshold, defaults.peak_count_threshold);
  EXPECT_DOUBLE_EQ(config.std_threshold, defaults.std_threshold);
  EXPECT_DOUBLE_EQ(config.deriv_inc_threshold, defaults.deriv_inc_threshold);
  EXPECT_DOUBLE_EQ(config.deriv_dec_threshold, defaults.deriv_dec_threshold);
  EXPECT_EQ(config.deriv_length, defaults.deriv_length);
  EXPECT_DOUBLE_EQ(config.idle_demote_fraction,
                   defaults.idle_demote_fraction);
  EXPECT_EQ(config.idle_demote_steps, defaults.idle_demote_steps);
  EXPECT_DOUBLE_EQ(config.restore_threshold, defaults.restore_threshold);
  EXPECT_EQ(config.use_kalman_filter, defaults.use_kalman_filter);
  EXPECT_EQ(config.use_priority_module, defaults.use_priority_module);
  EXPECT_EQ(config.use_restore, defaults.use_restore);
  EXPECT_EQ(config.favor_low_caps, defaults.favor_low_caps);
  EXPECT_DOUBLE_EQ(config.mimd.inc_threshold, defaults.mimd.inc_threshold);
  EXPECT_DOUBLE_EQ(config.mimd.dec_threshold, defaults.mimd.dec_threshold);
  EXPECT_DOUBLE_EQ(config.mimd.inc_percentile, defaults.mimd.inc_percentile);
  EXPECT_DOUBLE_EQ(config.mimd.dec_percentile, defaults.mimd.dec_percentile);
  EXPECT_DOUBLE_EQ(config.mimd.dec_floor_margin,
                   defaults.mimd.dec_floor_margin);
  EXPECT_EQ(config.mimd.decision_interval_steps,
            defaults.mimd.decision_interval_steps);
  EXPECT_EQ(config.mimd.dec_window_steps, defaults.mimd.dec_window_steps);
}

TEST(ConfigIo, NoisySensorVariantLoadsCleanly) {
  const auto config = dps_config_from_file(
      std::string(DPS_SOURCE_DIR) + "/configs/dps_noisy_sensors.ini");
  EXPECT_DOUBLE_EQ(config.kf_measurement_variance, 25.0);
  EXPECT_DOUBLE_EQ(config.deriv_dec_threshold, -6.0);
  // Keys the variant does not set keep their defaults.
  EXPECT_EQ(config.history_length, DpsConfig{}.history_length);
}

TEST(ConfigIo, MimdBaseIsPreserved) {
  const auto base = slurm_plugin_defaults();
  const auto config = mimd_config_from_ini(
      IniFile::parse("[stateless]\ninc_percentile = 1.3\n"), base);
  EXPECT_DOUBLE_EQ(config.inc_percentile, 1.3);
  EXPECT_EQ(config.dec_window_steps, base.dec_window_steps);
  EXPECT_DOUBLE_EQ(config.dec_percentile, base.dec_percentile);
}

// --- [net] section (src/net/net_config) ---

TEST(NetConfig, DefaultsWhenEmpty) {
  const auto config = net_config_from_ini(IniFile::parse(""));
  const dps::NetConfig defaults;
  EXPECT_DOUBLE_EQ(config.round_deadline_s, defaults.round_deadline_s);
  EXPECT_DOUBLE_EQ(config.reconnect_base_backoff_s,
                   defaults.reconnect_base_backoff_s);
  EXPECT_DOUBLE_EQ(config.reconnect_max_backoff_s,
                   defaults.reconnect_max_backoff_s);
  EXPECT_EQ(config.reconnect_max_attempts, defaults.reconnect_max_attempts);
  EXPECT_DOUBLE_EQ(config.failsafe_cap_w, defaults.failsafe_cap_w);
  EXPECT_EQ(config.checkpoint_path, defaults.checkpoint_path);
  EXPECT_EQ(config.checkpoint_interval_rounds,
            defaults.checkpoint_interval_rounds);
}

TEST(NetConfig, RoundTripOverridesEveryKey) {
  const auto config = net_config_from_ini(IniFile::parse(
      "[net]\n"
      "round_deadline_s = 2.5\n"
      "reconnect_base_backoff_s = 0.1\n"
      "reconnect_max_backoff_s = 4.0\n"
      "reconnect_max_attempts = 7\n"
      "failsafe_cap_w = 55.0\n"
      "checkpoint_path = /tmp/dps.ckpt\n"
      "checkpoint_interval_rounds = 12\n"));
  EXPECT_DOUBLE_EQ(config.round_deadline_s, 2.5);
  EXPECT_DOUBLE_EQ(config.reconnect_base_backoff_s, 0.1);
  EXPECT_DOUBLE_EQ(config.reconnect_max_backoff_s, 4.0);
  EXPECT_EQ(config.reconnect_max_attempts, 7);
  EXPECT_DOUBLE_EQ(config.failsafe_cap_w, 55.0);
  EXPECT_EQ(config.checkpoint_path, "/tmp/dps.ckpt");
  EXPECT_EQ(config.checkpoint_interval_rounds, 12u);
}

TEST(NetConfig, ShippedIniMatchesBuiltInDefaults) {
  const auto config = net_config_from_file(std::string(DPS_SOURCE_DIR) +
                                           "/configs/dps.ini");
  const dps::NetConfig defaults;
  EXPECT_DOUBLE_EQ(config.round_deadline_s, defaults.round_deadline_s);
  EXPECT_DOUBLE_EQ(config.reconnect_base_backoff_s,
                   defaults.reconnect_base_backoff_s);
  EXPECT_DOUBLE_EQ(config.reconnect_max_backoff_s,
                   defaults.reconnect_max_backoff_s);
  EXPECT_EQ(config.reconnect_max_attempts, defaults.reconnect_max_attempts);
  EXPECT_DOUBLE_EQ(config.failsafe_cap_w, defaults.failsafe_cap_w);
  EXPECT_EQ(config.checkpoint_path, defaults.checkpoint_path);
  EXPECT_EQ(config.checkpoint_interval_rounds,
            defaults.checkpoint_interval_rounds);
}

TEST(NetConfig, RejectsInvalidValues) {
  EXPECT_THROW(net_config_from_ini(IniFile::parse(
                   "[net]\nround_deadline_s = -1\n")),
               std::invalid_argument);
  EXPECT_THROW(net_config_from_ini(IniFile::parse(
                   "[net]\nreconnect_base_backoff_s = 0\n")),
               std::invalid_argument);
  EXPECT_THROW(net_config_from_ini(IniFile::parse(
                   "[net]\n"
                   "reconnect_base_backoff_s = 2.0\n"
                   "reconnect_max_backoff_s = 1.0\n")),
               std::invalid_argument);
  EXPECT_THROW(net_config_from_ini(IniFile::parse(
                   "[net]\nreconnect_max_attempts = 0\n")),
               std::invalid_argument);
  EXPECT_THROW(net_config_from_ini(IniFile::parse(
                   "[net]\nfailsafe_cap_w = -5\n")),
               std::invalid_argument);
  EXPECT_THROW(net_config_from_ini(IniFile::parse(
                   "[net]\ncheckpoint_interval_rounds = 0\n")),
               std::invalid_argument);
}

// --- [sched] section (src/sched/sched_config) ---

TEST(SchedConfig, ShippedIniMatchesBuiltInDefaults) {
  // Shipped values must equal the code defaults; a drift means either the
  // docs/config or JobScheduleConfig changed without the other.
  const auto config = sched::sched_config_from_file(
      std::string(DPS_SOURCE_DIR) + "/configs/dps.ini");
  const sched::JobScheduleConfig defaults;
  EXPECT_EQ(config.policy, defaults.policy);
  EXPECT_EQ(config.seed, defaults.seed);
  EXPECT_DOUBLE_EQ(config.arrival_rate_per_1000s,
                   defaults.arrival_rate_per_1000s);
  EXPECT_EQ(config.job_count, defaults.job_count);
  EXPECT_EQ(config.min_units, defaults.min_units);
  EXPECT_EQ(config.max_units, defaults.max_units);
  EXPECT_EQ(config.workload_mix, defaults.workload_mix);
  EXPECT_TRUE(config.trace.empty());
  EXPECT_EQ(config.retry_cap, defaults.retry_cap);
  EXPECT_DOUBLE_EQ(config.slowdown_bound, defaults.slowdown_bound);
  EXPECT_DOUBLE_EQ(config.walltime_factor, defaults.walltime_factor);
  EXPECT_DOUBLE_EQ(config.power.fit_fraction, defaults.power.fit_fraction);
  EXPECT_DOUBLE_EQ(config.power.min_shrink_fraction,
                   defaults.power.min_shrink_fraction);
}

TEST(SchedConfig, RoundTripOverridesEveryKey) {
  const auto config = sched::sched_config_from_ini(IniFile::parse(
      "[sched]\n"
      "policy = backfill\n"
      "seed = 99\n"
      "arrival_rate = 12.5\n"
      "job_count = 17\n"
      "min_units = 1\n"
      "max_units = 4\n"
      "workload_mix = LDA, EP ,Sort\n"
      "retry_cap = 5\n"
      "slowdown_bound = 20\n"
      "walltime_factor = 2.0\n"
      "power_fit_fraction = 0.8\n"
      "min_shrink_fraction = 0.25\n"));
  EXPECT_EQ(config.policy, sched::SchedPolicy::kEasyBackfill);
  EXPECT_EQ(config.seed, 99u);
  EXPECT_DOUBLE_EQ(config.arrival_rate_per_1000s, 12.5);
  EXPECT_EQ(config.job_count, 17);
  EXPECT_EQ(config.min_units, 1);
  EXPECT_EQ(config.max_units, 4);
  EXPECT_EQ(config.workload_mix,
            (std::vector<std::string>{"LDA", "EP", "Sort"}));
  EXPECT_EQ(config.retry_cap, 5);
  EXPECT_DOUBLE_EQ(config.slowdown_bound, 20.0);
  EXPECT_DOUBLE_EQ(config.walltime_factor, 2.0);
  EXPECT_DOUBLE_EQ(config.power.fit_fraction, 0.8);
  EXPECT_DOUBLE_EQ(config.power.min_shrink_fraction, 0.25);
}

TEST(SchedConfig, UnsetKeysKeepDefaults) {
  const auto config = sched::sched_config_from_ini(
      IniFile::parse("[sched]\npolicy = power\n"));
  EXPECT_EQ(config.policy, sched::SchedPolicy::kPowerAware);
  EXPECT_EQ(config.job_count, sched::JobScheduleConfig{}.job_count);
}

TEST(SchedConfig, RejectsInvalidValues) {
  using sched::sched_config_from_ini;
  EXPECT_THROW(sched_config_from_ini(IniFile::parse("[sched]\npolicy = x\n")),
               std::invalid_argument);
  EXPECT_THROW(sched_config_from_ini(IniFile::parse(
                   "[sched]\nmin_units = 6\nmax_units = 2\n")),
               std::invalid_argument);
  EXPECT_THROW(sched_config_from_ini(IniFile::parse(
                   "[sched]\narrival_rate = 0\n")),
               std::invalid_argument);
  EXPECT_THROW(sched_config_from_ini(IniFile::parse(
                   "[sched]\nmin_shrink_fraction = 1.5\n")),
               std::invalid_argument);
  EXPECT_THROW(sched_config_from_ini(IniFile::parse(
                   "[sched]\nworkload_mix = ,\n")),
               std::invalid_argument);
}

// --- One field table per section (util/config_table) ---

const std::string kShippedDir = std::string(DPS_SOURCE_DIR) + "/configs/";

/// Every section reader over one INI.
void read_every_section(const IniFile& ini) {
  dps_config_from_ini(ini);
  mimd_config_from_ini(ini, MimdConfig{});
  ctrl_config_from_ini(ini);
  fault_plan_config_from_ini(ini);
  net_config_from_ini(ini);
  obs::obs_config_from_ini(ini);
  sched::sched_config_from_ini(ini);
  thermal_config_from_ini(ini);
}

TEST(ConfigTable, MalformedValuesCiteSectionKeyAndLine) {
  struct Case {
    const char* ini;
    const char* prefix;  // "[section]: key"
    int line;
  };
  const Case cases[] = {
      {"[dps]\nhistory_length = -1\n", "[dps]: history_length", 2},
      {"[dps]\nhistory_length = 20\npeak_count_threshold = -1\n",
       "[dps]: peak_count_threshold", 3},
      {"[dps]\nuse_restore = maybe\n", "[dps]: use_restore", 2},
      {"[stateless]\ndec_window_steps = 2.5\n", "[stateless]: dec_window_steps",
       2},
      {"[ctrl]\nshard_size = 4294967297\n", "[ctrl]: shard_size", 2},
      {"[ctrl]\nshard_size = 1.5\n", "[ctrl]: shard_size", 2},
      {"[ctrl]\nparent_port = 70000\n", "[ctrl]: parent_port", 2},
      {"[faults]\ncrash_rate = abc\n", "[faults]: crash_rate", 2},
      {"[faults]\n; drills\nseed = -1\n", "[faults]: seed", 3},
      {"[faults]\ncrash_rate = nan\n", "[faults]: crash_rate", 2},
      {"[faults]\nmin_duration = 50\nmax_duration = 40\n",
       "[faults]: max_duration", 3},
      {"[net]\nround_deadline_s = nan\n", "[net]: round_deadline_s", 2},
      {"[net]\nreconnect_max_attempts = 1e3\n",
       "[net]: reconnect_max_attempts", 2},
      {"[obs]\nenabled = maybe\n", "[obs]: enabled", 2},
      {"[sched]\njob_count = 4294967297\n", "[sched]: job_count", 2},
      {"[sched]\narrival_rate = nan\n", "[sched]: arrival_rate", 2},
      {"[sched]\npolicy = lottery\n", "[sched]: policy", 2},
      {"[thermal]\nenabled = nah\n", "[thermal]: enabled", 2},
      {"[thermal]\ntrip = nan\n", "[thermal]: trip", 2},
      {"[thermal]\njitter = x\n", "[thermal]: jitter", 2},
      // A broken cross-field rule cites its other key when only that one
      // appears.
      {"[thermal]\nambient = 30\nclear = 99\n", "[thermal]: trip", 3},
  };
  for (const Case& c : cases) {
    try {
      read_every_section(IniFile::parse(c.ini));
      ADD_FAILURE() << "accepted:\n" << c.ini;
    } catch (const std::invalid_argument& error) {
      const std::string what = error.what();
      EXPECT_EQ(what.rfind(c.prefix, 0), 0u) << what;
      EXPECT_TRUE(what.ends_with(" at line " + std::to_string(c.line)))
          << what;
    }
  }
}

TEST(ConfigTable, CodeBuiltConfigsMeetTheSameRules) {
  NetConfig net;
  net.round_deadline_s = std::nan("");
  EXPECT_THROW(check_section(net_section(), net), std::invalid_argument);

  ThermalConfig thermal;
  thermal.clear_c = thermal.trip_c;
  try {
    check_section(thermal_section(), thermal);
    FAIL() << "trip == clear accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "[thermal]: trip must be > clear");
  }

  FaultPlanConfig faults;
  faults.crash_rate = -1.0;
  EXPECT_THROW(FaultPlan::generate(faults, 4), std::invalid_argument);
}

template <class C>
void expect_every_key(const IniFile& ini, const Section<C>& section) {
  for (const auto& field : section.fields) {
    EXPECT_TRUE(ini.get(section.name, field.key).has_value())
        << "[" << section.name << "] " << field.key
        << " missing from configs/dps.ini";
  }
}

TEST(ConfigTable, ShippedIniListsEveryKeyOfEveryTable) {
  const auto ini = IniFile::load(kShippedDir + "dps.ini");
  expect_every_key(ini, dps_section());
  expect_every_key(ini, stateless_section());
  expect_every_key(ini, ctrl_section());
  expect_every_key(ini, faults_section());
  expect_every_key(ini, net_section());
  expect_every_key(ini, obs::obs_section());
  expect_every_key(ini, sched::sched_section());
  expect_every_key(ini, thermal_section());
}

TEST(ConfigTable, ShippedInisLoadThroughEveryReader) {
  for (const char* name : {"dps.ini", "dps_noisy_sensors.ini"}) {
    EXPECT_NO_THROW(read_every_section(IniFile::load(kShippedDir + name)))
        << name;
  }
}

}  // namespace
}  // namespace dps
