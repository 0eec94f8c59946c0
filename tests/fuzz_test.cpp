/// Fuzz-style robustness tests: the parsers and codecs must never crash or
/// corrupt state on arbitrary input — they either succeed or throw.
///
/// The buffer-driven tests go through the shared drivers in
/// fuzz_drivers.hpp — the same code libFuzzer runs when the fuzz_libfuzzer
/// target is built (-DDPS_LIBFUZZER=ON) — so this always-built gtest
/// harness is the guaranteed-coverage fallback.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fuzz_drivers.hpp"
#include "net/protocol.hpp"
#include "util/bytes.hpp"
#include "util/csv_reader.hpp"
#include "util/ini.hpp"
#include "util/rng.hpp"

namespace dps {
namespace {

std::string random_text(Rng& rng, std::size_t length,
                        const std::string& alphabet) {
  std::string text;
  text.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    text += alphabet[rng.uniform_int(alphabet.size())];
  }
  return text;
}

class FuzzSeeds : public testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, ProtocolDecodeTotalOnRandomBytes) {
  Rng rng(GetParam());
  for (int i = 0; i < 20000; ++i) {
    WireBytes bytes = {static_cast<std::uint8_t>(rng.uniform_int(256)),
                       static_cast<std::uint8_t>(rng.uniform_int(256)),
                       static_cast<std::uint8_t>(rng.uniform_int(256))};
    const auto message = decode(bytes);
    if (message && message->type == MessageType::kHello) {
      // Hello payloads are version/unit, not deciwatts: the handshake
      // codec must round-trip them exactly, for any payload bytes.
      const auto hello = decode_hello(bytes);
      ASSERT_TRUE(hello.has_value());
      const auto round = encode_hello(*hello);
      EXPECT_EQ(round[0], bytes[0]);
      EXPECT_EQ(round[1], bytes[1]);
      EXPECT_EQ(round[2], bytes[2]);
    } else if (message) {
      // Whatever decodes must re-encode to the same bytes (value within
      // codec range by construction).
      const auto round = encode(*message);
      EXPECT_EQ(round[0], bytes[0]);
      EXPECT_EQ(round[1], bytes[1]);
      EXPECT_EQ(round[2], bytes[2]);
    }
  }
}

TEST_P(FuzzSeeds, IniParseNeverCrashes) {
  Rng rng(GetParam() ^ 0x1111ULL);
  const std::string alphabet = "abz019 \t[]=#;\n\"'-._";
  for (int i = 0; i < 300; ++i) {
    const auto text = random_text(rng, rng.uniform_int(400), alphabet);
    try {
      const auto ini = IniFile::parse(text);
      (void)ini.get("a", "b");
      if (const auto x = ini.get("", "x")) (void)parse_double(*x);
      (void)ini.has_section("s");
    } catch (const std::runtime_error&) {
      // Throwing on malformed text is the contract.
    }
  }
}

TEST_P(FuzzSeeds, CsvParseNeverCrashes) {
  Rng rng(GetParam() ^ 0x2222ULL);
  const std::string alphabet = "ab,\"\n\r01.-x";
  for (int i = 0; i < 300; ++i) {
    const auto text = random_text(rng, rng.uniform_int(400), alphabet);
    try {
      const auto csv = CsvReader::parse(text);
      for (std::size_t r = 0; r < csv.num_rows(); ++r) {
        (void)csv.cell(r, std::string("a"));
        if (const auto b = csv.column_index("b")) {
          try {
            (void)csv.real(r, *b);
          } catch (const std::runtime_error&) {
            // An unparsable cell throws, naming its line.
          }
        }
      }
    } catch (const std::runtime_error&) {
      // Unterminated quotes throw; everything else must parse.
    }
  }
}

TEST_P(FuzzSeeds, WellFormedCsvAlwaysParses) {
  // Text without quote characters can never be malformed CSV.
  Rng rng(GetParam() ^ 0x3333ULL);
  const std::string alphabet = "abc,\n01";
  for (int i = 0; i < 300; ++i) {
    const auto text = random_text(rng, rng.uniform_int(300), alphabet);
    EXPECT_NO_THROW(CsvReader::parse(text));
  }
}

TEST_P(FuzzSeeds, SharedDriversTotalOnRandomBuffers) {
  // Random byte buffers through the exact entry points the libFuzzer
  // harness dispatches to.
  Rng rng(GetParam() ^ 0x4444ULL);
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint8_t> buffer(rng.uniform_int(300));
    for (auto& byte : buffer) {
      byte = static_cast<std::uint8_t>(rng.uniform_int(256));
    }
    EXPECT_TRUE(fuzz::drive_protocol(buffer.data(), buffer.size()));
    fuzz::drive_ini(buffer.data(), buffer.size());
    fuzz::drive_csv(buffer.data(), buffer.size());
    fuzz::drive_events_csv(buffer.data(), buffer.size());
    fuzz::drive_trace_csv(buffer.data(), buffer.size());
    EXPECT_TRUE(fuzz::drive_job_trace(buffer.data(), buffer.size()));
    fuzz::drive_power_trace(buffer.data(), buffer.size());
    EXPECT_TRUE(fuzz::drive_checkpoint(buffer.data(), buffer.size()));
    EXPECT_TRUE(
        fuzz::drive_aggregator_checkpoint(buffer.data(), buffer.size()));
    fuzz::drive_restore(buffer.data(), buffer.size());
  }
}

/// Rows of cells drawn from numbers, near-numbers and junk, behind the
/// header `head`: random bytes seldom get past a reader's header, these
/// reach its row rules. Some rows are blank, some comments, some quoted.
std::string csv_like_text(Rng& rng, const std::string& head) {
  static const char* const kCells[] = {
      "0",    "1",    "2",    "3",     "-1",         "2.7",   "1e10",
      "nan",  "inf",  "",     " 4 ",   "x",          "\"5\"", "1e400",
      "-0",   "+5",   "0x10", "12abc", "2147483648", "100",   "0.5",
      "LR",   "# c",  "; c",  "arrival_time"};
  std::string text = head;
  const std::size_t rows = rng.uniform_int(12);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t fields = rng.uniform_int(8);
    for (std::size_t f = 0; f < fields; ++f) {
      if (f > 0) text += ',';
      text += kCells[rng.uniform_int(std::size(kCells))];
    }
    text += rng.uniform_int(8) == 0 ? "\r\n" : "\n";
  }
  return text;
}

TEST_P(FuzzSeeds, ReaderDriversHoldOnCsvLikeText) {
  Rng rng(GetParam() ^ 0x8888ULL);
  const auto drive = [](const std::string& text, auto driver) {
    return driver(reinterpret_cast<const std::uint8_t*>(text.data()),
                  text.size());
  };
  for (int i = 0; i < 300; ++i) {
    const bool header = rng.uniform_int(4) != 0;
    drive(csv_like_text(rng, header ? "time,kind,unit,value,extra,detail\n"
                                    : ""),
          fuzz::drive_events_csv);
    drive(csv_like_text(rng, header ? "time,unit,true_power,measured_power,"
                                      "cap,demand,priority\n"
                                    : ""),
          fuzz::drive_trace_csv);
    EXPECT_TRUE(drive(csv_like_text(rng, ""), fuzz::drive_job_trace));
    drive(csv_like_text(rng, header ? "time_s,power_w\n" : ""),
          fuzz::drive_power_trace);
  }
}

/// `bytes` with `value` written little-endian at `offset`.
std::vector<std::uint8_t> with_u64(std::vector<std::uint8_t> bytes,
                                   std::size_t offset, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) bytes[offset + i] = (value >> (8 * i)) & 0xff;
  return bytes;
}

TEST_P(FuzzSeeds, CheckpointDriversHoldOnMutatedEncodings) {
  // From a valid encoding of each manager's state: a hostile count in
  // every 8-byte window (so each length field gets each count, 2^61 + 1
  // among them, which wraps a count of doubles times 8 to 8, and every
  // stored int gets 2^32 + 5, which narrows to 5), then random byte flips.
  // Each "DPSCKPT" payload also travels inside a "DPSAGGR" one.
  Rng rng(GetParam() ^ 0x9999ULL);
  const auto drive_all = [](const std::vector<std::uint8_t>& bytes) {
    const std::uint8_t* payload = bytes.data() + 1;
    const std::size_t size = bytes.size() - 1;
    EXPECT_TRUE(fuzz::drive_checkpoint(payload, size));
    ByteWriter aggregator;
    aggregator.i64(2);
    aggregator.blob({payload, size});
    EXPECT_TRUE(fuzz::drive_aggregator_checkpoint(aggregator.bytes().data(),
                                                  aggregator.size()));
    fuzz::drive_restore(bytes.data(), bytes.size());
  };
  for (std::uint8_t kind = 0; kind < fuzz::kRestoreManagers; ++kind) {
    const auto seed = fuzz::restore_seed(kind);
    drive_all(seed);
    const std::uint64_t count = GetParam() == 42u ? (1ULL << 61) + 1
                                : GetParam() == 4242u
                                    ? ~0ULL
                                    : fuzz::kRestoreUnits + 1;
    for (std::size_t at = 1; at + 8 <= seed.size(); ++at) {
      drive_all(with_u64(seed, at, count));
      drive_all(with_u64(seed, at, (1ULL << 32) + 5));
    }
    for (int i = 0; i < 300; ++i) {
      auto bytes = seed;
      for (std::size_t flips = 1 + rng.uniform_int(4); flips > 0; --flips) {
        bytes[1 + rng.uniform_int(bytes.size() - 1)] =
            static_cast<std::uint8_t>(rng.uniform_int(256));
      }
      drive_all(bytes);
    }
  }
}

TEST_P(FuzzSeeds, FaultPlanDriverInvariantsHold) {
  // Arbitrary bytes -> generator knobs + hostile raw event lists; the
  // driver checks validation, sortedness, and that a full injector walk
  // activates every event and leaves nothing stuck (see fuzz_drivers.hpp).
  Rng rng(GetParam() ^ 0x5555ULL);
  for (int i = 0; i < 100; ++i) {
    std::vector<std::uint8_t> buffer(rng.uniform_int(200));
    for (auto& byte : buffer) {
      byte = static_cast<std::uint8_t>(rng.uniform_int(256));
    }
    EXPECT_TRUE(fuzz::drive_fault_plan(buffer.data(), buffer.size()));
  }
}

TEST_P(FuzzSeeds, ConfigSectionDriverInvariantsHold) {
  // Arbitrary bytes -> hostile values (garbage, negative, zero, NaN, +-inf,
  // INT_MAX + 1) for the keys of every config table; the driver checks
  // that each section either parses and round-trips bit for bit through
  // write_section, or throws a "[section]: "-prefixed invalid_argument
  // (see fuzz_drivers.hpp).
  Rng rng(GetParam() ^ 0x6666ULL);
  for (int i = 0; i < 300; ++i) {
    std::vector<std::uint8_t> buffer(1 + rng.uniform_int(64));
    for (auto& byte : buffer) {
      byte = static_cast<std::uint8_t>(rng.uniform_int(256));
    }
    for (std::uint8_t section = 0; section < fuzz::kConfigSections;
         ++section) {
      buffer[0] = section;
      EXPECT_TRUE(fuzz::drive_config_section(buffer.data(), buffer.size()))
          << "section " << int(section) << ", buffer " << i;
    }
  }
}

TEST_P(FuzzSeeds, CommandLineParserInvariantsHold) {
  // Arbitrary bytes -> argv of the shared sections' flags and a test-local
  // options table, each flag with a hostile value, no value, or none at the
  // end of argv; drive_command_line checks that every config read from the
  // flags passes check_section, or that the error names a flag (see
  // fuzz_drivers.hpp).
  Rng rng(GetParam() ^ 0x7777ULL);
  for (int i = 0; i < 500; ++i) {
    std::vector<std::uint8_t> buffer(rng.uniform_int(48));
    for (auto& byte : buffer) {
      byte = static_cast<std::uint8_t>(rng.uniform_int(256));
    }
    EXPECT_TRUE(fuzz::drive_command_line(buffer.data(), buffer.size()))
        << "buffer " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         testing::Values(42u, 4242u, 424242u));

}  // namespace
}  // namespace dps
