#include "core/checkpoint.hpp"

#include <cstdio>
#include <limits>
#include <stdexcept>

namespace dps {

namespace {

constexpr std::uint8_t kMagic[8] = {'D', 'P', 'S', 'C', 'K', 'P', 'T', '\0'};
constexpr std::uint32_t kFormatVersion = 1;

void write_context(ByteWriter& out, const ManagerContext& ctx) {
  out.i64(ctx.num_units);
  out.f64(ctx.total_budget);
  out.f64(ctx.tdp);
  out.f64(ctx.min_cap);
  out.f64(ctx.dt);
  out.doubles(ctx.unit_tdp);
}

ManagerContext read_context(ByteReader& in) {
  ManagerContext ctx;
  const std::int64_t units = in.i64();
  if (units < 0 || units > std::numeric_limits<int>::max()) {
    throw std::runtime_error("checkpoint context has " +
                             std::to_string(units) + " units");
  }
  ctx.num_units = static_cast<int>(units);
  ctx.total_budget = in.f64();
  ctx.tdp = in.f64();
  ctx.min_cap = in.f64();
  ctx.dt = in.f64();
  ctx.unit_tdp = in.doubles();
  // Managers index unit_tdp by unit (ManagerContext::tdp_of).
  if (!ctx.unit_tdp.empty() &&
      ctx.unit_tdp.size() != static_cast<std::size_t>(ctx.num_units)) {
    throw std::runtime_error("checkpoint context has " +
                             std::to_string(ctx.unit_tdp.size()) +
                             " unit TDPs for " +
                             std::to_string(ctx.num_units) + " units");
  }
  return ctx;
}

}  // namespace

ControlCheckpoint make_checkpoint(const PowerManager& manager,
                                  const ManagerContext& ctx,
                                  std::uint64_t round,
                                  std::span<const Watts> caps,
                                  std::span<const Watts> previous_caps) {
  ControlCheckpoint ckpt;
  ckpt.round = round;
  ckpt.manager_name = std::string(manager.name());
  ckpt.ctx = ctx;
  ckpt.caps.assign(caps.begin(), caps.end());
  ckpt.previous_caps.assign(previous_caps.begin(), previous_caps.end());
  ByteWriter state;
  manager.save_state(state);
  ckpt.manager_state = state.take();
  return ckpt;
}

void restore_manager(PowerManager& manager, const ControlCheckpoint& ckpt) {
  if (manager.name() != ckpt.manager_name) {
    throw std::runtime_error("checkpoint was taken by manager '" +
                             ckpt.manager_name + "', cannot restore '" +
                             std::string(manager.name()) + "'");
  }
  manager.reset(ckpt.ctx);
  ByteReader state(ckpt.manager_state);
  manager.load_state(state);
  if (!state.exhausted()) {
    throw std::runtime_error(
        "checkpoint manager state has trailing bytes (config mismatch?)");
  }
}

std::vector<std::uint8_t> encode_checkpoint(const ControlCheckpoint& ckpt) {
  ByteWriter out;
  out.u64(ckpt.round);
  out.str(ckpt.manager_name);
  write_context(out, ckpt.ctx);
  out.doubles(ckpt.caps);
  out.doubles(ckpt.previous_caps);
  out.blob(ckpt.manager_state);
  return out.take();
}

ControlCheckpoint decode_checkpoint(std::span<const std::uint8_t> payload) {
  ByteReader in(payload);
  ControlCheckpoint ckpt;
  ckpt.round = in.u64();
  ckpt.manager_name = in.str();
  ckpt.ctx = read_context(in);
  ckpt.caps = in.doubles();
  ckpt.previous_caps = in.doubles();
  ckpt.manager_state = in.blob();
  if (!in.exhausted()) {
    throw std::runtime_error("checkpoint payload has trailing bytes");
  }
  return ckpt;
}

void write_checkpoint_file(const std::string& path,
                           const ControlCheckpoint& ckpt) {
  write_framed_file(path, kMagic, kFormatVersion, encode_checkpoint(ckpt));
}

ControlCheckpoint read_checkpoint_file(const std::string& path) {
  return decode_checkpoint(read_framed_file(path, kMagic, kFormatVersion));
}

void write_framed_file(const std::string& path,
                       std::span<const std::uint8_t> magic8,
                       std::uint32_t version,
                       std::span<const std::uint8_t> payload) {
  if (magic8.size() != 8) {
    throw std::runtime_error("framed file magic must be 8 bytes");
  }
  ByteWriter framed;
  for (const std::uint8_t byte : magic8) framed.u8(byte);
  framed.u32(version);
  framed.u32(crc32(payload));
  framed.u64(payload.size());
  const std::vector<std::uint8_t>& header = framed.bytes();

  // Write to a sibling tmp file and rename into place, so a crash mid-write
  // leaves the previous checkpoint intact instead of a torn file.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("cannot open checkpoint tmp file: " + tmp);
  }
  const bool ok =
      std::fwrite(header.data(), 1, header.size(), f) == header.size() &&
      std::fwrite(payload.data(), 1, payload.size(), f) == payload.size() &&
      std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed) {
    std::remove(tmp.c_str());
    throw std::runtime_error("short write to checkpoint tmp file: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot rename checkpoint into place: " + path);
  }
}

std::vector<std::uint8_t> read_framed_file(
    const std::string& path, std::span<const std::uint8_t> magic8,
    std::uint32_t expected_version) {
  if (magic8.size() != 8) {
    throw std::runtime_error("framed file magic must be 8 bytes");
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error("cannot open checkpoint file: " + path);
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[4096];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    throw std::runtime_error("error reading checkpoint file: " + path);
  }

  ByteReader in(bytes);
  std::uint8_t magic[8];
  if (in.remaining() < sizeof(magic)) {
    throw std::runtime_error("checkpoint file too short: " + path);
  }
  for (auto& byte : magic) byte = in.u8();
  for (std::size_t i = 0; i < sizeof(magic); ++i) {
    if (magic[i] != magic8[i]) {
      throw std::runtime_error("bad checkpoint magic: " + path);
    }
  }
  const std::uint32_t version = in.u32();
  if (version != expected_version) {
    throw std::runtime_error("unsupported checkpoint version " +
                             std::to_string(version) + ": " + path);
  }
  const std::uint32_t expected_crc = in.u32();
  const std::uint64_t length = in.u64();
  if (in.remaining() != length) {
    throw std::runtime_error("checkpoint payload truncated: " + path);
  }
  const std::span<const std::uint8_t> payload(bytes.data() + bytes.size() -
                                                  in.remaining(),
                                              in.remaining());
  if (crc32(payload) != expected_crc) {
    throw std::runtime_error("checkpoint CRC mismatch (corrupt file): " +
                             path);
  }
  return std::vector<std::uint8_t>(payload.begin(), payload.end());
}

}  // namespace dps
