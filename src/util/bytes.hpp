#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dps {

/// Little-endian binary writer for checkpoint payloads. All multi-byte
/// integers are written least-significant byte first regardless of host
/// endianness, and doubles travel as their IEEE-754 bit pattern, so a
/// snapshot taken on one machine restores bit-identically on another.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s);

  void doubles(std::span<const double> values);
  void bools(const std::vector<bool>& values);
  void ints(std::span<const int> values);
  /// Length-prefixed opaque byte blob (e.g. a nested serialized payload).
  void blob(std::span<const std::uint8_t> data);

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Reader over a byte span written by ByteWriter. Every accessor throws
/// std::runtime_error("truncated ...") when the payload runs out, so a
/// short or mangled checkpoint is rejected instead of silently producing
/// garbage state.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  bool boolean() { return u8() != 0; }
  std::string str();

  std::vector<double> doubles();
  std::vector<bool> bools();
  std::vector<int> ints();
  std::vector<std::uint8_t> blob();

  std::size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  /// Throws unless `n` items of `item_size` bytes remain.
  void need(std::size_t n, std::size_t item_size = 1) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// CRC-32 (IEEE 802.3 polynomial, the zlib convention) over a byte span.
/// Guards checkpoint payloads against torn writes and disk corruption.
std::uint32_t crc32(std::span<const std::uint8_t> data);

}  // namespace dps
