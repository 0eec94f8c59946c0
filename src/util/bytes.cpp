#include "util/bytes.hpp"

#include <array>
#include <cstring>
#include <stdexcept>

namespace dps {

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back((v >> (8 * i)) & 0xff);
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back((v >> (8 * i)) & 0xff);
}

void ByteWriter::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void ByteWriter::str(const std::string& s) {
  u64(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::doubles(std::span<const double> values) {
  u64(values.size());
  for (const double v : values) f64(v);
}

void ByteWriter::bools(const std::vector<bool>& values) {
  u64(values.size());
  for (const bool v : values) boolean(v);
}

void ByteWriter::ints(std::span<const int> values) {
  u64(values.size());
  for (const int v : values) i64(v);
}

void ByteWriter::blob(std::span<const std::uint8_t> data) {
  u64(data.size());
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void ByteReader::need(std::size_t n, std::size_t item_size) const {
  // Divide rather than multiply: a hostile count times 8 can wrap to a
  // small number and pass.
  if (n > (data_.size() - pos_) / item_size) {
    throw std::runtime_error("truncated checkpoint payload");
  }
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  }
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  }
  return v;
}

double ByteReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string ByteReader::str() {
  const std::uint64_t n = u64();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_),
                static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

std::vector<double> ByteReader::doubles() {
  const std::uint64_t n = u64();
  need(n, 8);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(f64());
  return out;
}

std::vector<bool> ByteReader::bools() {
  const std::uint64_t n = u64();
  need(n);
  std::vector<bool> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(boolean());
  return out;
}

std::vector<int> ByteReader::ints() {
  const std::uint64_t n = u64();
  need(n, 8);
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(static_cast<int>(i64()));
  return out;
}

std::vector<std::uint8_t> ByteReader::blob() {
  const std::uint64_t n = u64();
  need(n);
  std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += static_cast<std::size_t>(n);
  return out;
}

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  static const auto table = make_crc_table();
  std::uint32_t c = 0xffffffffu;
  for (const std::uint8_t byte : data) {
    c = table[(c ^ byte) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace dps
