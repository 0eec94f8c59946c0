#include "signal/window_bank.hpp"

#include <algorithm>
#include <stdexcept>

namespace dps {

WindowBank::WindowBank(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("WindowBank: capacity must be > 0");
  }
}

void WindowBank::reset(std::size_t units) {
  units_ = units;
  count_ = 0;
  oldest_ = 0;
  data_.assign(capacity_ * units, 0.0);
}

void WindowBank::push(std::span<const double> row) {
  if (row.size() != units_) {
    throw std::invalid_argument("WindowBank::push: row size mismatch");
  }
  std::size_t slot = oldest_ + count_;
  if (slot >= capacity_) slot -= capacity_;
  std::copy(row.begin(), row.end(), data_.begin() + slot * units_);
  if (count_ < capacity_) {
    ++count_;
  } else {
    oldest_ = oldest_ + 1 == capacity_ ? 0 : oldest_ + 1;
  }
}

void WindowBank::copy_window(std::size_t unit, std::span<double> out) const {
  for (std::size_t i = 0; i < count_; ++i) out[i] = row(i)[unit];
}

void WindowBank::means(std::span<double> out) const {
  double* sum = out.data();
  std::fill(sum, sum + units_, 0.0);
  if (count_ == 0) return;
  for (std::size_t i = 0; i < count_; ++i) {
    const double* r = row(i);
    for (std::size_t u = 0; u < units_; ++u) sum[u] += r[u];
  }
  const double n = static_cast<double>(count_);
  for (std::size_t u = 0; u < units_; ++u) sum[u] /= n;
}

void WindowBank::save(ByteWriter& out) const {
  for (std::size_t u = 0; u < units_; ++u) {
    out.u64(count_);
    for (std::size_t i = 0; i < count_; ++i) out.f64(row(i)[u]);
  }
}

void WindowBank::load(ByteReader& in) {
  std::vector<double> data(capacity_ * units_, 0.0);
  std::size_t count = 0;
  for (std::size_t u = 0; u < units_; ++u) {
    const auto samples = in.doubles();
    if (samples.size() > capacity_) {
      throw std::runtime_error(
          "WindowBank: snapshot window larger than configured capacity");
    }
    if (u == 0) {
      count = samples.size();
    } else if (samples.size() != count) {
      throw std::runtime_error(
          "WindowBank: snapshot windows differ in length");
    }
    for (std::size_t i = 0; i < count; ++i) data[i * units_ + u] = samples[i];
  }
  data_ = std::move(data);
  count_ = count;
  oldest_ = 0;
}

}  // namespace dps
