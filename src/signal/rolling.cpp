#include "signal/rolling.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dps {

RollingWindow::RollingWindow(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("RollingWindow: capacity must be > 0");
  }
  data_.reserve(capacity);
}

void RollingWindow::push(double value) {
  if (data_.size() == capacity_) {
    data_.erase(data_.begin());
  }
  data_.push_back(value);
}

double RollingWindow::at(std::size_t i) const { return data_.at(i); }

double RollingWindow::at_back(std::size_t i) const {
  return data_.at(data_.size() - 1 - i);
}

double RollingWindow::mean() const { return mean_of(contents()); }

double RollingWindow::stddev() const { return stddev_of(contents()); }

double RollingWindow::min() const {
  if (data_.empty()) return 0.0;
  return *std::min_element(data_.begin(), data_.end());
}

double RollingWindow::max() const {
  if (data_.empty()) return 0.0;
  return *std::max_element(data_.begin(), data_.end());
}

double RollingWindow::avg_derivative(const RollingWindow& durations,
                                     std::size_t length) const {
  if (length < 2) return 0.0;
  const std::size_t have = std::min({length, size(), durations.size()});
  if (have < 2) return 0.0;
  const double newest = at_back(0);
  const double oldest = at_back(have - 1);
  double elapsed = 0.0;
  for (std::size_t i = 0; i + 1 < have; ++i) {
    elapsed += durations.at_back(i);
  }
  if (elapsed <= 0.0) return 0.0;
  return (newest - oldest) / elapsed;
}

std::span<const double> RollingWindow::contents() const { return data_; }

void RollingWindow::clear() { data_.clear(); }

void RollingWindow::save(ByteWriter& out) const { out.doubles(data_); }

void RollingWindow::load(ByteReader& in) {
  auto samples = in.doubles();
  if (samples.size() > capacity_) {
    throw std::runtime_error(
        "RollingWindow: snapshot larger than configured capacity");
  }
  data_ = std::move(samples);
}

double mean_of(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double stddev_of(std::span<const double> values) {
  if (values.size() < 1) return 0.0;
  const double m = mean_of(values);
  double acc = 0.0;
  for (double v : values) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values.size()));
}

double harmonic_mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double denom = 0.0;
  for (double v : values) {
    if (v <= 0.0) {
      throw std::invalid_argument("harmonic_mean: values must be positive");
    }
    denom += 1.0 / v;
  }
  return static_cast<double>(values.size()) / denom;
}

}  // namespace dps
