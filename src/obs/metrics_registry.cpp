#include "obs/metrics_registry.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <stdexcept>

#include "util/csv.hpp"

namespace dps::obs {
namespace {

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  };
  auto tail = [&](char c) {
    return head(c) || std::isdigit(static_cast<unsigned char>(c));
  };
  if (!head(name.front())) return false;
  return std::all_of(name.begin() + 1, name.end(), tail);
}

std::string format_bound(double bound) {
  // Prometheus prints +Inf literally; finite bounds use the shortest
  // round-trip-safe representation we can cheaply get.
  std::string s = format_double(bound, 9);
  return s;
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  if (bounds_.empty() || !std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument(
        "Histogram: bounds must be non-empty and strictly increasing");
  }
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t index = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + v,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<double> default_latency_bounds() {
  std::vector<double> bounds;
  for (double decade = 1e-6; decade < 20.0; decade *= 10.0) {
    for (const double m : {1.0, 2.0, 5.0}) bounds.push_back(decade * m);
  }
  return bounds;
}

MetricsRegistry::Entry& MetricsRegistry::find_or_create(
    const std::string& name, const std::string& help) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("MetricsRegistry: bad metric name: " + name);
  }
  auto [it, inserted] = entries_.try_emplace(name);
  if (inserted) it->second.help = help;
  return it->second;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  std::lock_guard lock(mu_);
  Entry& entry = find_or_create(name, help);
  if (entry.gauge || entry.histogram) {
    throw std::invalid_argument("MetricsRegistry: " + name +
                                " already registered as another type");
  }
  if (!entry.counter) entry.counter = std::make_unique<Counter>();
  return *entry.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  std::lock_guard lock(mu_);
  Entry& entry = find_or_create(name, help);
  if (entry.counter || entry.histogram) {
    throw std::invalid_argument("MetricsRegistry: " + name +
                                " already registered as another type");
  }
  if (!entry.gauge) entry.gauge = std::make_unique<Gauge>();
  return *entry.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds,
                                      const std::string& help) {
  std::lock_guard lock(mu_);
  Entry& entry = find_or_create(name, help);
  if (entry.counter || entry.gauge) {
    throw std::invalid_argument("MetricsRegistry: " + name +
                                " already registered as another type");
  }
  if (!entry.histogram) {
    entry.histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  } else if (entry.histogram->upper_bounds() != upper_bounds) {
    throw std::invalid_argument("MetricsRegistry: " + name +
                                " re-registered with different bounds");
  }
  return *entry.histogram;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard lock(mu_);
  return entries_.size();
}

void MetricsRegistry::write_prometheus(std::ostream& out) const {
  std::lock_guard lock(mu_);
  for (const auto& [name, entry] : entries_) {
    if (!entry.help.empty()) {
      out << "# HELP " << name << ' ' << entry.help << '\n';
    }
    if (entry.counter) {
      out << "# TYPE " << name << " counter\n";
      out << name << ' ' << entry.counter->value() << '\n';
    } else if (entry.gauge) {
      out << "# TYPE " << name << " gauge\n";
      out << name << ' ' << format_double(entry.gauge->value(), 9) << '\n';
    } else if (entry.histogram) {
      const Histogram& h = *entry.histogram;
      out << "# TYPE " << name << " histogram\n";
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < h.upper_bounds().size(); ++i) {
        cumulative += h.bucket_count(i);
        out << name << "_bucket{le=\"" << format_bound(h.upper_bounds()[i])
            << "\"} " << cumulative << '\n';
      }
      cumulative += h.bucket_count(h.upper_bounds().size());
      out << name << "_bucket{le=\"+Inf\"} " << cumulative << '\n';
      out << name << "_sum " << format_double(h.sum(), 9) << '\n';
      out << name << "_count " << h.count() << '\n';
    }
  }
}

void MetricsRegistry::write_csv(const std::string& path) const {
  std::lock_guard lock(mu_);
  CsvWriter csv(path);
  csv.write_header({"metric", "type", "key", "value"});
  for (const auto& [name, entry] : entries_) {
    if (entry.counter) {
      csv.write_row({name, "counter", "", std::to_string(entry.counter->value())});
    } else if (entry.gauge) {
      csv.write_row({name, "gauge", "", format_double(entry.gauge->value(), 9)});
    } else if (entry.histogram) {
      const Histogram& h = *entry.histogram;
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < h.upper_bounds().size(); ++i) {
        cumulative += h.bucket_count(i);
        csv.write_row({name, "histogram",
                       "le=" + format_bound(h.upper_bounds()[i]),
                       std::to_string(cumulative)});
      }
      cumulative += h.bucket_count(h.upper_bounds().size());
      csv.write_row({name, "histogram", "le=+Inf", std::to_string(cumulative)});
      csv.write_row({name, "histogram", "sum", format_double(h.sum(), 9)});
      csv.write_row({name, "histogram", "count", std::to_string(h.count())});
    }
  }
  csv.flush();
}

}  // namespace dps::obs
