#include "tracer.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {
namespace {

struct NameRegistry {
  std::mutex mu;
  std::vector<std::string> names;
};

NameRegistry& registry() {
  static NameRegistry instance;
  return instance;
}

std::atomic<std::uint64_t> next_generation{1};

struct ThreadSlot {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local ThreadSlot tls_slot;

void merge_into(NameStats& into, const NameStats& from) {
  into.self_ns += from.self_ns;
  into.total_ns += from.total_ns;
  into.count += from.count;
  into.remote_sum_ns += from.remote_sum_ns;
  into.remote_union_ns += from.remote_union_ns;
  into.self_samples.insert(into.self_samples.end(), from.self_samples.begin(),
                           from.self_samples.end());
  into.total_samples.insert(into.total_samples.end(), from.total_samples.begin(),
                            from.total_samples.end());
}

}  // namespace

SpanName::SpanName(const char* name) {
  auto& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  const auto it = std::find(reg.names.begin(), reg.names.end(), name);
  id_ = static_cast<int>(it - reg.names.begin());
  if (it == reg.names.end()) reg.names.emplace_back(name);
}

std::vector<std::string> span_names() {
  auto& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  return reg.names;
}

std::atomic<Tracer*> Tracer::active_{nullptr};

Tracer::Tracer()
    : generation_(next_generation.fetch_add(1)), origin_(Clock::now()) {
  buffer();  // the creating thread is thread 0
}

Tracer::~Tracer() {
  Tracer* self = this;
  active_.compare_exchange_strong(self, nullptr);
}

Tracer::Activation::Activation(Tracer& tracer) {
  Tracer* expected = nullptr;
  if (!active_.compare_exchange_strong(expected, &tracer)) {
    throw std::logic_error("Tracer: another tracer is already active");
  }
}

Tracer::Activation::~Activation() { active_.store(nullptr, std::memory_order_release); }

Tracer::Buffer& Tracer::buffer() {
  if (tls_slot.generation != generation_) {
    std::lock_guard<std::mutex> lock(mu_);
    auto buffer = std::make_unique<Buffer>();
    buffer->thread = static_cast<int>(buffers_.size());
    tls_slot.generation = generation_;
    tls_slot.buffer = buffer.get();
    buffers_.push_back(std::move(buffer));
  }
  return *static_cast<Buffer*>(tls_slot.buffer);
}

NameStats& Tracer::stats_of(Buffer& buffer, int name) {
  if (static_cast<std::size_t>(name) >= buffer.stats.size()) {
    buffer.stats.resize(static_cast<std::size_t>(name) + 1);
  }
  return buffer.stats[static_cast<std::size_t>(name)];
}

void Tracer::sample(const SpanName& name) {
  if (static_cast<std::size_t>(name.id()) >= sampled_.size()) {
    sampled_.resize(static_cast<std::size_t>(name.id()) + 1, 0);
  }
  sampled_[static_cast<std::size_t>(name.id())] = 1;
}

SpanId Tracer::open(const SpanName& name, bool inherit_main) {
  Buffer& b = buffer();
  Span span;
  span.name = name.id();
  span.id = (static_cast<SpanId>(b.thread) << 40) | b.next_index++;
  if (!b.open.empty()) {
    span.parent = b.open.back().span.id;
  } else if (inherit_main && b.thread != 0) {
    span.parent = main_top_.load(std::memory_order_acquire);
  }
  span.step = step_.load(std::memory_order_relaxed);
  span.thread = b.thread;
  span.start_ns = now_ns();
  b.open.push_back(OpenSpan{span, 0});
  if (b.thread == 0) main_top_.store(span.id, std::memory_order_release);
  return span.id;
}

void Tracer::close(SpanId id) {
  const std::int64_t end = now_ns();
  Buffer& b = buffer();
  if (b.open.empty() || b.open.back().span.id != id) {
    throw std::logic_error("Tracer: spans must close innermost first");
  }
  OpenSpan done = b.open.back();
  b.open.pop_back();
  done.span.end_ns = end;
  const std::int64_t duration = end - done.span.start_ns;

  NameStats& stats = stats_of(b, done.span.name);
  if (b.thread == 0 && has_remote_.load(std::memory_order_acquire)) {
    const auto [sum, covered] = take_remote_children(done.span.id);
    done.covered_ns += covered;
    stats.remote_sum_ns += static_cast<double>(sum);
    stats.remote_union_ns += static_cast<double>(covered);
  }
  const auto self = static_cast<double>(duration - done.covered_ns);
  stats.self_ns += self;
  stats.total_ns += static_cast<double>(duration);
  ++stats.count;
  if (static_cast<std::size_t>(done.span.name) < sampled_.size() &&
      sampled_[static_cast<std::size_t>(done.span.name)] != 0) {
    stats.self_samples.push_back(self);
    stats.total_samples.push_back(static_cast<double>(duration));
  }

  if (done.span.parent != kNoSpan) {
    if (!b.open.empty() && b.open.back().span.id == done.span.parent) {
      // Same-thread children run one after another, so their durations
      // add up to the union they cover.
      b.open.back().covered_ns += duration;
    } else {
      b.remote.push_back(Remote{done.span.parent, done.span.start_ns, end});
      has_remote_.store(true, std::memory_order_release);
    }
  }
  if (b.kept.size() < kKeptSpans) b.kept.push_back(done.span);
  if (b.thread == 0) {
    main_top_.store(b.open.empty() ? kNoSpan : b.open.back().span.id,
                    std::memory_order_release);
  }
}

std::pair<std::int64_t, std::int64_t> Tracer::take_remote_children(SpanId id) {
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  std::int64_t sum = 0;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  bool any_left = false;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buffer : buffers_) {
    auto& remote = buffer->remote;
    auto keep = remote.begin();
    for (auto& r : remote) {
      if (r.parent == id) {
        if (intervals.empty() || r.start_ns < lo) lo = r.start_ns;
        if (intervals.empty() || r.end_ns > hi) hi = r.end_ns;
        intervals.emplace_back(r.start_ns, r.end_ns);
        sum += r.end_ns - r.start_ns;
      } else {
        *keep++ = r;
      }
    }
    remote.erase(keep, remote.end());
    any_left = any_left || !remote.empty();
  }
  has_remote_.store(any_left, std::memory_order_release);
  if (intervals.empty()) return {0, 0};
  return {sum, union_length(std::move(intervals), lo, hi)};
}

void Tracer::count(Count what, double amount) {
  buffer().counts[static_cast<std::size_t>(what)] += amount;
}

std::vector<NameStats> Tracer::stats() const {
  std::vector<NameStats> merged;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) {
    if (buffer->stats.size() > merged.size()) merged.resize(buffer->stats.size());
    for (std::size_t i = 0; i < buffer->stats.size(); ++i) {
      merge_into(merged[i], buffer->stats[i]);
    }
  }
  return merged;
}

double Tracer::counted(Count what) const {
  double total = 0.0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) total += buffer->counts[static_cast<std::size_t>(what)];
  return total;
}

std::vector<Span> Tracer::kept_spans() const {
  std::vector<Span> spans;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) {
    spans.insert(spans.end(), buffer->kept.begin(), buffer->kept.end());
  }
  return spans;
}

void Tracer::write_csv(const std::string& path) const {
  const auto names = span_names();
  std::ofstream out(path);
  if (!out) throw std::runtime_error("Tracer: cannot write " + path);
  out << "name,thread,step,id,parent,start_ns,end_ns\n";
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->kept) {
      out << names[static_cast<std::size_t>(s.name)] << ',' << s.thread << ',' << s.step
          << ',' << s.id << ',' << s.parent << ',' << s.start_ns << ',' << s.end_ns << '\n';
    }
  }
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<SpanId, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    const auto parent = index.find(s.parent);
    if (parent != index.end()) children[parent->second].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns -
              union_length(std::move(children[i]), spans[i].start_ns, spans[i].end_ns);
  }
  return self;
}

std::int64_t union_length(std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
                          std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t reach = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end <= start) continue;
    covered += end - start;
    reach = end;
  }
  return covered;
}

}  // namespace perfbench
