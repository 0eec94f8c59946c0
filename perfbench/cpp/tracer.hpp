#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using SpanId = std::int64_t;
inline constexpr SpanId kNoSpan = -1;

/// A span name, registered once per process so the hot path indexes
/// per-name accumulators by a small integer instead of hashing strings.
class SpanName {
 public:
  explicit SpanName(const char* name);
  int id() const { return id_; }

 private:
  int id_;
};

/// Names registered so far, in id order.
std::vector<std::string> span_names();

/// One finished span: name, start, end, the span that caused it, and the
/// engine step it belongs to. Times are ns since the tracer was created.
struct Span {
  int name = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  std::int32_t step = -1;
  std::int32_t thread = 0;
};

/// Per-name totals. Self time is a span's duration minus the union of its
/// children's intervals; `remote_*` cover children recorded on other
/// threads (the tree's leaf decides), whose intervals may overlap.
struct NameStats {
  double self_ns = 0.0;
  double total_ns = 0.0;
  std::int64_t count = 0;
  double remote_sum_ns = 0.0;
  double remote_union_ns = 0.0;
  /// Per-span self and total durations, kept only for sampled names.
  std::vector<double> self_samples;
  std::vector<double> total_samples;
};

/// Counts recorded at the same boundaries as the spans.
enum class Count : int {
  kDpsDecides,        // DPS decide calls
  kRestores,          // ... that restored every cap (Algorithm 3)
  kDpsUnits,          // units those calls covered
  kHighPriority,      // ... of which were high priority afterwards
  kNum
};

/// Span recorder for the traced run. Spans live in per-thread buffers; a
/// span's self time is folded into per-name totals when it closes, so
/// memory stays bounded however many steps run, and the first
/// `kKeptSpans` spans of each thread are kept raw for write_csv.
///
/// Threads other than the one that created the tracer may record only
/// while that thread waits for them (the tree's pool runs leaf decides
/// while the engine thread blocks on their futures); the creating thread
/// reads their buffers after they are done.
class Tracer {
 public:
  static constexpr std::size_t kKeptSpans = 1u << 17;

  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The tracer spans go to, or nullptr when no traced run is active.
  static Tracer* active() { return active_.load(std::memory_order_acquire); }
  /// Routes spans here until the returned guard is destroyed.
  class Activation {
   public:
    explicit Activation(Tracer& tracer);
    ~Activation();
    Activation(const Activation&) = delete;
    Activation& operator=(const Activation&) = delete;
  };

  /// Opens a span on the calling thread. With `inherit_main`, a span
  /// opened with nothing open on its own thread takes the creating
  /// thread's innermost open span as its parent (work fanned out to a
  /// pool on that thread's behalf).
  SpanId open(const SpanName& name, bool inherit_main = false);
  void close(SpanId id);
  void set_step(int step) { step_.store(step, std::memory_order_relaxed); }
  void count(Count what, double amount);
  /// Keeps per-span samples for `name` (for percentiles).
  void sample(const SpanName& name);

  /// Totals over every thread, by name id. Call with no span open.
  std::vector<NameStats> stats() const;
  double counted(Count what) const;
  /// The first kKeptSpans spans of each thread, raw.
  std::vector<Span> kept_spans() const;
  /// Writes the kept raw spans as CSV (name,thread,step,id,parent,start_ns,end_ns).
  void write_csv(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  struct OpenSpan {
    Span span;
    std::int64_t covered_ns = 0;
  };
  struct Remote {
    SpanId parent;
    std::int64_t start_ns, end_ns;
  };
  struct Buffer {
    int thread = 0;
    std::vector<OpenSpan> open;
    std::vector<NameStats> stats;
    std::vector<Span> kept;
    std::vector<Remote> remote;
    std::int64_t next_index = 0;
    std::array<double, static_cast<int>(Count::kNum)> counts{};
  };

  Buffer& buffer();
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }
  NameStats& stats_of(Buffer& buffer, int name);
  /// Union length of remote children of `id`, consumed from every buffer.
  std::pair<std::int64_t, std::int64_t> take_remote_children(SpanId id);

  static std::atomic<Tracer*> active_;
  const std::uint64_t generation_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;  // guards buffers_ registration
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::vector<char> sampled_;  // by name id; set before recording starts
  std::atomic<SpanId> main_top_{kNoSpan};
  std::atomic<int> step_{-1};
  std::atomic<bool> has_remote_{false};
};

/// RAII span; free when no tracer is active.
class ScopedSpan {
 public:
  explicit ScopedSpan(const SpanName& name, bool inherit_main = false)
      : tracer_(Tracer::active()) {
    if (tracer_ != nullptr) id_ = tracer_->open(name, inherit_main);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  SpanId id_ = kNoSpan;
};

/// Self time of every span of a complete list, by the definition (duration
/// minus the union of its children's intervals); the reference the online
/// fold in Tracer::close is tested against.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Length of the union of `intervals` clipped to [lo, hi].
std::int64_t union_length(std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
                          std::int64_t lo, std::int64_t hi);

}  // namespace perfbench
