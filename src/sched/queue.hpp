#pragma once

#include <cstddef>
#include <deque>

#include "sched/job.hpp"

namespace dps::sched {

/// The pending-job queue, ordered by submission (head = oldest). Requeued
/// jobs re-enter *by their original submit time*, so a crash victim does
/// not lose its place behind jobs that arrived after it. Backfill may
/// remove jobs from the middle; indices in scheduler decisions always
/// refer to the queue state the decision was computed against.
class JobQueue {
 public:
  bool empty() const { return jobs_.empty(); }
  std::size_t size() const { return jobs_.size(); }

  const Job& at(std::size_t i) const { return jobs_.at(i); }

  /// Appends a newly submitted job (arrivals come in time order).
  void submit(Job job) { jobs_.push_back(std::move(job)); }

  /// Re-inserts a crash-requeued job before the first queued job with a
  /// later submit time (stable: ties keep the requeued job behind equals).
  void requeue(Job job);

  /// Removes and returns the job at `i`.
  Job take(std::size_t i);

 private:
  std::deque<Job> jobs_;
};

}  // namespace dps::sched
