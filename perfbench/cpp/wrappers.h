// Timing wrappers the benchmark's traced pass puts around the program's
// public interfaces. Each forwards every call unchanged and only reads the
// wall clock on the side, so a traced run simulates exactly what an
// untraced one does (the side-channel contract of DESIGN.md §9). Per-call
// work is aggregated into counts, busy time and a latency histogram rather
// than one span per call.

#ifndef QAMARKET_PERFBENCH_CPP_WRAPPERS_H_
#define QAMARKET_PERFBENCH_CPP_WRAPPERS_H_

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "allocation/allocator.h"
#include "query/cost_model.h"
#include "util/task_runner.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Log-linear latency histogram: every power of two is split into
/// kSubBuckets linear sub-buckets, so a percentile read from it is within
/// 1/kSubBuckets (~6%) of the true value at any magnitude. (The metrics
/// registry's power-of-two histogram would only place p50/p99 within 2x.)
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 4;
  static constexpr int kSubBuckets = 1 << kSubBits;

  void Record(int64_t ns) {
    uint64_t v = ns > 0 ? static_cast<uint64_t>(ns) : 0;
    ++buckets_[BucketOf(v)];
    ++count_;
  }

  uint64_t count() const { return count_; }

  void Merge(const LatencyHistogram& other) {
    for (size_t b = 0; b < buckets_.size(); ++b) buckets_[b] += other.buckets_[b];
    count_ += other.count_;
  }

  /// The value below which `p` percent of recorded samples fall (the
  /// midpoint of the bucket holding that rank); 0 when empty.
  double Percentile(double p) const {
    if (count_ == 0) return 0.0;
    uint64_t rank = static_cast<uint64_t>(
        p / 100.0 * static_cast<double>(count_ - 1));
    uint64_t seen = 0;
    for (size_t b = 0; b < buckets_.size(); ++b) {
      seen += buckets_[b];
      if (seen > rank) return Midpoint(b);
    }
    return Midpoint(buckets_.size() - 1);
  }

 private:
  // Values below kSubBuckets get one bucket each; above, bucket index is
  // (exponent, top kSubBits mantissa bits).
  static size_t BucketOf(uint64_t v) {
    if (v < kSubBuckets) return static_cast<size_t>(v);
    int exp = static_cast<int>(std::bit_width(v)) - 1;
    uint64_t sub = (v >> (exp - kSubBits)) & (kSubBuckets - 1);
    return static_cast<size_t>((exp - kSubBits + 1) * kSubBuckets) +
           static_cast<size_t>(sub);
  }
  static double Midpoint(size_t b) {
    if (b < kSubBuckets) return static_cast<double>(b);
    int exp = static_cast<int>(b / kSubBuckets) + kSubBits - 1;
    double sub = static_cast<double>(b % kSubBuckets);
    double width = static_cast<double>(uint64_t{1} << (exp - kSubBits));
    return static_cast<double>(uint64_t{1} << exp) + (sub + 0.5) * width;
  }

  std::array<uint64_t, (64 - kSubBits + 1) * kSubBuckets> buckets_{};
  uint64_t count_ = 0;
};

/// Counts Cost() lookups on the way to the wrapped model. Not thread-safe:
/// it wraps the model only for the capacity estimator, which runs on one
/// thread.
class CountingCostModel final : public qa::query::CostModel {
 public:
  explicit CountingCostModel(const qa::query::CostModel* inner)
      : inner_(inner) {}

  int num_classes() const override { return inner_->num_classes(); }
  int num_nodes() const override { return inner_->num_nodes(); }
  qa::util::VDuration Cost(qa::query::QueryClassId k,
                           qa::catalog::NodeId node) const override {
    ++calls_;
    return inner_->Cost(k, node);
  }

  int64_t calls() const { return calls_; }

 private:
  const qa::query::CostModel* inner_;
  mutable int64_t calls_ = 0;
};

/// Times every fork-join the simulator and the allocator run: the
/// wall time of each ParallelFor, and the summed busy time of its tasks.
/// ParallelFor is only ever called from the run's mediator thread, one
/// fork-join at a time (the TaskRunner contract), so the aggregates need
/// no lock; each task writes only its own slot of `task_ns_`.
class TimedTaskRunner final : public qa::util::TaskRunner {
 public:
  explicit TimedTaskRunner(const qa::util::TaskRunner* inner)
      : inner_(inner) {}

  int concurrency() const override { return inner_->concurrency(); }

  void ParallelFor(int n, const std::function<void(int)>& fn) const override {
    task_ns_.assign(static_cast<size_t>(n > 0 ? n : 0), 0);
    int64_t start = NowNs();
    inner_->ParallelFor(n, [&](int i) {
      int64_t t0 = NowNs();
      fn(i);
      task_ns_[static_cast<size_t>(i)] = NowNs() - t0;
    });
    fork_join_ns_ += NowNs() - start;
    ++fork_joins_;
    for (int64_t ns : task_ns_) task_busy_ns_ += ns;
  }

  int64_t fork_joins() const { return fork_joins_; }
  int64_t fork_join_ns() const { return fork_join_ns_; }
  int64_t task_busy_ns() const { return task_busy_ns_; }

 private:
  const qa::util::TaskRunner* inner_;
  mutable std::vector<int64_t> task_ns_;
  mutable int64_t fork_joins_ = 0;
  mutable int64_t fork_join_ns_ = 0;
  mutable int64_t task_busy_ns_ = 0;
};

/// Forwards every Allocator virtual to the wrapped mechanism — including
/// properties(), so the federation picks the same (sharded or inline)
/// execution mode — and times Allocate and the period hooks.
class TimedAllocator final : public qa::allocation::Allocator {
 public:
  explicit TimedAllocator(std::unique_ptr<qa::allocation::Allocator> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  qa::allocation::MechanismProperties properties() const override {
    return inner_->properties();
  }

  /// Every attempt is counted; one in kAllocateStride is timed and its
  /// duration weighted by the stride, the same sampling the program's own
  /// allocate probe uses. At overload an attempt can cost ~100 ns, where
  /// timing each one would double the traced run time.
  static constexpr uint64_t kAllocateStride = 8;

  qa::allocation::AllocationDecision Allocate(
      const qa::workload::Arrival& arrival,
      const qa::allocation::AllocationContext& context) override {
    qa::allocation::AllocationDecision decision;
    if (attempts_++ % kAllocateStride == 0) {
      int64_t start = NowNs();
      decision = inner_->Allocate(arrival, context);
      int64_t ns = NowNs() - start;
      allocate_ns_ += ns * static_cast<int64_t>(kAllocateStride);
      latency_.Record(ns);
    } else {
      decision = inner_->Allocate(arrival, context);
    }
    solicited_ += decision.solicited;
    if (decision.node != qa::allocation::kNoNode) ++assigned_;
    return decision;
  }

  void OnPeriodStart(qa::util::VTime now) override {
    int64_t start = NowNs();
    inner_->OnPeriodStart(now);
    period_ns_ += NowNs() - start;
    ++period_calls_;
  }
  void OnPeriodEnd(qa::util::VTime now) override {
    int64_t start = NowNs();
    inner_->OnPeriodEnd(now);
    period_ns_ += NowNs() - start;
    ++period_calls_;
  }
  void OnNodeRestart(qa::catalog::NodeId node, qa::util::VTime now) override {
    int64_t start = NowNs();
    inner_->OnNodeRestart(node, now);
    other_ns_ += NowNs() - start;
  }
  void SetTaskRunner(const qa::util::TaskRunner* runner) override {
    inner_->SetTaskRunner(runner);
  }
  void SetMetricsCollector(qa::obs::metrics::Collector* collector) override {
    inner_->SetMetricsCollector(collector);
  }
  void FillMarketProbe(qa::obs::metrics::MarketProbe* probe) const override {
    int64_t start = NowNs();
    inner_->FillMarketProbe(probe);
    other_ns_ += NowNs() - start;
  }
  qa::obs::AllocatorSnapshot Snapshot() const override {
    int64_t start = NowNs();
    qa::obs::AllocatorSnapshot snapshot = inner_->Snapshot();
    other_ns_ += NowNs() - start;
    return snapshot;
  }

  uint64_t attempts() const { return attempts_; }
  int64_t assigned() const { return assigned_; }
  int64_t solicited() const { return solicited_; }
  int64_t allocate_ns() const { return allocate_ns_; }
  const LatencyHistogram& latency() const { return latency_; }
  int64_t period_calls() const { return period_calls_; }
  int64_t period_ns() const { return period_ns_; }
  /// Restart hooks, market probes and snapshots.
  int64_t other_ns() const { return other_ns_; }

 private:
  std::unique_ptr<qa::allocation::Allocator> inner_;
  uint64_t attempts_ = 0;
  /// Latencies of the timed (sampled) attempts.
  LatencyHistogram latency_;
  int64_t assigned_ = 0;
  int64_t solicited_ = 0;
  int64_t allocate_ns_ = 0;
  int64_t period_calls_ = 0;
  int64_t period_ns_ = 0;
  mutable int64_t other_ns_ = 0;
};

}  // namespace perfbench

#endif  // QAMARKET_PERFBENCH_CPP_WRAPPERS_H_
