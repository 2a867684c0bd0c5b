#ifndef QAMARKET_OBS_METRICS_REGISTRY_H_
#define QAMARKET_OBS_METRICS_REGISTRY_H_

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "obs/metrics/catalog.h"

namespace qa::obs::metrics {

/// A log-bucketed value/latency histogram: power-of-two buckets, so one
/// `Record` is a bit_width plus an increment — cheap enough for per-event
/// use — and the bucket layout needs no configuration.
///
/// Bucket b (b >= 1) holds values v with 2^(b-1) <= v <= 2^b - 1;
/// bucket 0 holds v <= 0. With 48 buckets the top bucket starts at 2^46 ns
/// (~21 hours), far past any phase this project times.
struct Histogram {
  static constexpr int kBuckets = 48;

  std::array<uint64_t, kBuckets> buckets{};
  uint64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;  // meaningful only when count > 0
  int64_t max = 0;

  /// The bucket index of `v`: 0 for v <= 0, otherwise bit_width(v)
  /// clamped to the top bucket. Inline: this is the per-event path.
  static int BucketOf(int64_t v) {
    if (v <= 0) return 0;
    int b = static_cast<int>(std::bit_width(static_cast<uint64_t>(v)));
    return b < kBuckets - 1 ? b : kBuckets - 1;
  }
  /// Smallest value bucket `b` holds (0 for bucket 0).
  static int64_t BucketLowerBound(int b);
  /// Largest value bucket `b` holds (2^b - 1; INT64_MAX for the top).
  static int64_t BucketUpperBound(int b);

  /// Records `v` with statistical weight `weight`: a probe that times one
  /// in every N occurrences of an event records the measured duration with
  /// weight N, keeping `count`, `sum` and the bucket mass unbiased
  /// estimates of the full population (min/max describe sampled values
  /// only).
  void Record(int64_t v, uint64_t weight = 1) {
    buckets[static_cast<size_t>(BucketOf(v))] += weight;
    if (count == 0) {
      min = v;
      max = v;
    } else {
      if (v < min) min = v;
      if (v > max) max = v;
    }
    count += weight;
    sum += v * static_cast<int64_t>(weight);
  }
  double Mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }
};

/// All metric instruments of one collector, dense-indexed by the catalog
/// (obs/metrics/catalog.h). Instantiating one registers every catalog
/// metric up front, so the metrics sink's trailing stats block is in
/// catalog order regardless of which metrics a run happens to touch. Not
/// thread-safe: per-shard wall-clock attribution goes through the
/// Collector's per-lane slots and is folded in at fences/Finish on the
/// mediator thread.
class Registry {
 public:
  Registry();

  /// Counter increment (id must be a kCounter catalog entry).
  void Add(int id, int64_t delta = 1) {
    counters_[static_cast<size_t>(id)] += delta;
  }
  /// Counter sync: snap the cumulative value mirrored from sim state.
  void SetCounter(int id, int64_t value) {
    counters_[static_cast<size_t>(id)] = value;
  }
  void SetGauge(int id, double value) {
    gauges_[static_cast<size_t>(id)] = value;
  }
  void Observe(int id, int64_t value, uint64_t weight = 1) {
    histograms_[static_cast<size_t>(id)].Record(value, weight);
  }

  int64_t counter(int id) const { return counters_[static_cast<size_t>(id)]; }
  double gauge(int id) const { return gauges_[static_cast<size_t>(id)]; }
  const Histogram& histogram(int id) const {
    return histograms_[static_cast<size_t>(id)];
  }

 private:
  std::vector<int64_t> counters_;
  std::vector<double> gauges_;
  std::vector<Histogram> histograms_;
};

}  // namespace qa::obs::metrics

#endif  // QAMARKET_OBS_METRICS_REGISTRY_H_
