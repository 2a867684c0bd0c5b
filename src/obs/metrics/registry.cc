#include "obs/metrics/registry.h"

#include <algorithm>
#include <limits>

namespace qa::obs::metrics {

int64_t Histogram::BucketLowerBound(int b) {
  if (b <= 0) return 0;
  return int64_t{1} << (b - 1);
}

int64_t Histogram::BucketUpperBound(int b) {
  if (b <= 0) return 0;
  if (b >= kBuckets - 1) return std::numeric_limits<int64_t>::max();
  return (int64_t{1} << b) - 1;
}

void Histogram::MergeFrom(const Histogram& other) {
  if (other.count == 0) return;
  for (int b = 0; b < kBuckets; ++b) {
    buckets[static_cast<size_t>(b)] += other.buckets[static_cast<size_t>(b)];
  }
  if (count == 0) {
    min = other.min;
    max = other.max;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  count += other.count;
  sum += other.sum;
}

Registry::Registry()
    : counters_(static_cast<size_t>(kMetricCount), 0),
      gauges_(static_cast<size_t>(kMetricCount), 0.0),
      histograms_(static_cast<size_t>(kMetricCount)) {}

void Registry::MergeFrom(const Registry& other) {
  for (size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] += other.counters_[i];
    // Exact zero is the never-set sentinel here, not a tolerance check.
    // qa-lint: allow(QA-NUM-001)
    if (other.gauges_[i] != 0.0) gauges_[i] = other.gauges_[i];
    histograms_[i].MergeFrom(other.histograms_[i]);
  }
}

}  // namespace qa::obs::metrics
