#include "obs/metrics/registry.h"

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

Registry::Registry()
    : counters_(static_cast<size_t>(kMetricCount), 0),
      gauges_(static_cast<size_t>(kMetricCount), 0.0),
      histograms_(static_cast<size_t>(kMetricCount)) {}

}  // namespace qa::obs::metrics
