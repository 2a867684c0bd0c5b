#ifndef QAMARKET_OBS_METRICS_METRICS_READER_H_
#define QAMARKET_OBS_METRICS_METRICS_READER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/metrics/watchdog.h"
#include "util/status.h"

namespace qa::obs::metrics {

/// One trailing per-metric stat from the `mstat` block.
struct MetricStat {
  std::string name;
  std::string kind;  // counter | gauge | histogram
  int64_t value = 0;     // counters
  double gauge = 0.0;    // gauges
  uint64_t count = 0;    // histograms
  int64_t sum = 0;
  int64_t min = 0;
  int64_t max = 0;
  /// Non-empty histogram buckets as (lower bound, count), ascending.
  std::vector<std::pair<int64_t, uint64_t>> buckets;
};

/// One `mrun` record: a bench's labeled run result.
struct RunRecord {
  std::string label;
  Json metrics;  // sim::MetricsToJson object
};

/// One `mfield` record: a bench-level key/value.
struct FieldRecord {
  std::string key;
  Json value;
};

/// A parsed metrics JSONL stream (the Collector's sink format). The tools
/// (qa_perf, qa_trace --alarms), bench_scale_nodes and the tests read
/// through this, so the writer and readers cannot drift apart silently.
struct ParsedMetrics {
  Json meta;  // the mmeta line (null when absent)
  std::vector<Json> samples;
  std::vector<AlarmRecord> alarms;
  std::vector<RunRecord> runs;
  std::vector<FieldRecord> fields;
  std::vector<MetricStat> stats;
  std::vector<int64_t> lane_drain_ns;
  std::vector<int64_t> lane_events;

  const MetricStat* FindStat(const std::string& name) const;

  /// Parses a metrics file; unknown record types are an error (catching
  /// schema drift beats skipping it).
  static util::StatusOr<ParsedMetrics> Load(const std::string& path);
  static util::StatusOr<ParsedMetrics> Parse(const std::string& text);
};

/// max/mean of per-lane drain times (ParsedMetrics::lane_drain_ns or a
/// live Collector's lanes): 1.0 = perfectly balanced shards, 0 when no
/// lane drained.
double LaneImbalance(const std::vector<int64_t>& lane_drain_ns);

}  // namespace qa::obs::metrics

#endif  // QAMARKET_OBS_METRICS_METRICS_READER_H_
