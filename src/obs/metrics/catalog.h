#ifndef QAMARKET_OBS_METRICS_CATALOG_H_
#define QAMARKET_OBS_METRICS_CATALOG_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace qa::obs::metrics {

enum class Kind : uint8_t { kCounter, kGauge, kHistogram };

/// One registered metric. Every metric a run can ever emit is declared in
/// the catalog (catalog.cc) and nowhere else; registries are built from it
/// at startup so the stats order is deterministic, and lint rule
/// QA-OBS-003 cross-checks name lookups in code against it.
struct MetricDef {
  std::string_view name;
  Kind kind;
  std::string_view help;
};

/// Dense metric ids: the index of each catalog entry. Kept in the exact
/// order of the table in catalog.cc (unit-tested); hot paths use these
/// instead of string lookups.
enum Metric : int {
  // Counters — deterministic, mirrored from the simulation's own state at
  // market-tick fences; byte-identical at any shard/thread count.
  kEventsDispatched = 0,
  kQueriesAssigned,
  kQueriesCompleted,
  kQueriesDropped,
  kQueriesExpired,
  kQueriesBounced,
  kQueriesLost,
  kRetries,
  kMessages,
  kSolicited,
  kTicks,
  kAlarms,
  kQueriesShed,
  kAdmissionRejects,
  // Gauges — deterministic market-health signals the watchdogs evaluate
  // each global period.
  kLogPriceVariance,
  kOscFlipRate,
  kMaxRejectAgeMs,
  kEarningsCv,
  kOutstanding,
  kBrownoutLevel,
  // Histograms — wall-clock phase timings in nanoseconds (log-bucketed).
  // Side channel only: these never feed simulation state or trace bytes.
  // kNodeQueueDepth is the one deterministic histogram: per-node queue
  // lengths observed at every global period fence (virtual state, so it
  // stays byte-identical like the counters and gauges). It sits after the
  // phase block because Collector::PhaseMetric requires the phase
  // histograms contiguous from kPhaseRunTotal.
  kPhaseRunTotal,
  kPhaseLaneDrain,
  kPhaseMerge,
  kPhaseMarketTick,
  kPhaseAllocate,
  kPhaseRollover,
  kPhaseBidScan,
  kPhaseSnapshot,
  kPhaseMediatorDispatch,
  kNodeQueueDepth,
  kMetricCount,
};

/// The full catalog, in Metric id order.
const std::vector<MetricDef>& Catalog();

/// Resolves a metric name to its dense id, or -1 when unregistered.
/// Call sites that pass a string literal are lint-checked (QA-OBS-003):
/// the literal must appear in the catalog.
int MetricId(std::string_view name);

}  // namespace qa::obs::metrics

#endif  // QAMARKET_OBS_METRICS_CATALOG_H_
