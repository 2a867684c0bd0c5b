#ifndef QAMARKET_SIM_METRICS_JSON_H_
#define QAMARKET_SIM_METRICS_JSON_H_

#include "obs/json.h"
#include "sim/metrics.h"

namespace qa::sim {

/// Renders a finished run's SimMetrics as the `metrics` object of a
/// metrics-stream `mrun` record: every scalar counter, response-time
/// percentiles (p50/p95/p99) and the per-class completion/drop/retry
/// breakdowns. See src/obs/SCHEMA.md for the field list.
obs::Json MetricsToJson(const SimMetrics& metrics);

}  // namespace qa::sim

#endif  // QAMARKET_SIM_METRICS_JSON_H_
