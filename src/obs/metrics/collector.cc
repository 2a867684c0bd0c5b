#include "obs/metrics/collector.h"

#include <utility>

namespace qa::obs::metrics {

util::StatusOr<std::unique_ptr<Collector>> Collector::OpenFile(
    const std::string& path) {
  auto file = std::make_unique<std::ofstream>(path);
  if (!file->is_open()) {
    return util::Status::InvalidArgument("cannot open metrics file: " + path);
  }
  auto collector = std::make_unique<Collector>(file.get());
  collector->file_ = std::move(file);
  return collector;
}

void Collector::Write(const Json& json) {
  if (sink_ == nullptr) return;
  line_buffer_.clear();
  json.DumpTo(line_buffer_);
  line_buffer_.push_back('\n');
  sink_->write(line_buffer_.data(),
               static_cast<std::streamsize>(line_buffer_.size()));
}

void Collector::BeginRun(const RunMeta& meta) {
  finished_ = false;
  began_ = true;
  if (sink_ == nullptr) return;
  Json line = Json::MakeObject();
  line.Set("type", "mmeta");
  line.Set("mechanism", meta.mechanism);
  line.Set("nodes", meta.nodes);
  line.Set("shards", meta.shards);
  line.Set("threads", meta.threads);
  line.Set("seed", meta.seed);
  line.Set("period_us", meta.period_us);
  Write(line);
}

void Collector::SetNumLanes(size_t lanes) {
  lane_nanos_.assign(lanes, 0);
  lane_events_.assign(lanes, 0);
}

void Collector::RecordLaneDrain(size_t lane, int64_t nanos, uint64_t events) {
  if (lane >= lane_nanos_.size()) return;
  lane_nanos_[lane] += nanos;
  lane_events_[lane] += events;
}

void Collector::Sample(const SampleRow& row) {
  registry_.SetCounter(kEventsDispatched, row.events_dispatched);
  registry_.SetCounter(kQueriesAssigned, row.assigned);
  registry_.SetCounter(kQueriesCompleted, row.completed);
  registry_.SetCounter(kQueriesDropped, row.dropped);
  registry_.SetCounter(kQueriesExpired, row.expired);
  registry_.SetCounter(kQueriesBounced, row.bounced);
  registry_.SetCounter(kQueriesLost, row.lost);
  registry_.SetCounter(kRetries, row.retries);
  registry_.SetCounter(kMessages, row.messages);
  registry_.SetCounter(kSolicited, row.solicited);
  registry_.SetCounter(kTicks, row.ticks);
  registry_.SetCounter(kQueriesShed, row.shed);
  registry_.SetCounter(kAdmissionRejects, row.admission_rejects);
  registry_.SetGauge(kLogPriceVariance, row.log_price_variance);
  registry_.SetGauge(kOscFlipRate, row.osc_flip_rate);
  registry_.SetGauge(kMaxRejectAgeMs, row.max_reject_age_ms);
  registry_.SetGauge(kEarningsCv, row.earnings_cv);
  registry_.SetGauge(kOutstanding, static_cast<double>(row.outstanding));
  registry_.SetGauge(kBrownoutLevel,
                     static_cast<double>(row.brownout_level));

  // Collect-only collectors (no sink) stop here: building the Json line
  // costs ~two dozen node allocations per period, which a collector that
  // exists purely for in-memory phase attribution (bench A/B cells, the
  // shard bench) must not pay on the measured path.
  if (sink_ == nullptr) return;
  Json line = Json::MakeObject();
  line.Set("type", "msample");
  line.Set("t_us", row.t_us);
  line.Set("period", row.period);
  line.Set("ticks", row.ticks);
  line.Set("events", row.events_dispatched);
  line.Set("assigned", row.assigned);
  line.Set("completed", row.completed);
  line.Set("dropped", row.dropped);
  line.Set("expired", row.expired);
  line.Set("bounced", row.bounced);
  line.Set("lost", row.lost);
  line.Set("retries", row.retries);
  line.Set("messages", row.messages);
  line.Set("solicited", row.solicited);
  line.Set("outstanding", row.outstanding);
  line.Set("shed", row.shed);
  line.Set("admission_rejects", row.admission_rejects);
  line.Set("brownout", row.brownout_level);
  line.Set("log_price_var", row.log_price_variance);
  line.Set("osc_flip_rate", row.osc_flip_rate);
  line.Set("max_reject_age_ms", row.max_reject_age_ms);
  line.Set("earnings_cv", row.earnings_cv);
  Write(line);
}

void Collector::Alarm(const AlarmRecord& alarm) {
  registry_.Add(kAlarms, 1);
  if (sink_ == nullptr) return;
  Json line = Json::MakeObject();
  line.Set("type", "alarm");
  line.Set("t_us", alarm.t_us);
  line.Set("period", alarm.period);
  line.Set("watchdog", alarm.watchdog);
  line.Set("class", alarm.class_id);
  line.Set("value", alarm.value);
  line.Set("threshold", alarm.threshold);
  line.Set("detail", alarm.detail);
  Write(line);
}

void Collector::Finish() {
  if (finished_) return;
  finished_ = true;
  if (sink_ == nullptr) return;
  // A collector that metered no run has nothing to summarize: an all-zero
  // mstat block would read as a measured (empty) phase profile.
  if (!began_) {
    sink_->flush();
    return;
  }
  const std::vector<MetricDef>& catalog = Catalog();
  for (size_t i = 0; i < catalog.size(); ++i) {
    const MetricDef& def = catalog[i];
    Json line = Json::MakeObject();
    line.Set("type", "mstat");
    line.Set("name", std::string(def.name));
    switch (def.kind) {
      case Kind::kCounter:
        line.Set("kind", "counter");
        line.Set("value", registry_.counter(static_cast<int>(i)));
        break;
      case Kind::kGauge:
        line.Set("kind", "gauge");
        line.Set("value", registry_.gauge(static_cast<int>(i)));
        break;
      case Kind::kHistogram: {
        line.Set("kind", "histogram");
        const Histogram& h = registry_.histogram(static_cast<int>(i));
        line.Set("count", h.count);
        line.Set("sum", h.sum);
        line.Set("min", h.count > 0 ? h.min : 0);
        line.Set("max", h.count > 0 ? h.max : 0);
        Json buckets = Json::MakeArray();
        for (int b = 0; b < Histogram::kBuckets; ++b) {
          if (h.buckets[static_cast<size_t>(b)] == 0) continue;
          Json pair = Json::MakeArray();
          pair.Append(Histogram::BucketLowerBound(b));
          pair.Append(h.buckets[static_cast<size_t>(b)]);
          buckets.Append(std::move(pair));
        }
        line.Set("buckets", std::move(buckets));
        break;
      }
    }
    Write(line);
  }
  Json shards = Json::MakeObject();
  shards.Set("type", "mshards");
  Json nanos = Json::MakeArray();
  Json events = Json::MakeArray();
  for (size_t lane = 0; lane < lane_nanos_.size(); ++lane) {
    nanos.Append(lane_nanos_[lane]);
    events.Append(lane_events_[lane]);
  }
  shards.Set("lane_drain_ns", std::move(nanos));
  shards.Set("lane_events", std::move(events));
  Write(shards);
  sink_->flush();
}

void Collector::AddRun(const std::string& label, Json metrics) {
  Json line = Json::MakeObject();
  line.Set("type", "mrun");
  line.Set("label", label);
  line.Set("metrics", std::move(metrics));
  Write(line);
}

void Collector::AddField(const std::string& key, Json value) {
  Json line = Json::MakeObject();
  line.Set("type", "mfield");
  line.Set("key", key);
  line.Set("value", std::move(value));
  Write(line);
}

}  // namespace qa::obs::metrics
