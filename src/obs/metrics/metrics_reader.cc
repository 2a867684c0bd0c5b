#include "obs/metrics/metrics_reader.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

namespace qa::obs::metrics {

const MetricStat* ParsedMetrics::FindStat(const std::string& name) const {
  for (const MetricStat& stat : stats) {
    if (stat.name == name) return &stat;
  }
  return nullptr;
}

util::StatusOr<ParsedMetrics> ParsedMetrics::Load(const std::string& path) {
  std::ifstream file(path);
  if (!file.is_open()) {
    return util::Status::NotFound("cannot open metrics file: " + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return Parse(buffer.str());
}

util::StatusOr<ParsedMetrics> ParsedMetrics::Parse(const std::string& text) {
  ParsedMetrics parsed;
  size_t pos = 0;
  int line_no = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    std::string_view line(text.data() + pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.empty()) continue;
    util::StatusOr<Json> json = Json::Parse(line);
    if (!json.ok()) {
      return util::Status::InvalidArgument(
          "metrics line " + std::to_string(line_no) + ": " +
          json.status().message());
    }
    const Json& record = *json;
    const std::string type = record.GetString("type");
    if (type == "mmeta") {
      parsed.meta = record;
    } else if (type == "msample") {
      parsed.samples.push_back(record);
    } else if (type == "alarm") {
      AlarmRecord alarm;
      alarm.t_us = record.GetInt("t_us");
      alarm.period = record.GetInt("period");
      alarm.watchdog = record.GetString("watchdog");
      alarm.class_id = static_cast<int>(record.GetInt("class", -1));
      alarm.value = record.GetDouble("value");
      alarm.threshold = record.GetDouble("threshold");
      alarm.detail = record.GetString("detail");
      parsed.alarms.push_back(std::move(alarm));
    } else if (type == "mstat") {
      MetricStat stat;
      stat.name = record.GetString("name");
      stat.kind = record.GetString("kind");
      if (stat.kind == "gauge") {
        stat.gauge = record.GetDouble("value");
      } else if (stat.kind == "histogram") {
        stat.count = static_cast<uint64_t>(record.GetInt("count"));
        stat.sum = record.GetInt("sum");
        stat.min = record.GetInt("min");
        stat.max = record.GetInt("max");
        if (const Json* buckets = record.Find("buckets");
            buckets != nullptr && buckets->is_array()) {
          for (const Json& pair : buckets->array()) {
            if (!pair.is_array() || pair.array().size() != 2) continue;
            stat.buckets.emplace_back(
                pair.array()[0].AsInt(),
                static_cast<uint64_t>(pair.array()[1].AsInt()));
          }
        }
      } else {
        stat.value = record.GetInt("value");
      }
      parsed.stats.push_back(std::move(stat));
    } else if (type == "mrun") {
      const Json* metrics = record.Find("metrics");
      parsed.runs.push_back({record.GetString("label"),
                             metrics != nullptr ? *metrics : Json()});
    } else if (type == "mfield") {
      const Json* value = record.Find("value");
      parsed.fields.push_back(
          {record.GetString("key"), value != nullptr ? *value : Json()});
    } else if (type == "mshards") {
      if (const Json* nanos = record.Find("lane_drain_ns");
          nanos != nullptr && nanos->is_array()) {
        for (const Json& v : nanos->array()) {
          parsed.lane_drain_ns.push_back(v.AsInt());
        }
      }
      if (const Json* events = record.Find("lane_events");
          events != nullptr && events->is_array()) {
        for (const Json& v : events->array()) {
          parsed.lane_events.push_back(v.AsInt());
        }
      }
    } else {
      return util::Status::InvalidArgument(
          "metrics line " + std::to_string(line_no) +
          ": unknown record type '" + type + "'");
    }
  }
  return parsed;
}

double LaneImbalance(const std::vector<int64_t>& lane_drain_ns) {
  int64_t max_ns = 0, total_ns = 0;
  for (int64_t ns : lane_drain_ns) {
    max_ns = std::max(max_ns, ns);
    total_ns += ns;
  }
  return total_ns > 0 ? static_cast<double>(max_ns) *
                            static_cast<double>(lane_drain_ns.size()) /
                            static_cast<double>(total_ns)
                      : 0.0;
}

}  // namespace qa::obs::metrics
