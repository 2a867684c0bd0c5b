#ifndef QAMARKET_BENCH_BENCH_COMMON_H_
#define QAMARKET_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "allocation/factory.h"
#include "exec/experiment_runner.h"
#include "obs/metrics/collector.h"
#include "obs/recorder.h"
#include "sim/federation.h"
#include "sim/metrics_json.h"
#include "sim/scenario.h"
#include "util/table_writer.h"
#include "workload/sinusoid.h"

namespace qa::bench {

/// The flags every experiment binary shares, parsed in one place instead
/// of ad-hoc per-binary argv scans:
///   --quick        smaller grids/workloads for smoke runs
///   --threads=N    experiment-runner parallelism (N<1 = all hardware
///                  threads; 1 reproduces the serial behavior exactly)
///   --shards=N     simulator-core shard count for benches that run the
///                  sharded federation (0 = the bench's own default sweep;
///                  results are byte-identical at every count)
///   --seed=S       master RNG seed
///   --trace=FILE   stream a JSONL telemetry trace of the binary's traced
///                  run into FILE (analyze with tools/qa_trace)
///   --metrics=FILE stream the binary's JSONL metrics into FILE: the
///                  traced run's per-period samples, watchdog alarms and
///                  phase wall-time stats, plus one `mrun` record per
///                  reported run and one `mfield` per bench-level value
///                  (analyze with tools/qa_perf)
struct BenchArgs {
  bool quick = false;
  int threads = 0;  // 0 => hardware_concurrency
  int shards = 0;   // 0 => bench-defined sweep
  uint64_t seed = 42;
  std::string trace_path;
  std::string metrics_path;

  static BenchArgs Parse(int argc, char** argv, uint64_t default_seed = 42) {
    BenchArgs args;
    args.seed = default_seed;
    for (int i = 1; i < argc; ++i) {
      std::string arg(argv[i]);
      if (arg == "--quick") {
        args.quick = true;
      } else if (arg.rfind("--threads=", 0) == 0) {
        args.threads = std::atoi(arg.c_str() + 10);
      } else if (arg.rfind("--shards=", 0) == 0) {
        args.shards = std::atoi(arg.c_str() + 9);
      } else if (arg.rfind("--seed=", 0) == 0) {
        args.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
      } else if (arg.rfind("--trace=", 0) == 0) {
        args.trace_path = arg.substr(8);
      } else if (arg.rfind("--metrics=", 0) == 0) {
        args.metrics_path = arg.substr(10);
      } else {
        std::cerr << "warning: ignoring unknown flag '" << arg
                  << "' (known: --quick --threads=N --shards=N --seed=S "
                     "--trace=FILE --metrics=FILE)\n";
      }
    }
    return args;
  }

  /// The runner this invocation asked for.
  exec::ExperimentRunner MakeRunner() const {
    return exec::ExperimentRunner(threads);
  }
};

/// The telemetry outputs of one experiment binary: the optional JSONL
/// trace recorder (--trace) and the optional JSONL metrics collector
/// (--metrics), which also carries the bench's run results as `mrun` /
/// `mfield` records. Construct it once near the top of main(); it writes
/// everything out on destruction. With neither flag set every call is a
/// cheap no-op.
class Telemetry {
 public:
  Telemetry(const BenchArgs& args, const std::string& bench_name) {
    if (!args.trace_path.empty()) {
      util::StatusOr<std::unique_ptr<obs::Recorder>> opened =
          obs::Recorder::OpenFile(args.trace_path);
      if (opened.ok()) {
        recorder_ = std::move(opened).value();
      } else {
        std::cerr << "warning: --trace: " << opened.status()
                  << "; tracing disabled\n";
      }
    }
    if (!args.metrics_path.empty()) {
      util::StatusOr<std::unique_ptr<obs::metrics::Collector>> opened =
          obs::metrics::Collector::OpenFile(args.metrics_path);
      if (opened.ok()) {
        collector_ = std::move(opened).value();
      } else {
        std::cerr << "warning: --metrics: " << opened.status()
                  << "; metrics disabled\n";
      }
    }
    ReportField("bench", bench_name);
    ReportField("seed", args.seed);
  }

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  ~Telemetry() {
    if (recorder_ != nullptr) recorder_->Finish();
    if (collector_ != nullptr) collector_->Finish();
  }

  /// Null when --trace was not given (probes compile to one branch).
  obs::Recorder* recorder() { return recorder_.get(); }

  /// Null when --metrics was not given.
  obs::metrics::Collector* collector() { return collector_.get(); }

  /// Attaches the trace recorder and the metrics collector to `spec`. Both
  /// are single-writer: attach them to exactly one spec per binary
  /// (benches pick their QA-NT run) so parallel grid execution stays
  /// race-free.
  void Attach(exec::RunSpec& spec) {
    spec.config.recorder = recorder_.get();
    spec.config.metrics = collector_.get();
  }

  /// Writes one labeled SimMetrics row as an `mrun` record.
  void Report(const std::string& label, const sim::SimMetrics& metrics) {
    if (collector_ != nullptr) {
      collector_->AddRun(label, sim::MetricsToJson(metrics));
    }
  }

  /// Writes a bench-level value (capacity estimate, grid shape, a sweep's
  /// per-cell row...) as an `mfield` record.
  void ReportField(const std::string& key, obs::Json value) {
    if (collector_ != nullptr) collector_->AddField(key, std::move(value));
  }

 private:
  std::unique_ptr<obs::Recorder> recorder_;
  std::unique_ptr<obs::metrics::Collector> collector_;
};

/// Builds the standard grid cell shared by the figure benches.
inline exec::RunSpec MakeSpec(const query::CostModel& cost_model,
                              const std::string& mechanism,
                              const workload::Trace& trace,
                              util::VDuration period, uint64_t seed,
                              int max_retries = 5000) {
  exec::RunSpec spec;
  spec.cost_model = &cost_model;
  spec.mechanism = mechanism;
  spec.trace = &trace;
  spec.period = period;
  spec.seed = seed;
  spec.config.max_retries = max_retries;
  return spec;
}

/// Runs one mechanism over one trace on one cost model and returns the
/// metrics. Every experiment binary funnels through this (or through
/// exec::ExperimentRunner, which uses the same RunSpecOnce path) so
/// mechanisms are compared under identical conditions. Aborts on an
/// unknown mechanism name.
inline sim::SimMetrics RunMechanism(const query::CostModel& cost_model,
                                    const std::string& mechanism,
                                    const workload::Trace& trace,
                                    util::VDuration period, uint64_t seed,
                                    int max_retries = 5000) {
  return exec::RunSpecOnce(
             MakeSpec(cost_model, mechanism, trace, period, seed,
                      max_retries))
      .metrics;
}

/// Prints the experiment banner: id, description, seed.
inline void Banner(const std::string& experiment,
                   const std::string& description, uint64_t seed) {
  std::cout << "==================================================\n"
            << experiment << ": " << description << "\n"
            << "(seed=" << seed << ", deterministic)\n"
            << "==================================================\n";
}

}  // namespace qa::bench

#endif  // QAMARKET_BENCH_BENCH_COMMON_H_
