// Whole-process benchmark program: runs ONE named workload end to end
// through the program's public API and prints one JSON line with its
// host-time and virtual-time results.
//
//   qa_perfbench --workload NAME --seed N [--trace 0|1] [--t0-ns NS]
//
// Steps, each timed as a top-level span of the process ledger (a workload
// of several replicas does each per-replica step for all of them):
//   query.model_build   build the cost model
//   market.capacity     sim::EstimateCapacityQps (checked against the
//                       recorded constant)
//   workload.gen        generate the arrival traces (and fault plans)
//   allocation.build    allocation::CreateAllocator
//   sim.ctor            thread pool + sim::Federation construction
//   sim.run             Federation::Run
//   stats.summary       pooled response-time mean / p50 / p99
//
// --trace 1 additionally wraps the allocator, the task runner and the cost
// model in the timing wrappers of wrappers.h and attaches a collect-only
// obs::metrics::Collector, then reports per-layer metrics. Simulated
// results must not change (run.py checks that they do not).
//
// --t0-ns is the CLOCK_MONOTONIC reading (ns) taken by the parent just
// before it spawned this process; wall_s is measured from it, so process
// start-up counts. Without it, wall_s starts at main().
//
// Exit codes: 0 ok; 1 an output check failed; 2 bad arguments.

#include <sys/resource.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "allocation/cluster_plan.h"
#include "allocation/factory.h"
#include "cpp/wrappers.h"
#include "exec/thread_pool.h"
#include "obs/json.h"
#include "obs/metrics/collector.h"
#include "sim/federation.h"
#include "sim/metrics.h"
#include "sim/scenario.h"
#include "stats/summary.h"
#include "util/rng.h"
#include "workload/sinusoid.h"
#include "workload/zipf_workload.h"

namespace {

using namespace qa;
using util::kMillisecond;

// ---------------------------------------------------------------------
// Workload constants. The cost model of every workload is built from a
// fixed model seed, so it is the same federation on every run; --seed
// drives the arrivals, the allocator RNG and the fault plan. Offered
// rates derive from the capacity recorded here, never from the value the
// estimator returns at run time, so a change to the estimator cannot
// change its own workload. The estimator still runs in set-up and its
// output must stay within kCapacityTolerance of the recorded value.
// ---------------------------------------------------------------------
constexpr uint64_t kModelSeed = 42;
constexpr double kCapacityTolerance = 0.05;
const util::VDuration kPeriod = 500 * kMillisecond;

// fig4_broadcast_100: the §5.1 / Fig. 4 operating point.
constexpr int kFig4Nodes = 100;
constexpr int kFig4Replicas = 4;
constexpr double kFig4CapacityQps = 121.4;
constexpr double kFig4PeakLoad = 0.95;
constexpr double kFig4DurationS = 1000.0;

// zipf_overload_100: Table 3 federation, Fig. 6 Zipf arrivals.
constexpr int kZipfReplicas = 16;
constexpr int kZipfQueries = 5000;
constexpr int64_t kZipfInterarrivalMs = 1000;

// hier_100k: two-tier market over 100,000 nodes.
constexpr int kHierNodes = 100000;
constexpr int kHierRefNodes = 2000;
constexpr double kHierRefCapacityQps = 2431.4;
constexpr double kHierLoad = 0.70;
constexpr double kHierDurationS = 4.0;
constexpr int kHierShards = 4;
// Half of a 4-core host: a fork-join waits for its slowest thread, so a
// pool as wide as the machine times the scheduler as much as the program.
constexpr int kHierThreads = 2;
constexpr int kHierFanout = 8;

// chaos_flat_10k: flat bounded-fanout market under a seeded fault plan.
constexpr int kChaosNodes = 10000;
constexpr int kChaosRefNodes = 1000;
constexpr double kChaosRefCapacityQps = 1214.8;
constexpr double kChaosLoad = 0.70;
constexpr double kChaosDurationS = 6.0;
constexpr int kChaosFanout = 16;
constexpr int kChaosCrashes = 20;
constexpr double kChaosPartitionShare = 0.01;
constexpr double kChaosLossProbability = 0.05;

constexpr int kMaxRetries = 5000;

enum class Workload { kFig4, kZipf, kHier, kChaos };

struct Options {
  Workload workload = Workload::kFig4;
  std::string workload_name;
  uint64_t seed = 1;
  bool trace = false;
  int64_t t0_ns = 0;
};

/// One top-level step of the process ledger.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// One independent simulation of the workload: its own arrivals,
/// allocator and federation. Workloads whose virtual-time results vary
/// much from seed to seed run several replicas (seeds derived from --seed)
/// and pool their response times, which steadies the reported figures.
struct Replica {
  workload::Trace trace;
  sim::FederationConfig config;
  std::unique_ptr<allocation::Allocator> allocator;
  perfbench::TimedAllocator* timed_allocator = nullptr;
  std::unique_ptr<obs::metrics::Collector> collector;
  std::unique_ptr<sim::Federation> federation;
  sim::SimMetrics metrics;
};

/// Everything set-up builds, owned for the life of the run.
struct Setup {
  sim::Scenario scenario;  // catalog (Table 3 only) + cost model
  double capacity_qps = 0.0;
  double recorded_capacity_qps = 0.0;
  int64_t capacity_cost_calls = 0;
  std::unique_ptr<exec::ThreadPool> pool;
  std::unique_ptr<exec::PoolRunner> runner;
  std::unique_ptr<perfbench::TimedTaskRunner> timed_runner;
  std::vector<Replica> replicas;
};

int Replicas(Workload workload) {
  switch (workload) {
    case Workload::kFig4:
      return kFig4Replicas;
    case Workload::kZipf:
      return kZipfReplicas;
    default:
      return 1;
  }
}

/// Seed of one random stream (0 arrivals, 1 allocator, 2 fault plan) of
/// one replica.
uint64_t StreamSeed(uint64_t seed, int replica, int stream) {
  return util::MixSeed(seed, static_cast<uint64_t>(3 * replica + stream));
}

bool ParseOptions(int argc, char** argv, Options* options) {
  if (argc % 2 != 1) return false;  // flag/value pairs only
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload_name = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (flag == "--t0-ns") {
      options->t0_ns = std::strtoll(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else {
      return false;
    }
  }
  const std::string& name = options->workload_name;
  if (name == "fig4_broadcast_100") {
    options->workload = Workload::kFig4;
  } else if (name == "zipf_overload_100") {
    options->workload = Workload::kZipf;
  } else if (name == "hier_100k") {
    options->workload = Workload::kHier;
  } else if (name == "chaos_flat_10k") {
    options->workload = Workload::kChaos;
  } else {
    return false;
  }
  return true;
}

// ---- set-up steps ----------------------------------------------------

std::unique_ptr<query::MatrixCostModel> TwoClassModel(int nodes) {
  util::Rng rng(kModelSeed);
  sim::TwoClassConfig config;
  config.num_nodes = nodes;
  return sim::BuildTwoClassCostModel(config, rng);
}

void BuildModel(const Options& options, Setup* setup) {
  switch (options.workload) {
    case Workload::kFig4:
      setup->scenario.cost_model = TwoClassModel(kFig4Nodes);
      break;
    case Workload::kZipf: {
      util::Rng rng(kModelSeed);
      setup->scenario = sim::BuildTable3Scenario(sim::Table3Config(), rng);
      break;
    }
    case Workload::kHier:
      setup->scenario.cost_model = TwoClassModel(kHierNodes);
      break;
    case Workload::kChaos:
      setup->scenario.cost_model = TwoClassModel(kChaosNodes);
      break;
  }
}

/// Runs the estimator the way the repo's benches do: directly on the
/// 100-node model (bench_fig4_algorithms), and on a reference model scaled
/// linearly to N for the large federations (bench_scale_nodes). Counts cost
/// lookups when traced.
double Estimate(const query::CostModel& model, const std::vector<double>& mix,
                bool trace, int64_t* cost_calls) {
  if (!trace) return sim::EstimateCapacityQps(model, mix, kPeriod);
  perfbench::CountingCostModel counting(&model);
  double qps = sim::EstimateCapacityQps(counting, mix, kPeriod);
  *cost_calls += counting.calls();
  return qps;
}

void EstimateCapacity(const Options& options, Setup* setup) {
  const query::CostModel& model = *setup->scenario.cost_model;
  int64_t* calls = &setup->capacity_cost_calls;
  switch (options.workload) {
    case Workload::kFig4:
      setup->capacity_qps = Estimate(model, {2.0, 1.0}, options.trace, calls);
      setup->recorded_capacity_qps = kFig4CapacityQps;
      break;
    case Workload::kZipf:
      // Like bench_fig6_zipf: the Zipf rate is set by the per-class
      // inter-arrival time, so no capacity estimate is taken.
      break;
    case Workload::kHier:
    case Workload::kChaos: {
      bool hier = options.workload == Workload::kHier;
      int ref_nodes = hier ? kHierRefNodes : kChaosRefNodes;
      int nodes = hier ? kHierNodes : kChaosNodes;
      std::unique_ptr<query::MatrixCostModel> ref = TwoClassModel(ref_nodes);
      setup->capacity_qps = Estimate(*ref, {2.0, 1.0}, options.trace, calls) *
                            static_cast<double>(nodes) /
                            static_cast<double>(ref_nodes);
      setup->recorded_capacity_qps =
          (hier ? kHierRefCapacityQps : kChaosRefCapacityQps) *
          static_cast<double>(nodes) / static_cast<double>(ref_nodes);
      break;
    }
  }
}

workload::Trace Sinusoid(double q1_peak_rate, double duration_s,
                         double frequency_hz, int nodes, uint64_t seed) {
  workload::SinusoidConfig config;
  config.q1_peak_rate = q1_peak_rate;
  config.duration = util::FromSeconds(duration_s);
  config.frequency_hz = frequency_hz;
  config.num_origin_nodes = nodes;
  util::Rng rng(seed);
  return workload::GenerateSinusoidWorkload(config, rng);
}

/// The chaos plan: crashes with restart on distinct nodes, one partition
/// window over 1% of the nodes, and a one-second loss window on every link.
sim::faults::FaultPlan ChaosPlan(uint64_t seed) {
  util::Rng rng(seed);
  sim::faults::FaultPlan plan;
  plan.seed = seed;
  const double d = kChaosDurationS;
  for (int node : rng.Sample(kChaosNodes, kChaosCrashes)) {
    double at = rng.UniformReal(0.1 * d, 0.7 * d);
    double down = rng.UniformReal(0.5, 1.5);
    plan.crashes.push_back({node, util::FromSeconds(at),
                            util::FromSeconds(at + down)});
  }
  sim::faults::PartitionFault partition;
  int cut = static_cast<int>(kChaosPartitionShare * kChaosNodes);
  for (int node : rng.Sample(kChaosNodes, cut)) {
    partition.nodes.push_back(node);
  }
  double cut_at = rng.UniformReal(0.2 * d, 0.4 * d);
  partition.from = util::FromSeconds(cut_at);
  partition.until = util::FromSeconds(cut_at + 1.0);
  plan.partitions.push_back(std::move(partition));
  sim::faults::LinkFault loss;
  loss.node = sim::faults::LinkFault::kAllNodes;
  double loss_at = rng.UniformReal(0.45 * d, 0.55 * d);
  loss.from = util::FromSeconds(loss_at);
  loss.until = util::FromSeconds(loss_at + 1.0);
  loss.drop_probability = kChaosLossProbability;
  plan.links.push_back(loss);
  return plan;
}

void GenerateWorkload(const Options& options, Setup* setup) {
  const query::CostModel& model = *setup->scenario.cost_model;
  setup->replicas.resize(static_cast<size_t>(Replicas(options.workload)));
  for (size_t r = 0; r < setup->replicas.size(); ++r) {
    Replica& replica = setup->replicas[r];
    const uint64_t arrivals_seed =
        StreamSeed(options.seed, static_cast<int>(r), 0);
    switch (options.workload) {
      case Workload::kFig4:
        // The classes are anti-phased, so the peak instantaneous rate is
        // about q1_peak_rate: "peak slightly below capacity".
        replica.trace = Sinusoid(kFig4PeakLoad * kFig4CapacityQps,
                                 kFig4DurationS, 0.05, kFig4Nodes,
                                 arrivals_seed);
        break;
      case Workload::kZipf: {
        workload::ZipfWorkloadConfig config;
        config.num_queries = kZipfQueries;
        config.num_classes = model.num_classes();
        config.mean_interarrival = kZipfInterarrivalMs * kMillisecond;
        config.num_origin_nodes = model.num_nodes();
        util::Rng rng(arrivals_seed);
        replica.trace = workload::GenerateZipfWorkload(config, rng);
        break;
      }
      case Workload::kHier:
        replica.trace = Sinusoid(
            kHierLoad * kHierRefCapacityQps * kHierNodes / kHierRefNodes,
            kHierDurationS, 1.0 / kHierDurationS, kHierNodes, arrivals_seed);
        break;
      case Workload::kChaos:
        replica.trace = Sinusoid(
            kChaosLoad * kChaosRefCapacityQps * kChaosNodes / kChaosRefNodes,
            kChaosDurationS, 1.0 / kChaosDurationS, kChaosNodes,
            arrivals_seed);
        replica.config.faults =
            ChaosPlan(StreamSeed(options.seed, static_cast<int>(r), 2));
        break;
    }
  }
}

void BuildAllocators(const Options& options, Setup* setup) {
  for (size_t r = 0; r < setup->replicas.size(); ++r) {
    Replica& replica = setup->replicas[r];
    const uint64_t seed = StreamSeed(options.seed, static_cast<int>(r), 1);
    sim::FederationConfig& config = replica.config;
    config.period = kPeriod;
    config.max_retries = kMaxRetries;
    config.seed = static_cast<int64_t>(seed);
    if (options.workload == Workload::kHier) {
      config.solicitation.policy =
          allocation::SolicitationPolicy::kUniformSample;
      config.solicitation.fanout = kHierFanout;
      int clusters = static_cast<int>(
          std::lround(std::sqrt(static_cast<double>(kHierNodes))));
      config.cluster_plan =
          allocation::ClusterPlan::Uniform(kHierNodes, clusters, kHierFanout);
    } else if (options.workload == Workload::kChaos) {
      config.solicitation.policy =
          allocation::SolicitationPolicy::kUniformSample;
      config.solicitation.fanout = kChaosFanout;
    }
    allocation::AllocatorParams params;
    params.cost_model = setup->scenario.cost_model.get();
    params.period = kPeriod;
    params.seed = seed;
    params.solicitation = config.solicitation;
    params.cluster_plan = config.cluster_plan;
    std::unique_ptr<allocation::Allocator> allocator =
        allocation::CreateAllocator("QA-NT", params);
    if (options.trace) {
      auto timed =
          std::make_unique<perfbench::TimedAllocator>(std::move(allocator));
      replica.timed_allocator = timed.get();
      allocator = std::move(timed);
    }
    replica.allocator = std::move(allocator);
  }
}

void BuildFederations(const Options& options, Setup* setup) {
  const util::TaskRunner* runner = nullptr;
  if (options.workload == Workload::kHier) {
    setup->pool = std::make_unique<exec::ThreadPool>(kHierThreads);
    setup->runner = std::make_unique<exec::PoolRunner>(setup->pool.get());
    runner = setup->runner.get();
    if (options.trace) {
      setup->timed_runner =
          std::make_unique<perfbench::TimedTaskRunner>(runner);
      runner = setup->timed_runner.get();
    }
  }
  for (Replica& replica : setup->replicas) {
    sim::FederationConfig config = replica.config;
    if (runner != nullptr) {
      config.shards = kHierShards;
      config.runner = runner;
    }
    if (options.trace) {
      replica.collector = std::make_unique<obs::metrics::Collector>();
      config.metrics = replica.collector.get();
    }
    replica.federation = std::make_unique<sim::Federation>(
        setup->scenario.cost_model.get(), replica.allocator.get(), config);
  }
}

/// Phase-histogram total (seconds) over every replica's collector.
double PhaseSeconds(const Setup& setup, obs::metrics::Phase phase) {
  int64_t nanos = 0;
  for (const Replica& replica : setup.replicas) {
    nanos += replica.collector->registry()
                 .histogram(obs::metrics::Collector::PhaseMetric(phase))
                 .sum;
  }
  return static_cast<double>(nanos) * 1e-9;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Seconds(int64_t nanos) { return static_cast<double>(nanos) * 1e-9; }

/// Counters summed over the replicas.
struct Totals {
  int64_t arrivals = 0, completed = 0, dropped = 0, expired = 0, shed = 0;
  int64_t assigned = 0, retries = 0, lost = 0, bounced = 0, messages = 0;
  int64_t solicited = 0, events = 0, end_time_us = 0, busy_time_us = 0;
};

Totals Sum(const std::vector<Replica>& replicas) {
  Totals t;
  for (const Replica& replica : replicas) {
    const sim::SimMetrics& m = replica.metrics;
    t.arrivals += m.arrivals;
    t.completed += m.completed;
    t.dropped += m.dropped;
    t.expired += m.expired;
    t.shed += m.shed;
    t.assigned += m.assigned;
    t.retries += m.retries;
    t.lost += m.lost;
    t.bounced += m.bounced;
    t.messages += m.messages;
    t.solicited += m.solicited;
    t.events += m.events_dispatched;
    t.end_time_us += m.end_time;
    t.busy_time_us += m.total_busy_time;
  }
  return t;
}

/// The output checks of one replica; failures are appended to `failures`.
void CheckReplica(const sim::SimMetrics& m, size_t r,
                  std::vector<std::string>* failures) {
  std::string where = "replica " + std::to_string(r) + ": ";
  if (m.arrivals != m.completed + m.dropped) {
    failures->push_back(where + "arrivals != completed + dropped");
  }
  if (m.expired > m.dropped) failures->push_back(where + "expired > dropped");
  if (m.shed > m.dropped) failures->push_back(where + "shed > dropped");
  if (m.completed <= 0) failures->push_back(where + "no completed queries");
  if (m.response_time_ms.count() != static_cast<size_t>(m.completed)) {
    failures->push_back(where + "response-time samples != completed");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t main_ns = perfbench::NowNs();
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: qa_perfbench --workload "
                 "fig4_broadcast_100|zipf_overload_100|hier_100k|"
                 "chaos_flat_10k --seed N [--trace 0|1] [--t0-ns NS]\n");
    return 2;
  }
  const int64_t t0 = options.t0_ns > 0 ? options.t0_ns : main_ns;

  // The process ledger: one span per top-level step, kept in memory and
  // written with the result.
  std::vector<Span> spans;
  auto step = [&spans](const char* name, auto&& fn) {
    int64_t start = perfbench::NowNs();
    fn();
    spans.push_back({name, start, perfbench::NowNs()});
  };

  Setup setup;
  step("query.model_build", [&] { BuildModel(options, &setup); });
  step("market.capacity", [&] { EstimateCapacity(options, &setup); });
  step("workload.gen", [&] { GenerateWorkload(options, &setup); });
  step("allocation.build", [&] { BuildAllocators(options, &setup); });
  step("sim.ctor", [&] { BuildFederations(options, &setup); });
  const int64_t setup_end = perfbench::NowNs();
  step("sim.run", [&] {
    for (Replica& replica : setup.replicas) {
      replica.metrics = replica.federation->Run(replica.trace);
    }
  });
  const int64_t run_ns = spans.back().end_ns - spans.back().start_ns;
  stats::Summary response_ms;
  double resp_mean = 0.0, resp_p50 = 0.0, resp_p99 = 0.0;
  step("stats.summary", [&] {
    for (const Replica& replica : setup.replicas) {
      for (double v : replica.metrics.response_time_ms.values()) {
        response_ms.Add(v);
      }
    }
    resp_mean = response_ms.Mean();
    resp_p50 = response_ms.Percentile(50);
    resp_p99 = response_ms.Percentile(99);
  });
  const int64_t end_ns = perfbench::NowNs();

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  const double cpu_s = tv(usage.ru_utime) + tv(usage.ru_stime);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  const double wall_s = Seconds(end_ns - t0);
  const double setup_s = Seconds(setup_end - spans.front().start_ns);
  const double run_s = Seconds(run_ns);

  // ---- output checks ----
  std::vector<std::string> failures;
  for (size_t r = 0; r < setup.replicas.size(); ++r) {
    CheckReplica(setup.replicas[r].metrics, r, &failures);
  }
  const double capacity_drift =
      setup.recorded_capacity_qps > 0.0
          ? std::fabs(setup.capacity_qps - setup.recorded_capacity_qps) /
                setup.recorded_capacity_qps
          : 0.0;
  if (!(capacity_drift <= kCapacityTolerance)) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "capacity %.6g q/s is %.2f%% off the recorded %.6g q/s "
                  "(tolerance %.0f%%)",
                  setup.capacity_qps, 100.0 * capacity_drift,
                  setup.recorded_capacity_qps, 100.0 * kCapacityTolerance);
    failures.push_back(buf);
  }

  obs::Json out;
  out.Set("workload", options.workload_name);
  out.Set("seed", static_cast<int64_t>(options.seed));
  out.Set("trace", options.trace ? 1 : 0);
  out.Set("replicas", static_cast<int64_t>(setup.replicas.size()));
  obs::Json failure_list = obs::Json::MakeArray();
  for (const std::string& failure : failures) failure_list.Append(failure);
  out.Set("failures", std::move(failure_list));

  obs::Json host;
  host.Set("wall_s", wall_s);
  host.Set("setup_s", setup_s);
  host.Set("run_s", run_s);
  host.Set("cpu_s", cpu_s);
  host.Set("peak_rss_mb", peak_rss_mb);
  out.Set("host", std::move(host));

  // Virtual-time results: a pure function of the seed, compared exactly
  // across repetitions and between traced and untraced runs.
  const Totals t = Sum(setup.replicas);
  const double arrivals = static_cast<double>(t.arrivals);
  obs::Json simulated;
  simulated.Set("resp_mean_ms", resp_mean);
  simulated.Set("resp_p50_ms", resp_p50);
  simulated.Set("resp_p99_ms", resp_p99);
  simulated.Set("resp_samples", static_cast<int64_t>(response_ms.count()));
  simulated.Set("msgs_per_query",
                Ratio(static_cast<double>(t.messages), arrivals));
  simulated.Set("drop_frac", Ratio(static_cast<double>(t.dropped), arrivals));
  simulated.Set("arrivals", t.arrivals);
  simulated.Set("completed", t.completed);
  simulated.Set("dropped", t.dropped);
  simulated.Set("expired", t.expired);
  simulated.Set("shed", t.shed);
  simulated.Set("assigned", t.assigned);
  simulated.Set("retries", t.retries);
  simulated.Set("lost", t.lost);
  simulated.Set("bounced", t.bounced);
  simulated.Set("messages", t.messages);
  simulated.Set("solicited", t.solicited);
  simulated.Set("events", t.events);
  simulated.Set("end_time_us", t.end_time_us);
  simulated.Set("busy_time_us", t.busy_time_us);
  simulated.Set("capacity_qps", setup.capacity_qps);
  out.Set("sim", std::move(simulated));

  if (options.trace) {
    obs::Json layers;
    double ledger_s = 0.0;
    for (const Span& span : spans) {
      std::string key = std::string(span.name) + "_s";
      layers.Set(key, span.seconds());
      ledger_s += span.seconds();
    }
    layers.Set("unattributed_s", wall_s - ledger_s);
    layers.Set("market.capacity_qps", setup.capacity_qps);
    layers.Set("market.capacity_cost_calls", setup.capacity_cost_calls);
    int64_t trace_arrivals = 0;
    for (const Replica& replica : setup.replicas) {
      trace_arrivals += static_cast<int64_t>(replica.trace.size());
    }
    layers.Set("workload.arrivals", trace_arrivals);

    // Allocation layer, summed over replicas; latency percentiles pool
    // the replicas' sampled attempts.
    perfbench::LatencyHistogram latency;
    uint64_t attempts = 0;
    int64_t assigned = 0, solicited = 0, allocate_ns = 0;
    int64_t period_calls = 0, period_ns = 0, other_ns = 0;
    for (const Replica& replica : setup.replicas) {
      const perfbench::TimedAllocator& alloc = *replica.timed_allocator;
      latency.Merge(alloc.latency());
      attempts += alloc.attempts();
      assigned += alloc.assigned();
      solicited += alloc.solicited();
      allocate_ns += alloc.allocate_ns();
      period_calls += alloc.period_calls();
      period_ns += alloc.period_ns();
      other_ns += alloc.other_ns();
    }
    const double alloc_s = Seconds(allocate_ns);
    const double period_s = Seconds(period_ns);
    const double other_s = Seconds(other_ns);
    const double n_attempts = static_cast<double>(attempts);
    layers.Set("allocation.attempts", static_cast<int64_t>(attempts));
    layers.Set("allocation.allocate_s", alloc_s);
    layers.Set("allocation.allocate_p50_us", latency.Percentile(50) * 1e-3);
    layers.Set("allocation.allocate_p99_us", latency.Percentile(99) * 1e-3);
    layers.Set("allocation.accept_ratio",
               Ratio(static_cast<double>(assigned), n_attempts));
    layers.Set("allocation.solicited_per_attempt",
               Ratio(static_cast<double>(solicited), n_attempts));
    layers.Set("allocation.period_calls", period_calls);
    layers.Set("allocation.period_s", period_s);
    layers.Set("allocation.other_s", other_s);

    // The simulator's self time: the Run span minus the allocator calls
    // made from inside it.
    layers.Set("sim.self_s", run_s - alloc_s - period_s - other_s);
    layers.Set("sim.events", t.events);
    layers.Set("sim.events_per_s", Ratio(static_cast<double>(t.events), run_s));
    layers.Set("sim.retries_per_query",
               Ratio(static_cast<double>(t.retries), arrivals));
    layers.Set("sim.lost", t.lost);
    layers.Set("sim.bounced", t.bounced);

    using obs::metrics::Phase;
    layers.Set("sim.phase.mediator_dispatch_s",
               PhaseSeconds(setup, Phase::kMediatorDispatch));
    layers.Set("sim.phase.market_tick_s",
               PhaseSeconds(setup, Phase::kMarketTick));
    layers.Set("sim.phase.lane_drain_s",
               PhaseSeconds(setup, Phase::kLaneDrain));
    layers.Set("sim.phase.merge_s", PhaseSeconds(setup, Phase::kMerge));
    layers.Set("sim.phase.rollover_s", PhaseSeconds(setup, Phase::kRollover));
    layers.Set("sim.phase.bid_scan_s", PhaseSeconds(setup, Phase::kBidScan));

    const perfbench::TimedTaskRunner* runner = setup.timed_runner.get();
    const double fork_join_s =
        runner != nullptr ? Seconds(runner->fork_join_ns()) : 0.0;
    const double busy_s =
        runner != nullptr ? Seconds(runner->task_busy_ns()) : 0.0;
    layers.Set("exec.fork_joins", runner != nullptr ? runner->fork_joins() : 0);
    layers.Set("exec.fork_join_s", fork_join_s);
    layers.Set("exec.task_busy_s", busy_s);
    layers.Set("exec.parallel_efficiency",
               runner != nullptr
                   ? Ratio(busy_s, fork_join_s * runner->concurrency())
                   : 0.0);
    out.Set("layers", std::move(layers));
  }

  std::printf("%s\n", out.Dump().c_str());
  std::fflush(stdout);
  if (!failures.empty()) {
    for (const std::string& failure : failures) {
      std::fprintf(stderr, "%s: check failed: %s\n",
                   options.workload_name.c_str(), failure.c_str());
    }
    return 1;
  }
  return 0;
}
