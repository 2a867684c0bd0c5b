// Flash-crowd overload sweep — the robustness counterpart to the fault
// chaos matrix. One 85-second sinusoid at 70% of capacity is hit by a
// global arrival-rate surge ([40s,60s), factor 1x..10x) and replayed under
// three protection stacks — no protection (the pre-overload behavior),
// static bounds (bounded node queues + a fixed admitted-in-flight
// threshold), and price-signaled admission (the same bounds, but the
// market's own scarcity signal drives a brownout that sheds expensive
// classes first) — for QA-NT and the two blind mechanisms. Clients keep
// the 12 s response SLA of the fault bench, so unprotected overload shows
// up as capacity wasted on queries that expire before finishing, while
// admission-controlled runs shed excess work at the door and keep goodput
// near the 1x level.
//
// The QA-NT price-signal run at the top factor is traced in memory; its
// surge-edge price-reconvergence report (log-price variance back below the
// pre-surge level) and a shards {1,4} x threads {1,8} byte-identity check
// of that same cell land in BENCH_overload.jsonl, next to the cell's
// per-period metrics samples.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "exec/thread_pool.h"
#include "obs/analysis.h"
#include "obs/trace_reader.h"

namespace {

using namespace qa;
using util::kMillisecond;
using util::kSecond;

/// Client response deadline, same as the fault bench: overload protection
/// is only worth measuring against give-up semantics — without an SLA
/// every queueing strategy eventually completes everything.
constexpr util::VDuration kQueryDeadline = 12 * kSecond;

constexpr util::VTime kSurgeFrom = 40 * kSecond;
constexpr util::VTime kSurgeUntil = 60 * kSecond;

/// One protection stack, applied verbatim to every mechanism's config.
struct Protection {
  std::string name;
  std::string blurb;
  void Apply(sim::FederationConfig& config, int num_nodes) const {
    if (name == "none") return;
    config.max_node_queue = 12;
    config.max_retry_backlog = 50 * num_nodes;
    if (name == "static") {
      config.shed_policy = sim::ShedPolicy::kNewestFirst;
      config.admission.policy = sim::AdmissionPolicy::kStatic;
    } else {
      config.shed_policy = sim::ShedPolicy::kLowestPriorityFirst;
      config.admission.policy = sim::AdmissionPolicy::kPriceSignal;
      // The baseline is seeded from the back half of a 35 s warmup (70
      // periods of 500 ms, t = 17.5-35 s — past the cold-start
      // price-discovery ramp, which takes ~25 s at 60 nodes) and then
      // tracks slowly, so QA-NT's gradual price drift at steady load
      // reads as a ratio near 1 while a flash crowd, which outruns the
      // tracking, pushes it into the hundreds. The band sits comfortably
      // between the two.
      config.admission.enter_ratio = 8.0;
      config.admission.exit_ratio = 2.0;
      config.admission.warmup_periods = 70;
      config.admission.baseline_alpha = 0.05;
    }
    // Admitted-in-flight threshold (kStatic's gate, kPriceSignal's
    // fallback for mechanisms that expose no prices): roughly what the
    // bounded node queues can hold.
    config.admission.max_outstanding = 6 * num_nodes;
  }
};

struct Cell {
  int factor = 1;
  std::string protection;
  std::string mechanism;
  sim::SimMetrics metrics;
};

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  const uint64_t seed = args.seed;
  bool quick = args.quick;
  // Always emit the metrics stream (the acceptance artifact); --trace
  // additionally streams the traced cell to a file for qa_trace --shed.
  if (args.metrics_path.empty()) args.metrics_path = "BENCH_overload.jsonl";
  const std::string trace_path = args.trace_path;
  args.trace_path.clear();
  bench::Banner("Flash-crowd overload sweep",
                "surge factor x protection x mechanism grid, 85 s sinusoid",
                seed);

  util::Rng rng(seed);
  sim::TwoClassConfig scenario;
  scenario.num_nodes = quick ? 20 : 60;
  auto model = sim::BuildTwoClassCostModel(scenario, rng);
  util::VDuration period = 500 * kMillisecond;
  double capacity = sim::EstimateCapacityQps(*model, {2.0, 1.0}, period);

  workload::SinusoidConfig wave;
  wave.frequency_hz = 0.05;
  wave.duration = 85 * kSecond;
  wave.num_origin_nodes = scenario.num_nodes;
  wave.q1_peak_rate = 0.7 * capacity / 0.75;
  util::Rng wl_rng(seed + 1);
  workload::Trace trace = workload::GenerateSinusoidWorkload(wave, wl_rng);

  std::vector<int> factors = quick ? std::vector<int>{1, 10}
                                   : std::vector<int>{1, 2, 5, 10};
  std::vector<Protection> protections = {
      {"none", "unbounded queues, no admission gate"},
      {"static", "node queues <= 12, fixed admitted-in-flight threshold"},
      {"price", "same bounds + price-signaled brownout (expensive first)"},
  };
  std::vector<std::string> mechanisms = {"QA-NT", "Random", "RoundRobin"};
  const int max_factor = factors.back();
  std::cout << "Workload: " << trace.size() << " queries over "
            << scenario.num_nodes << " nodes; surge [" << kSurgeFrom / kSecond
            << "s," << kSurgeUntil / kSecond << "s) x {";
  for (size_t i = 0; i < factors.size(); ++i) {
    std::cout << (i ? "," : "") << factors[i] << "x";
  }
  std::cout << "}; " << protections.size() << " protections x "
            << mechanisms.size() << " mechanisms.\n\n";

  bench::Telemetry telemetry(args, "Flash-crowd overload sweep");
  telemetry.ReportField("capacity_qps", capacity);
  telemetry.ReportField("num_nodes", scenario.num_nodes);
  telemetry.ReportField("surge_from_s", kSurgeFrom / kSecond);
  telemetry.ReportField("surge_until_s", kSurgeUntil / kSecond);

  // The QA-NT price-signal run at the top factor is the specimen: traced
  // in memory (single writer, one grid cell), analyzed for price
  // reconvergence across the surge edges.
  std::ostringstream traced;
  obs::Recorder surge_recorder(&traced);

  std::vector<exec::RunSpec> specs;
  for (int factor : factors) {
    for (const Protection& protection : protections) {
      for (const std::string& name : mechanisms) {
        exec::RunSpec spec =
            bench::MakeSpec(*model, name, trace, period, seed);
        spec.config.query_deadline = kQueryDeadline;
        spec.config.seed = static_cast<int64_t>(seed);
        protection.Apply(spec.config, scenario.num_nodes);
        if (factor > 1) {
          spec.config.faults.surges.push_back(
              {sim::faults::SurgeFault::kAllClasses, kSurgeFrom, kSurgeUntil,
               static_cast<double>(factor)});
        }
        if (factor == max_factor && protection.name == "price" &&
            name == "QA-NT") {
          telemetry.Attach(spec);
          spec.config.recorder = &surge_recorder;
        }
        specs.push_back(std::move(spec));
      }
    }
  }

  exec::ExperimentRunner runner = args.MakeRunner();
  std::cout << "Running " << specs.size() << " cells on " << runner.threads()
            << " thread(s)...\n\n";
  std::vector<exec::RunResult> results = runner.Run(specs);
  surge_recorder.Finish();

  double duration_s = static_cast<double>(wave.duration) / kSecond;
  std::vector<Cell> cells;
  size_t i = 0;
  for (int factor : factors) {
    for (const Protection& protection : protections) {
      for (const std::string& name : mechanisms) {
        cells.push_back(
            {factor, protection.name, name, results[i++].metrics});
      }
    }
  }
  auto goodput = [&](const sim::SimMetrics& m) {
    return static_cast<double>(m.completed) / duration_s;
  };
  auto baseline = [&](const Cell& cell) -> const sim::SimMetrics& {
    for (const Cell& ref : cells) {
      if (ref.factor == 1 && ref.protection == cell.protection &&
          ref.mechanism == cell.mechanism) {
        return ref.metrics;
      }
    }
    return cell.metrics;  // factor 1 rows anchor themselves
  };

  util::TableWriter table({"Surge", "Protection", "Mechanism", "Goodput",
                           "vs 1x", "Mean (ms)", "p95 (ms)", "Shed",
                           "AdmRej", "Expired", "Completed"});
  bool acceptance_ok = true;
  for (const Cell& cell : cells) {
    double vs_1x = goodput(cell.metrics) / goodput(baseline(cell));
    telemetry.Report("f" + std::to_string(cell.factor) + "/" +
                         cell.protection + "/" + cell.mechanism,
                     cell.metrics);
    table.AddRow(std::to_string(cell.factor) + "x", cell.protection,
                 cell.mechanism, goodput(cell.metrics), vs_1x,
                 cell.metrics.MeanResponseMs(),
                 cell.metrics.response_time_ms.Percentile(95),
                 cell.metrics.shed, cell.metrics.admission_rejects,
                 cell.metrics.expired, cell.metrics.completed);
    // The acceptance gate: at the top surge factor, price-signaled
    // admission keeps QA-NT's goodput within 25% of its own 1x level.
    if (cell.factor == max_factor && cell.protection == "price" &&
        cell.mechanism == "QA-NT" && vs_1x < 0.75) {
      acceptance_ok = false;
      std::cerr << "FATAL: price/QA-NT goodput at " << max_factor
                << "x fell to " << vs_1x << " of the 1x level (floor 0.75)\n";
    }
  }
  table.Print(std::cout);
  std::cout << "\nProtection stacks:\n";
  for (const Protection& protection : protections) {
    std::cout << "  " << protection.name << ": " << protection.blurb << "\n";
  }

  // Price-reconvergence report of the traced QA-NT price-signal run: the
  // surge edges are trace transitions exactly like degrade edges, so the
  // fault-recovery analysis applies unchanged.
  std::istringstream replay(traced.str());
  util::StatusOr<obs::ParsedTrace> parsed = obs::ParsedTrace::Parse(replay);
  if (!parsed.ok()) {
    std::cerr << "warning: surge-run trace unparsable: " << parsed.status()
              << "\n";
  } else {
    std::vector<obs::FaultRecovery> recovery =
        obs::FaultRecoveryReport(parsed.value());
    obs::Json rows = obs::Json::MakeArray();
    std::cout << "\nQA-NT price-signal surge recovery ("
              << max_factor << "x):\n";
    for (const obs::FaultRecovery& row : recovery) {
      obs::Json json = obs::Json::MakeObject();
      json.Set("kind", std::string(obs::EventKindName(row.kind)));
      json.Set("t_ms", static_cast<double>(row.t_us) / kMillisecond);
      if (row.has_factor()) json.Set("factor", row.factor);
      json.Set("pre_fault_variance", row.pre_fault_variance);
      json.Set("peak_variance", row.peak_variance);
      json.Set("reconverged", row.reconverged);
      if (row.reconverged) json.Set("recovery_ms", row.recovery_ms);
      rows.Append(std::move(json));
      std::cout << "  " << obs::EventKindName(row.kind) << " @ "
                << row.t_us / kMillisecond << " ms: "
                << (row.reconverged
                        ? "log-price variance reconverged"
                        : "not reconverged within the run")
                << " (peak " << row.peak_variance << " vs pre "
                << row.pre_fault_variance << ")\n";
    }
    telemetry.ReportField("surge_recovery", std::move(rows));
  }
  if (!trace_path.empty()) {
    std::ofstream out(trace_path, std::ios::binary);
    if (out) {
      out << traced.str();
      std::cout << "\nQA-NT surge-run trace written to " << trace_path
                << " (analyze with tools/qa_trace --shed).\n";
    } else {
      std::cerr << "warning: --trace: cannot open " << trace_path << "\n";
    }
  }

  // Byte-identity check of the traced cell across execution layouts:
  // overload protection is simulation behavior, so shedding and admission
  // decisions must not depend on how the run is scheduled.
  std::cout << "\nDeterminism check (price/QA-NT @ " << max_factor
            << "x): shards {1,4} x threads {1,8}... " << std::flush;
  bool identical = true;
  std::string reference;
  for (int shards : {1, 4}) {
    for (int threads : {1, 8}) {
      exec::ThreadPool pool(threads);
      exec::PoolRunner pool_runner(&pool);
      std::ostringstream bytes;
      obs::Recorder recorder(&bytes);
      exec::RunSpec spec = bench::MakeSpec(*model, "QA-NT", trace, period,
                                           seed);
      spec.config.query_deadline = kQueryDeadline;
      spec.config.seed = static_cast<int64_t>(seed);
      protections.back().Apply(spec.config, scenario.num_nodes);
      if (max_factor > 1) {
        spec.config.faults.surges.push_back(
            {sim::faults::SurgeFault::kAllClasses, kSurgeFrom, kSurgeUntil,
             static_cast<double>(max_factor)});
      }
      spec.config.recorder = &recorder;
      spec.config.shards = shards;
      if (shards > 1 || threads > 1) spec.config.runner = &pool_runner;
      exec::RunSpecOnce(spec);
      recorder.Finish();
      if (reference.empty()) {
        reference = bytes.str();
      } else if (bytes.str() != reference) {
        identical = false;
        std::cerr << "FATAL: shards=" << shards << " threads=" << threads
                  << " produced different trace bytes\n";
      }
    }
  }
  std::cout << (identical ? "OK\n" : "FAILED\n");
  telemetry.ReportField("layout_identical", identical);
  telemetry.ReportField("acceptance_ok", acceptance_ok);

  std::cout << "\nExpected: without protection the surge converts capacity "
               "into queries that expire past the 12 s SLA; bounded queues "
               "plus admission shed the excess at the door, and the "
               "price-signaled stack does it mechanism-agnostically — the "
               "market's own scarcity signal triggers the brownout, "
               "expensive classes go first, and goodput holds near the 1x "
               "level through a 10x flash crowd.\n";
  return identical && acceptance_ok ? 0 : 1;
}
