// Google-benchmark microbenchmarks of the market core: the per-period
// supply optimization (eq. 4), the QA-NT request path, one tatonnement
// iteration, and the discrete-event queue. These bound the runtime
// overhead a node pays for running the query economy (the paper argues it
// is negligible next to query execution).
//
// Takes every Google Benchmark flag, plus the --quick flag all benches
// share: it maps to a short --benchmark_min_time for a smoke pass.

#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "market/qa_nt.h"
#include "market/tatonnement.h"
#include "sim/event_queue.h"
#include "util/rng.h"
#include "util/vtime.h"

namespace qa {
namespace {

using util::kMillisecond;

std::vector<util::VDuration> RandomCosts(int num_classes, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<util::VDuration> costs;
  for (int k = 0; k < num_classes; ++k) {
    costs.push_back(rng.UniformInt(50, 4000) * kMillisecond);
  }
  return costs;
}

void BM_SupplyMaximize(benchmark::State& state) {
  int num_classes = static_cast<int>(state.range(0));
  market::CapacitySupplySet set(RandomCosts(num_classes, 42),
                                500 * kMillisecond);
  util::Rng rng(7);
  market::PriceVector prices(num_classes);
  for (int k = 0; k < num_classes; ++k) {
    prices[k] = rng.UniformReal(0.1, 10.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.MaximizeValue(prices));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SupplyMaximize)->Arg(10)->Arg(100)->Arg(1000);

void BM_QaNtRequestPath(benchmark::State& state) {
  int num_classes = static_cast<int>(state.range(0));
  market::QaNtAgent agent(0, RandomCosts(num_classes, 42),
                          500 * kMillisecond);
  agent.BeginPeriod();
  util::Rng rng(7);
  for (auto _ : state) {
    int k = static_cast<int>(rng.UniformInt(0, num_classes - 1));
    if (agent.OnRequest(k)) agent.OnOfferAccepted(k);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QaNtRequestPath)->Arg(100)->Arg(1000);

void BM_QaNtPeriodRollover(benchmark::State& state) {
  int num_classes = static_cast<int>(state.range(0));
  market::QaNtAgent agent(0, RandomCosts(num_classes, 42),
                          500 * kMillisecond);
  for (auto _ : state) {
    agent.BeginPeriod();
    agent.EndPeriod();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QaNtPeriodRollover)->Arg(100)->Arg(1000);

void BM_TatonnementIteration(benchmark::State& state) {
  int num_nodes = static_cast<int>(state.range(0));
  std::vector<market::CapacitySupplySet> sets;
  sets.reserve(static_cast<size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    sets.emplace_back(RandomCosts(100, 42 + static_cast<uint64_t>(i)),
                      500 * kMillisecond);
  }
  std::vector<const market::SupplySet*> set_ptrs;
  for (const auto& s : sets) set_ptrs.push_back(&s);
  market::QuantityVector demand(100);
  util::Rng rng(7);
  for (int k = 0; k < 100; ++k) demand[k] = rng.UniformInt(0, 50);
  market::TatonnementConfig config;
  config.max_iterations = 1;  // time a single price-adjustment round
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        market::RunTatonnement(demand, set_ptrs, config));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TatonnementIteration)->Arg(10)->Arg(100);

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue<int> q;
    q.Reserve(1000);
    int64_t fired = 0;
    for (int i = 0; i < 1000; ++i) {
      q.Schedule(i, i);
    }
    q.RunAll([&fired](int) { ++fired; });
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueThroughput);

}  // namespace
}  // namespace qa

int main(int argc, char** argv) {
  // Seconds per benchmark as a plain double: the syntax Google Benchmark
  // 1.7 parses (newer releases still accept it).
  char quick_min_time[] = "--benchmark_min_time=0.01";
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    args.push_back(std::strcmp(argv[i], "--quick") == 0 ? quick_min_time
                                                         : argv[i]);
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
