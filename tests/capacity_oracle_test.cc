// Differential oracle for sim::EstimateCapacityQps: the event-skipping
// estimator must return exactly the double of the broadcast market loop
// it replaced, kept here verbatim as the reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "market/market_sim.h"
#include "query/cost_model.h"
#include "sim/federation.h"
#include "sim/scenario.h"
#include "util/rng.h"

namespace qa::sim {
namespace {

using util::kMillisecond;
using util::kSecond;

/// The synchronous saturated market, run through MarketSimulator: each
/// request is broadcast to every node, and client 0's pending queues are
/// topped up before every period.
double ReferenceCapacityQps(const query::CostModel& cost_model,
                            const std::vector<double>& mix,
                            util::VDuration period, int periods = 40) {
  double mix_sum = 0.0;
  for (double m : mix) mix_sum += m;

  // Upper bound on per-period throughput: every node runs its cheapest
  // class back to back.
  double max_per_period = 0.0;
  for (catalog::NodeId j = 0; j < cost_model.num_nodes(); ++j) {
    util::VDuration cheapest = query::kInfeasibleCost;
    for (int k = 0; k < cost_model.num_classes(); ++k) {
      cheapest = std::min(cheapest, cost_model.Cost(k, j));
    }
    if (cheapest != query::kInfeasibleCost && cheapest > 0) {
      max_per_period +=
          static_cast<double>(period) / static_cast<double>(cheapest);
    }
  }

  market::MarketSimConfig sim_config;
  sim_config.period = period;
  market::MarketSimulator sim(&cost_model, sim_config);

  // Keep each class's pending queue topped up to ~2x its mix share of the
  // throughput bound so servers are always saturated without letting the
  // queues (and the per-period cost) grow unboundedly.
  auto top_up = [&]() {
    std::vector<market::QuantityVector> demand(
        static_cast<size_t>(cost_model.num_nodes()),
        market::QuantityVector(cost_model.num_classes()));
    for (int k = 0; k < cost_model.num_classes(); ++k) {
      double want = 2.0 * max_per_period *
                    (mix[static_cast<size_t>(k)] / mix_sum);
      market::Quantity have = 0;
      for (const auto& p : sim.pending()) have += p[k];
      market::Quantity need =
          static_cast<market::Quantity>(std::ceil(want)) - have;
      if (need > 0) demand[0][k] = need;
    }
    return demand;
  };

  int warmup = periods / 2;
  market::Quantity consumed = 0;
  for (int t = 0; t < periods; ++t) {
    market::MarketSimulator::PeriodResult result = sim.RunPeriod(top_up());
    if (t >= warmup) consumed += result.aggregate_consumption.Total();
  }
  double measured_seconds =
      util::ToSeconds(period) * static_cast<double>(periods - warmup);
  return measured_seconds > 0.0 ? static_cast<double>(consumed) /
                                      measured_seconds
                                : 0.0;
}

void ExpectSameEstimate(const query::CostModel& model,
                        const std::vector<double>& mix,
                        util::VDuration period, int periods = 40) {
  double reference = ReferenceCapacityQps(model, mix, period, periods);
  EXPECT_GT(reference, 0.0);
  EXPECT_EQ(EstimateCapacityQps(model, mix, period, periods), reference)
      << model.num_nodes() << " nodes, " << model.num_classes()
      << " classes, T = " << period << ", " << periods << " periods";
}

std::unique_ptr<query::MatrixCostModel> TwoClass(int nodes, uint64_t seed,
                                                 double q2_fraction = 0.5,
                                                 double spread = 0.5) {
  TwoClassConfig config;
  config.num_nodes = nodes;
  config.q2_feasible_fraction = q2_fraction;
  config.node_speed_spread = spread;
  util::Rng rng(seed);
  return BuildTwoClassCostModel(config, rng);
}

/// K classes over `nodes` nodes; each cell is infeasible with probability
/// `infeasible`, else uniform in [1 ms, 1.5 s]. Every node keeps at least
/// one feasible class.
std::unique_ptr<query::MatrixCostModel> RandomModel(int classes, int nodes,
                                                    double infeasible,
                                                    uint64_t seed) {
  util::Rng rng(seed);
  auto model = std::make_unique<query::MatrixCostModel>(classes, nodes);
  for (catalog::NodeId j = 0; j < nodes; ++j) {
    int anchor = static_cast<int>(rng.UniformInt(0, classes - 1));
    for (int k = 0; k < classes; ++k) {
      if (k != anchor && rng.Bernoulli(infeasible)) continue;
      model->SetCost(k, j,
                     rng.UniformInt(1 * kMillisecond, 1500 * kMillisecond));
    }
  }
  return model;
}

TEST(CapacityOracleTest, TwoClassModelsFromTenToAThousandNodes) {
  for (int nodes : {10, 37, 100, 250}) {
    ExpectSameEstimate(*TwoClass(nodes, 42), {2.0, 1.0}, 500 * kMillisecond);
  }
  // The reference is O(N^2) per period: fewer periods keep ctest fast.
  ExpectSameEstimate(*TwoClass(1000, 42), {2.0, 1.0}, 500 * kMillisecond, 10);
}

TEST(CapacityOracleTest, RecordedTwoClassCapacities) {
  // The capacities the benchmark records for the 100-, 1,000- and
  // 2,000-node two-class models (model seed 42, T = 500 ms).
  const util::VDuration period = 500 * kMillisecond;
  EXPECT_EQ(EstimateCapacityQps(*TwoClass(100, 42), {2.0, 1.0}, period),
            121.4);
  EXPECT_EQ(EstimateCapacityQps(*TwoClass(1000, 42), {2.0, 1.0}, period),
            1214.8);
  EXPECT_EQ(EstimateCapacityQps(*TwoClass(2000, 42), {2.0, 1.0}, period),
            2431.4);
}

TEST(CapacityOracleTest, TwoClassVariants) {
  // Homogeneous hardware: every node ties on cost, so the offer choice
  // rests on the node-index tie-break alone.
  ExpectSameEstimate(*TwoClass(60, 7, 0.5, 0.0), {2.0, 1.0},
                     500 * kMillisecond);
  // Every node can evaluate Q2.
  ExpectSameEstimate(*TwoClass(80, 8, 1.0), {2.0, 1.0}, 500 * kMillisecond);
  // Short and long periods: queries longer than T (debt-financed offers),
  // and several queries per node per period.
  for (util::VDuration period : {250 * kMillisecond, 2 * kSecond}) {
    ExpectSameEstimate(*TwoClass(120, 9), {2.0, 1.0}, period);
    ExpectSameEstimate(*TwoClass(40, 10, 1.0, 0.0), {1.0, 3.0}, period);
  }
  // The Fig. 1 instance.
  ExpectSameEstimate(*BuildFig1CostModel(), {1.0, 1.0}, 500 * kMillisecond);
}

TEST(CapacityOracleTest, Table3HundredClassModel) {
  util::Rng rng(42);
  Scenario scenario = BuildTable3Scenario(Table3Config(), rng);
  const query::CostModel& model = *scenario.cost_model;
  std::vector<double> uniform(static_cast<size_t>(model.num_classes()), 1.0);
  std::vector<double> zipf;
  for (int k = 0; k < model.num_classes(); ++k) {
    zipf.push_back(1.0 / static_cast<double>(k + 1));
  }
  // 100 classes x 100 nodes makes each reference period slow: 6 periods
  // still cover the idle start, gate arming and price run-up.
  ExpectSameEstimate(model, uniform, 500 * kMillisecond, 6);
  ExpectSameEstimate(model, zipf, 500 * kMillisecond, 6);
}

TEST(CapacityOracleTest, RandomThreeClassModelsWithInfeasibleCells) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    int nodes = 3 + static_cast<int>(seed * 7 % 60);
    ExpectSameEstimate(*RandomModel(3, nodes, 0.35, seed), {1.0, 1.0, 1.0},
                       500 * kMillisecond);
  }
}

TEST(CapacityOracleTest, DeclineThatLiftsThePriceToTheCapOpensTheGate) {
  // On this model a gate-blocked node's decline bumps a price to the cap
  // and that very bump opens the density gate: the node offers on the
  // next request. Settling a capped node as permanently declining without
  // re-checking WouldAccept diverges here.
  ExpectSameEstimate(*RandomModel(3, 19, 0.35, 28), {1.0, 1.0, 1.0},
                     500 * kMillisecond);
}

}  // namespace
}  // namespace qa::sim
