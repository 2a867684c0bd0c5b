#ifndef QAMARKET_SIM_FAULTS_FAULT_PLAN_H_
#define QAMARKET_SIM_FAULTS_FAULT_PLAN_H_

#include <cstdint>
#include <vector>

#include "catalog/catalog.h"
#include "util/status.h"
#include "util/vtime.h"

namespace qa::sim::faults {

/// Crash with state loss: the node goes down at `at` and is unreachable
/// until `restart_at`. Unlike a PartitionFault (state intact), every
/// query queued or running on the node at crash time is lost — clients
/// detect the silence at the next market tick and resubmit — and the
/// allocation mechanism is told about the restart (Allocator::
/// OnNodeRestart) so per-node learned state (QA-NT's private price vector)
/// resets to defaults and must be re-learned.
struct CrashFault {
  catalog::NodeId node = -1;
  util::VTime at = 0;
  util::VTime restart_at = 0;
};

/// Degraded capacity: during [from, until) the node executes at `factor`
/// of its normal speed (factor in (0, 1]; 0.5 = half speed). The node
/// stays reachable and keeps offering at its advertised costs, so a
/// market mechanism's learned prices become *stale* rather than absent —
/// the complementary failure mode to a crash.
struct DegradeFault {
  catalog::NodeId node = -1;
  util::VTime from = 0;
  util::VTime until = 0;
  double factor = 0.5;
};

/// Lossy/delayed link: during [from, until), each message hop toward
/// `node` (broadcast/offer probes and query shipment) is dropped with
/// `drop_probability` and delayed by `extra_latency`. A dropped
/// request/offer hop looks like a timeout to the mediator and is treated
/// as a decline; a dropped shipment hop loses the query in flight and the
/// client resubmits at the next market tick. Only the hops a mechanism
/// actually sends can be dropped: each one's fate is keyed by (plan seed,
/// mediator attempt, node, hop, fault index), so the negotiation and
/// shipment hops of one attempt are independent, and overlapping faults
/// drop independently and compound. `node == kAllNodes` applies the fault
/// to every link.
struct LinkFault {
  static constexpr catalog::NodeId kAllNodes = -1;

  catalog::NodeId node = kAllNodes;
  util::VTime from = 0;
  util::VTime until = 0;
  double drop_probability = 0.0;
  util::VDuration extra_latency = 0;
};

/// Flash crowd: during [from, until) the arrival rate of `class_id`
/// (kAllClasses = every class) is multiplied by `multiplier`. The demand-
/// side counterpart of the supply-side faults above: the federation clones
/// each matching trace arrival `multiplier`x (fractional parts resolved by
/// a seeded Bernoulli draw), so a 10x surge is a declarative chaos-plan
/// citizen like a crash — same plan, same seed, byte-identical run at any
/// shard/thread layout. Multipliers below 1 model demand droughts.
struct SurgeFault {
  static constexpr int kAllClasses = -1;

  int class_id = kAllClasses;
  util::VTime from = 0;
  util::VTime until = 0;
  double multiplier = 2.0;
};

/// Network partition: during [from, until) the listed node set is mutually
/// unreachable from the rest of the federation (and from the mediators,
/// which live on the majority side). State stays intact: queries already
/// queued on a partitioned node keep executing and their results are
/// delivered once the partition heals. Mechanisms that negotiate or probe
/// per arrival (QA-NT, Greedy, BNQRD) get no reply from an unreachable node
/// (a timeout, counted as a decline) and route around it; blind ones
/// (Random, RoundRobin) and TwoProbes, which picks from a periodically
/// refreshed load board, never consult AllocationContext::NodeOnline, so
/// their assignments bounce and the query is resubmitted. A one-node
/// partition is the classic scheduled outage.
struct PartitionFault {
  std::vector<catalog::NodeId> nodes;
  util::VTime from = 0;
  util::VTime until = 0;
};

/// A declarative, seeded fault schedule for one federation run. Empty by
/// default (no faults). All randomness (message-loss fates) is a pure hash
/// keyed by `seed`, so the same plan over the same workload produces a
/// byte-identical run at any shard or thread count.
struct FaultPlan {
  std::vector<CrashFault> crashes;
  std::vector<DegradeFault> degrades;
  std::vector<LinkFault> links;
  std::vector<PartitionFault> partitions;
  std::vector<SurgeFault> surges;
  /// Root of every message-fate key (LinkFault). 0 derives it from the
  /// federation's own seed (FederationConfig::seed).
  uint64_t seed = 0;

  bool empty() const {
    return crashes.empty() && degrades.empty() && links.empty() &&
           partitions.empty() && surges.empty();
  }

  /// Rejects malformed plans: nodes outside [0, num_nodes), inverted or
  /// empty windows, degrade factors outside (0, 1], drop probabilities
  /// outside [0, 1), negative extra latency, empty partition sets,
  /// non-positive surge multipliers, and surge windows that overlap in
  /// both time and class scope (overlap would make the effective rate
  /// multiplier order-dependent; split the windows instead).
  util::Status Validate(int num_nodes) const;
};

}  // namespace qa::sim::faults

#endif  // QAMARKET_SIM_FAULTS_FAULT_PLAN_H_
