#ifndef QAMARKET_SIM_FAULTS_FAULT_INJECTOR_H_
#define QAMARKET_SIM_FAULTS_FAULT_INJECTOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/faults/fault_plan.h"
#include "util/vtime.h"

namespace qa::sim::faults {

/// The compiled runtime of one FaultPlan for one federation run: answers
/// the simulator's reachability/speed/link questions from the plan's time
/// windows, and exposes the plan's timed transitions so the federation can
/// schedule them as discrete events (crash flushes a node, restart resets
/// the allocator's agent, degrade edges are traced).
///
/// Message loss holds no RNG state: the fate of one message hop is a pure
/// hash of (plan seed, mediator attempt, node, hop kind, link-fault index).
/// A fate is evaluated only for the hops a mechanism actually sends, gives
/// the same answer however often and in whatever order it is asked, and
/// never depends on how many other fates were asked before it; so a
/// (plan, seed) pair reproduces the same run byte for byte at any shard,
/// thread or experiment-grid layout.
class FaultInjector {
 public:
  /// The two message hops of one allocation attempt toward a node. Each
  /// has its own fate, so a node that answered the negotiation can still
  /// lose the shipment.
  enum class Hop : uint8_t {
    kNegotiation,  // request/offer exchange (a drop reads as a decline)
    kShipment,     // the accepted query shipped to the winner
  };

  /// A state change the federation must act on at a specific time.
  struct Transition {
    enum class Kind : uint8_t {
      kCrash,         // node goes down, volatile state lost
      kRestart,       // node back up, allocator re-learns it
      kDegradeStart,  // node slows to `factor` of normal speed
      kDegradeEnd,    // node back to full speed
      kSurgeStart,    // arrival rate of `class_id` multiplied by `factor`
      kSurgeEnd,      // arrival rate back to normal
    };
    Kind kind = Kind::kCrash;
    catalog::NodeId node = -1;  // -1 for the node-less surge transitions
    double factor = 1.0;   // degrade / surge transitions only
    int class_id = -1;     // surge transitions only (-1 = all classes)
  };

  /// `plan` must already be validated. `default_seed` is used when the
  /// plan's own seed is 0 (see FaultPlan::seed).
  FaultInjector(const FaultPlan& plan, uint64_t default_seed);

  bool empty() const { return plan_.empty(); }

  /// The plan's transitions, time-ordered (FIFO within a timestamp).
  const std::vector<std::pair<util::VTime, Transition>>& transitions()
      const {
    return transitions_;
  }

  /// Inside a crash window: down, state lost until restart.
  bool Crashed(catalog::NodeId node, util::VTime now) const;
  /// Inside a partition window: unreachable, state intact.
  bool Partitioned(catalog::NodeId node, util::VTime now) const;
  /// Unreachable for any reason (crashed or partitioned).
  bool Unreachable(catalog::NodeId node, util::VTime now) const {
    return Crashed(node, now) || Partitioned(node, now);
  }

  /// Execution speed multiplier in (0, 1]; 1.0 = full speed. Overlapping
  /// degrade windows compound.
  double SpeedFactor(catalog::NodeId node, util::VTime now) const;

  /// Arrival-rate multiplier for `class_id` at `now`: the matching surge
  /// window's multiplier, 1.0 outside every window. Validation forbids
  /// overlapping matching windows, so at most one applies.
  double ArrivalMultiplier(int class_id, util::VTime now) const;
  bool AnySurge() const { return !plan_.surges.empty(); }

  /// True when some link fault window covers `now` (fast-path gate: when
  /// false, no message can be dropped).
  bool AnyLinkFaultActive(util::VTime now) const;
  /// The fate of the `hop` toward `node` in mediator attempt `attempt`:
  /// true = the message is lost. Each active matching link fault drops it
  /// independently with its own drop_probability (overlapping faults
  /// compound); outside every window nothing is dropped.
  bool DropMessage(catalog::NodeId node, util::VTime now, uint64_t attempt,
                   Hop hop) const;
  /// Extra one-way latency currently imposed on the link toward `node`.
  util::VDuration ExtraLatency(catalog::NodeId node, util::VTime now) const;

 private:
  FaultPlan plan_;
  std::vector<std::pair<util::VTime, Transition>> transitions_;
  /// Root of every message-fate key.
  uint64_t seed_;
};

}  // namespace qa::sim::faults

#endif  // QAMARKET_SIM_FAULTS_FAULT_INJECTOR_H_
