#include "sim/federation.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "market/qa_nt.h"
#include "market/supply_set.h"
#include "market/vectors.h"
#include "util/logging.h"

namespace qa::sim {

namespace {

/// Every counter name a run can ever Count(), in the canonical emission
/// order. Traced runs pre-register all of them at t=0 (a Count of 0
/// creates the stat), so the recorder's trailing stats block lists the
/// same names in the same order regardless of which events a scenario
/// happens to produce — and, crucially for the sharded core, regardless
/// of the order in which the first increment of each counter fires
/// (mediator-side counts fire at dispatch, shard-side counts at the
/// barrier merge; only pre-registration makes creation order invariant).
constexpr const char* kCounterNames[] = {
    "arrivals", "assigns",  "rejects",  "bounces",  "drops",
    "expired",  "shed",     "admission_rejects", "deliveries",
    "completions", "losses", "crashes",
    "restarts", "degrades", "surges", "ticks", "snapshots",
};

/// Plays `requests` consecutive k-class requests of a saturated market in
/// which each request is broadcast to every agent that can evaluate k, the
/// first cheapest offer is accepted and every decliner raises p_k. Returns
/// the number of requests served.
///
/// The result and every agent's end state equal those of the broadcast
/// loop, without visiting each agent on each request. An agent's state
/// is its own: only the winner's budget moves within a request, and the
/// price bumps of decliners are read by nobody else. So each agent is
/// settled on its own timeline, in one of three states:
///  - offering: WouldAccept(k); sits in the heap, and only the heap top
///    changes state (the winner's budget shrinks);
///  - gate-blocked: the budget admits k but the density gate does not.
///    Its declines are played at once with the real OnRequest, until the
///    gate opens (it joins the heap from that request on) or p_k is stuck
///    at the cap;
///  - budget-spent: BudgetAdmits(k) is false, and stays so for the phase
///    because the budget only shrinks. Its missed requests are replayed
///    at phase end, stopping once p_k reaches the cap, after which a
///    decline moves only the agent's stats counters.
market::Quantity ServeClassPhase(std::vector<market::QaNtAgent>* agents,
                                 int k, market::Quantity requests) {
  using NodeCost = std::pair<util::VDuration, catalog::NodeId>;
  using NodeRequest = std::pair<market::Quantity, catalog::NodeId>;
  const double price_cap = market::QaNtConfig().price_cap;
  // Min-heap of the agents currently offering, keyed (cost, node): its top
  // is the broadcast loop's choice, the first cheapest offer in index
  // order.
  std::vector<NodeCost> offering;
  // (first request the agent offers on, node).
  std::vector<NodeRequest> opens;
  // (first request the agent declines for lack of budget, node).
  std::vector<NodeRequest> spent;

  for (catalog::NodeId j = 0; j < static_cast<int>(agents->size()); ++j) {
    market::QaNtAgent& agent = (*agents)[static_cast<size_t>(j)];
    if (!agent.CanEvaluate(k)) continue;
    if (!agent.BudgetAdmits(k)) {
      spent.emplace_back(0, j);
      continue;
    }
    market::Quantity declines = 0;
    bool at_cap = false;
    // WouldAccept is re-evaluated after every bump, before the cap test:
    // the bump that lifts p_k to the cap can be the one that opens the
    // gate.
    while (!agent.WouldAccept(k) && !at_cap && declines < requests) {
      agent.OnRequest(k);
      ++declines;
      at_cap = agent.prices()[k] >= price_cap;
    }
    if (declines < requests && agent.WouldAccept(k)) {
      opens.emplace_back(declines, j);
    }
  }
  std::sort(opens.begin(), opens.end());

  auto cheaper_later = [](const NodeCost& a, const NodeCost& b) {
    return a > b;
  };
  market::Quantity served = 0;
  size_t next_open = 0;
  market::Quantity r = 0;
  while (r < requests) {
    for (; next_open < opens.size() && opens[next_open].first <= r;
         ++next_open) {
      catalog::NodeId j = opens[next_open].second;
      offering.emplace_back((*agents)[static_cast<size_t>(j)].unit_cost(k), j);
      std::push_heap(offering.begin(), offering.end(), cheaper_later);
    }
    if (offering.empty()) {
      // No offer until the next gate opens: those requests go unserved.
      if (next_open == opens.size()) break;
      r = opens[next_open].first;
      continue;
    }
    catalog::NodeId best = offering.front().second;
    market::QaNtAgent& agent = (*agents)[static_cast<size_t>(best)];
    agent.OnOfferAccepted(k);
    ++served;
    // Accepting moves only the budget: the winner still offers, or its
    // budget is spent for the rest of the phase.
    if (!agent.WouldAccept(k)) {
      std::pop_heap(offering.begin(), offering.end(), cheaper_later);
      offering.pop_back();
      spent.emplace_back(r + 1, best);
    }
    ++r;
  }

  for (const auto& [since, j] : spent) {
    market::QaNtAgent& agent = (*agents)[static_cast<size_t>(j)];
    for (market::Quantity m = since;
         m < requests && agent.prices()[k] < price_cap; ++m) {
      agent.OnRequest(k);
    }
  }
  return served;
}

}  // namespace

util::Status ValidateConfig(const FederationConfig& config, int num_nodes) {
  if (num_nodes > EventStamp::kMaxNodes) {
    return util::Status::InvalidArgument(
        "num_nodes " + std::to_string(num_nodes) + " exceeds " +
        std::to_string(EventStamp::kMaxNodes) +
        ", the most nodes an event stamp can encode");
  }
  if (config.period <= 0) {
    return util::Status::InvalidArgument(
        "period must be positive, got " + std::to_string(config.period));
  }
  if (config.market_tick_divisor < 1) {
    return util::Status::InvalidArgument(
        "market_tick_divisor must be >= 1, got " +
        std::to_string(config.market_tick_divisor));
  }
  if (config.message_latency < 0) {
    return util::Status::InvalidArgument(
        "message_latency must be non-negative, got " +
        std::to_string(config.message_latency));
  }
  if (config.max_retries < 0) {
    return util::Status::InvalidArgument(
        "max_retries must be non-negative, got " +
        std::to_string(config.max_retries));
  }
  if (config.max_backoff_periods < 1) {
    return util::Status::InvalidArgument(
        "max_backoff_periods must be >= 1, got " +
        std::to_string(config.max_backoff_periods));
  }
  if (config.query_deadline < 0) {
    return util::Status::InvalidArgument(
        "query_deadline must be non-negative, got " +
        std::to_string(config.query_deadline));
  }
  if (config.shards < 1) {
    return util::Status::InvalidArgument(
        "shards must be >= 1, got " + std::to_string(config.shards));
  }
  if (config.max_node_queue < 1) {
    return util::Status::InvalidArgument(
        "max_node_queue (shed bound) must be >= 1, got " +
        std::to_string(config.max_node_queue));
  }
  if (config.max_retry_backlog < 1) {
    return util::Status::InvalidArgument(
        "max_retry_backlog (shed bound) must be >= 1, got " +
        std::to_string(config.max_retry_backlog));
  }
  util::Status admission = config.admission.Validate();
  if (!admission.ok()) return admission;
  util::Status solicitation = config.solicitation.Validate();
  if (!solicitation.ok()) return solicitation;
  util::Status clusters = config.cluster_plan.Validate(num_nodes);
  if (!clusters.ok()) return clusters;
  return config.faults.Validate(num_nodes);
}

std::string DescribeEvent(const SimEvent& event) {
  switch (event.kind) {
    case SimEvent::Kind::kArrival:
      return "arrival query=" + std::to_string(event.pending.id) +
             " class=" + std::to_string(event.pending.arrival.class_id) +
             " attempts=" + std::to_string(event.pending.attempts);
    case SimEvent::Kind::kDeliver:
      return "deliver node=" + std::to_string(event.node) +
             " query=" + std::to_string(event.task.query_id);
    case SimEvent::Kind::kComplete:
      return "complete node=" + std::to_string(event.node) +
             " query=" + std::to_string(event.task.query_id);
    case SimEvent::Kind::kMarketTick:
      return "market-tick";
    case SimEvent::Kind::kFault: {
      using Kind = faults::FaultInjector::Transition::Kind;
      const char* what = "fault";
      switch (event.transition.kind) {
        case Kind::kCrash:
          what = "fault-crash";
          break;
        case Kind::kRestart:
          what = "fault-restart";
          break;
        case Kind::kDegradeStart:
          what = "fault-degrade-start";
          break;
        case Kind::kDegradeEnd:
          what = "fault-degrade-end";
          break;
        case Kind::kSurgeStart:
          return "fault-surge-start class=" +
                 std::to_string(event.transition.class_id);
        case Kind::kSurgeEnd:
          return "fault-surge-end class=" +
                 std::to_string(event.transition.class_id);
      }
      return std::string(what) + " node=" + std::to_string(event.node);
    }
  }
  return "(unknown SimEvent kind)";
}

Federation::Federation(const query::CostModel* cost_model,
                       allocation::Allocator* allocator,
                       FederationConfig config)
    : cost_model_(cost_model),
      allocator_(allocator),
      config_(config),
      injector_(config.faults, static_cast<uint64_t>(config.seed)) {
  assert(cost_model_ != nullptr);
  assert(allocator_ != nullptr);
  num_nodes_ = cost_model_->num_nodes();

  // Mode selection. Sharded execution is legal exactly when the mediator
  // can run ahead of the node lanes within a market window — i.e. when the
  // mechanism never reads live node state at allocation time. Mechanisms
  // that probe backlogs (Greedy, BNQRD, two-probes...) need that state
  // current at every decision, which is a zero-lookahead synchronization
  // requirement: they run on the inline path no matter what the config
  // asks for. This is Table 2's autonomy column made operational.
  sharded_ = config_.shards > 1 && config_.runner != nullptr &&
             !allocator_->properties().reads_node_state;
  plan_ = ShardPlan(num_nodes_, sharded_ ? config_.shards : 1);
  std::vector<int> shard_of;
  shard_of.reserve(static_cast<size_t>(num_nodes_));
  for (catalog::NodeId j = 0; j < num_nodes_; ++j) {
    shard_of.push_back(plan_.shard_of(j));
  }
  pool_.Init(num_nodes_, plan_.shards(), shard_of);
  if (sharded_) {
    lanes_ = std::vector<ShardLane>(static_cast<size_t>(plan_.shards()));
  }
  node_seq_.assign(static_cast<size_t>(num_nodes_), 0);

  best_cost_.resize(static_cast<size_t>(cost_model_->num_classes()), 0.0);
  for (int k = 0; k < cost_model_->num_classes(); ++k) {
    util::VDuration best = cost_model_->BestCost(k);
    best_cost_[static_cast<size_t>(k)] =
        best == query::kInfeasibleCost ? 0.0 : static_cast<double>(best);
  }
  cost_cache_.resize(static_cast<size_t>(cost_model_->num_classes()) *
                     static_cast<size_t>(num_nodes_));
  for (int k = 0; k < cost_model_->num_classes(); ++k) {
    for (catalog::NodeId j = 0; j < num_nodes_; ++j) {
      cost_cache_[static_cast<size_t>(k) *
                      static_cast<size_t>(num_nodes_) +
                  static_cast<size_t>(j)] = cost_model_->Cost(k, j);
    }
  }
}

SimMetrics Federation::Run(const workload::Trace& trace) {
  // A malformed config (zero period, inverted fault window...) would not
  // crash — it would silently simulate nonsense. Fail fast instead, like
  // the experiment runner does for an unknown mechanism name.
  util::Status valid = ValidateConfig(config_, num_nodes());
  if (!valid.ok()) {
    std::fprintf(stderr, "FATAL: invalid FederationConfig: %s\n",
                 valid.ToString().c_str());
    std::abort();
  }

  metrics_ = SimMetrics();
  size_t num_classes = static_cast<size_t>(cost_model_->num_classes());
  metrics_.completions_per_class.resize(num_classes);
  metrics_.dropped_per_class.resize(num_classes);
  metrics_.retries_per_class.resize(num_classes);
  ticks_ = 0;
  retry_backlog_ = 0;
  admission_ = AdmissionController(config_.admission, best_cost_);

  // While this run is active, log lines on this thread carry the current
  // virtual time (interleaved parallel runs stay attributable).
  util::ScopedVTimeClock log_clock(
      [](const void* ctx) {
        return static_cast<const EventQueue<SimEvent>*>(ctx)->now();
      },
      &events_);

  QA_OBS(config_.recorder) {
    obs::MetaRecord meta;
    meta.schema = obs::kTraceSchemaVersion;
    meta.mechanism = allocator_->name();
    meta.nodes = num_nodes();
    meta.classes = cost_model_->num_classes();
    meta.period_us = config_.period;
    meta.ticks_per_period = config_.market_tick_divisor;
    meta.seed = config_.seed;
    meta.solicitation = std::string(
        allocation::SolicitationPolicyName(config_.solicitation.policy));
    meta.fanout =
        config_.solicitation.sampled() ? config_.solicitation.fanout : 0;
    // Only a genuinely hierarchical run stamps cluster fields: a
    // single-cluster plan executes the flat market, and its meta line
    // must stay byte-identical to the flat run it reproduces.
    if (config_.cluster_plan.hierarchical()) {
      meta.clusters = config_.cluster_plan.num_clusters();
      meta.top_fanout = config_.cluster_plan.top.sampled()
                            ? config_.cluster_plan.top.fanout
                            : 0;
    }
    config_.recorder->Record(meta);
    // Fix the stats block's name order up front (see kCounterNames).
    for (const char* name : kCounterNames) {
      config_.recorder->Count(name, 0);
    }
    // The market's initial prices, at t=0; written directly — nothing can
    // be buffered ahead of it in either mode.
    config_.recorder->RecordSnapshot(0, allocator_->Snapshot());
    config_.recorder->Count("snapshots");
  }

  watchdogs_.reset();
  QA_METRICS(config_.metrics) {
    obs::metrics::RunMeta mmeta;
    mmeta.mechanism = allocator_->name();
    mmeta.nodes = num_nodes();
    mmeta.shards = sharded_ ? plan_.shards() : 1;
    mmeta.threads =
        config_.runner != nullptr ? config_.runner->concurrency() : 1;
    mmeta.seed = static_cast<uint64_t>(config_.seed);
    mmeta.period_us = config_.period;
    config_.metrics->BeginRun(mmeta);
    config_.metrics->SetNumLanes(lanes_.size());
    watchdogs_ =
        std::make_unique<obs::metrics::WatchdogSuite>(config_.period);
  }
  // The allocator's internal phase probes share the run's collector; reset
  // on every run so a collector-less rerun of the same allocator carries no
  // stale pointer.
  allocator_->SetMetricsCollector(config_.metrics);
  int64_t run_start = 0;
  QA_METRICS(config_.metrics) {
    run_start = util::MonotonicClock::NowNanos();
  }

  // All arrivals live in the heap at once, plus one in-flight
  // deliver/complete event per node, the market tick, and the fault
  // plan's transitions: reserving here makes steady-state scheduling
  // allocation-free. Every event carries a canonical placement-independent
  // stamp (sim/shard.h) in both modes — inline runs dispatch in exactly
  // the order sharded runs reproduce.
  events_.Reserve(trace.size() + static_cast<size_t>(num_nodes_) + 1 +
                  injector_.transitions().size());
  // Surge windows expand (or thin) the trace at schedule time: each
  // matching arrival is scheduled `multiplier` times — the integer part
  // guaranteed, the fractional part by one seeded Bernoulli draw per
  // arrival. The draw stream is a pure function of (plan, trace), never of
  // execution layout, so surged runs stay byte-identical across shard and
  // thread counts. Plans without surges consume no draws, so pre-surge
  // scenarios reproduce their old traces exactly.
  const bool surging = injector_.AnySurge();
  util::Rng surge_rng((config_.faults.seed != 0
                           ? config_.faults.seed
                           : static_cast<uint64_t>(config_.seed)) ^
                      0xc2b2ae3d27d4eb4full);
  int64_t arrivals_scheduled = 0;
  for (const workload::Arrival& arrival : trace.arrivals()) {
    int copies = 1;
    if (surging) {
      double multiplier =
          injector_.ArrivalMultiplier(arrival.class_id, arrival.time);
      // qa-lint: allow(QA-NUM-001) exact 1.0 = "no surge window matched"
      if (multiplier != 1.0) {
        copies = static_cast<int>(multiplier);
        double frac = multiplier - static_cast<double>(copies);
        if (frac > 0.0 && surge_rng.Bernoulli(frac)) ++copies;
      }
    }
    for (int c = 0; c < copies; ++c) {
      events_.Schedule(
          arrival.time, NextMediatorStamp(),
          SimEvent::MakeArrival({arrival, next_query_id_++, /*attempts=*/0,
                                 /*admitted=*/false}));
    }
    arrivals_scheduled += copies;
  }
  metrics_.arrivals = arrivals_scheduled;
  outstanding_ = arrivals_scheduled;
  admitted_in_flight_ = 0;
  admission_load_ = 0;
  for (const auto& [when, transition] : injector_.transitions()) {
    // Restarts are mediator-lane (the allocator re-learns the node), and
    // so are the node-less surge edges (informational trace markers);
    // crash and degrade edges act on node state and belong to the node's
    // own lane. Stamp allocation order here is the injector's transition
    // order in both modes — the counters stay mode-invariant.
    using TKind = faults::FaultInjector::Transition::Kind;
    if (transition.kind == TKind::kRestart ||
        transition.kind == TKind::kSurgeStart ||
        transition.kind == TKind::kSurgeEnd) {
      events_.Schedule(when, NextMediatorStamp(),
                       SimEvent::MakeFault(transition));
    } else {
      uint64_t stamp = NextNodeStampFromMediator(transition.node);
      ScheduleNodeEvent(when, stamp, SimEvent::MakeFault(transition));
    }
  }
  events_.Schedule(TickInterval(), NextMediatorStamp(),
                   SimEvent::MakeMarketTick());

  if (sharded_) {
    RunSharded();
  } else {
    events_.RunAll([this](const SimEvent& event) { Dispatch(event); });
  }

  metrics_.end_time = events_.now();
  for (const ShardLane& lane : lanes_) {
    metrics_.end_time = std::max(metrics_.end_time, lane.queue.now());
  }
  for (catalog::NodeId j = 0; j < num_nodes_; ++j) {
    metrics_.total_busy_time += pool_.busy_time(j);
    metrics_.node_last_idle.push_back(pool_.last_idle_at(j));
    metrics_.node_completed.push_back(pool_.completed(j));
  }
  QA_METRICS(config_.metrics) {
    // One final sample so short runs (fewer ticks than a global period)
    // still close with their end-state counters on record.
    EmitMetricsSample();
    config_.metrics->RecordPhase(obs::metrics::Phase::kRunTotal,
                                 util::MonotonicClock::NowNanos() - run_start);
  }
  return metrics_;
}

void Federation::RunSharded() {
  constexpr util::VTime kEndTime = std::numeric_limits<util::VTime>::max();
  constexpr uint64_t kEndStamp = std::numeric_limits<uint64_t>::max();
  // The mediator-dispatch phase is the fence-to-fence window: everything
  // the mediator does while running ahead of the shard lanes. Measured as
  // the wall time between fences (two clock reads per fence) rather than
  // per event — the dispatch hot path stays clock-free.
  int64_t window_start = 0;
  QA_METRICS(config_.metrics) {
    window_start = util::MonotonicClock::NowNanos();
  }
  for (;;) {
    while (!events_.empty()) {
      if (events_.Peek().kind == SimEvent::Kind::kMarketTick) {
        // The conservative time-window barrier: before the market tick
        // runs, every lane has drained strictly up to the tick's own
        // canonical key and all buffered effects are applied — so the
        // tick (and everything the mediator does after it) observes
        // exactly the state the inline dispatch order would have built.
        // Nothing the merge schedules can precede the tick: loss
        // resubmissions land at tick times with node-lane stamps, which
        // sort after the tick's mediator stamp.
        QA_METRICS(config_.metrics) {
          config_.metrics->RecordPhase(
              obs::metrics::Phase::kMediatorDispatch,
              util::MonotonicClock::NowNanos() - window_start);
        }
        FenceAndMerge(events_.PeekTime(), events_.PeekStamp());
        QA_METRICS(config_.metrics) {
          window_start = util::MonotonicClock::NowNanos();
        }
      }
      current_time_ = events_.PeekTime();
      current_stamp_ = events_.PeekStamp();
      events_.RunOne([this](const SimEvent& event) { Dispatch(event); });
    }
    // Mediator queue drained: run the lanes dry (fault transitions on
    // idle nodes may remain past the last tick) and flush every buffered
    // record. A lane can only hand the mediator new work (a loss
    // resubmission) while queries are outstanding — and then a market
    // tick would still be queued — so this loop runs at most twice in
    // practice; the re-check keeps termination an invariant rather than
    // an argument.
    FenceAndMerge(kEndTime, kEndStamp);
    if (events_.empty()) break;
  }
}

void Federation::FenceAndMerge(util::VTime fence_time, uint64_t fence_stamp) {
  size_t lanes = lanes_.size();
  size_t queued = 0;
  for (const ShardLane& lane : lanes_) queued += lane.queue.size();

  if (queued > 0) {
    auto drain = [this, fence_time, fence_stamp](int s) {
      ShardLane& lane = lanes_[static_cast<size_t>(s)];
      // Per-lane wall-time attribution: each worker times its own lane and
      // writes a distinct slot (the fork-join publishes the writes), so
      // the shard-imbalance stats need no per-event clock reads and no
      // histogram sharing across threads.
      int64_t lane_start = 0;
      QA_METRICS(config_.metrics) {
        lane_start = util::MonotonicClock::NowNanos();
      }
      lane.dispatched = lane.queue.RunWhileBefore(
          fence_time, fence_stamp,
          [this, &lane](const SimEvent& event, util::VTime when,
                        uint64_t stamp) {
            DispatchShard(&lane, event, when, stamp);
          });
      QA_METRICS(config_.metrics) {
        config_.metrics->RecordLaneDrain(
            static_cast<size_t>(s),
            util::MonotonicClock::NowNanos() - lane_start, lane.dispatched);
      }
    };
    int64_t drain_start = 0;
    QA_METRICS(config_.metrics) {
      drain_start = util::MonotonicClock::NowNanos();
    }
    // Tiny windows are not worth a fork-join round trip; the drain is
    // byte-equivalent either way (lanes are independent by construction).
    if (config_.runner != nullptr && lanes > 1 && queued >= 64) {
      config_.runner->ParallelFor(static_cast<int>(lanes), drain);
    } else {
      for (size_t s = 0; s < lanes; ++s) drain(static_cast<int>(s));
    }
    QA_METRICS(config_.metrics) {
      // The whole fork-join section, observed once from the mediator
      // thread (per-lane times above capture the imbalance inside it).
      config_.metrics->RecordPhase(
          obs::metrics::Phase::kLaneDrain,
          util::MonotonicClock::NowNanos() - drain_start);
    }
    for (ShardLane& lane : lanes_) {
      metrics_.events_dispatched +=
          static_cast<int64_t>(lane.dispatched);
      lane.dispatched = 0;
    }
  }

  // (S+1)-way merge of the window's buffered effects in canonical
  // (time, stamp) order: each lane's outcome list and the mediator's
  // record list are individually key-sorted (their producers run in key
  // order), and keys never collide across lists (each stamp belongs to
  // exactly one dispatched event), so picking the smallest head
  // reproduces the inline dispatch order exactly — including the
  // floating-point accumulation order of the metrics and the byte order
  // of the trace.
  int64_t merge_start = 0;
  QA_METRICS(config_.metrics) {
    merge_start = util::MonotonicClock::NowNanos();
  }
  size_t med_index = 0;
  std::vector<size_t> out_index(lanes, 0);
  for (;;) {
    bool have = false;
    bool take_mediator = false;
    size_t best_lane = 0;
    util::VTime best_time = 0;
    uint64_t best_stamp = 0;
    if (med_index < med_items_.size()) {
      best_time = med_items_[med_index].time;
      best_stamp = med_items_[med_index].stamp;
      take_mediator = true;
      have = true;
    }
    for (size_t s = 0; s < lanes; ++s) {
      if (out_index[s] >= lanes_[s].outcomes.size()) continue;
      const ShardOutcome& outcome = lanes_[s].outcomes[out_index[s]];
      if (!have || outcome.time < best_time ||
          (outcome.time == best_time && outcome.stamp < best_stamp)) {
        best_time = outcome.time;
        best_stamp = outcome.stamp;
        take_mediator = false;
        best_lane = s;
        have = true;
      }
    }
    if (!have) break;
    if (take_mediator) {
      const MediatorTraceItem& item = med_items_[med_index++];
      // Only traced runs buffer mediator items, so the recorder is set.
      QA_OBS(config_.recorder) {
        if (item.is_snapshot) {
          config_.recorder->RecordSnapshot(item.time, item.snapshot);
        } else {
          config_.recorder->Record(item.record);
        }
      }
    } else {
      ApplyOutcome(lanes_[best_lane].outcomes[out_index[best_lane]++]);
    }
  }
  med_items_.clear();
  for (ShardLane& lane : lanes_) lane.outcomes.clear();
  QA_METRICS(config_.metrics) {
    config_.metrics->RecordPhase(obs::metrics::Phase::kMerge,
                                 util::MonotonicClock::NowNanos() -
                                     merge_start);
  }
}

void Federation::Dispatch(const SimEvent& event) {
  ++metrics_.events_dispatched;
  switch (event.kind) {
    case SimEvent::Kind::kArrival:
      HandleQuery(event.pending);
      break;
    case SimEvent::Kind::kDeliver:
      DeliverTask(nullptr, event.node, event.task, events_.now(),
                  /*stamp=*/0);
      break;
    case SimEvent::Kind::kComplete:
      CompleteTask(nullptr, event.node, event.task, events_.now(),
                   /*stamp=*/0);
      break;
    case SimEvent::Kind::kMarketTick:
      MarketTick();
      break;
    case SimEvent::Kind::kFault: {
      using TKind = faults::FaultInjector::Transition::Kind;
      if (event.transition.kind == TKind::kRestart) {
        HandleRestart(event.transition);
      } else if (event.transition.kind == TKind::kSurgeStart ||
                 event.transition.kind == TKind::kSurgeEnd) {
        HandleSurge(event.transition);
      } else {
        HandleShardFault(nullptr, event.transition, events_.now(),
                         /*stamp=*/0);
      }
      break;
    }
  }
}

void Federation::DispatchShard(ShardLane* lane, const SimEvent& event,
                               util::VTime now, uint64_t stamp) {
  switch (event.kind) {
    case SimEvent::Kind::kDeliver:
      DeliverTask(lane, event.node, event.task, now, stamp);
      break;
    case SimEvent::Kind::kComplete:
      CompleteTask(lane, event.node, event.task, now, stamp);
      break;
    case SimEvent::Kind::kFault:
      HandleShardFault(lane, event.transition, now, stamp);
      break;
    case SimEvent::Kind::kArrival:
    case SimEvent::Kind::kMarketTick:
      assert(false && "mediator-lane event in a shard lane");
      break;
  }
}

bool Federation::NodeOnline(catalog::NodeId node) const {
  if (injector_.Unreachable(node, events_.now())) return false;
  // During an allocation attempt under an active link fault, a node whose
  // request/offer hops were dropped looks exactly like an offline one: the
  // mediator's request times out and counts as a decline.
  return !(lossy_negotiation_ &&
           injector_.DropMessage(node, events_.now(), attempt_seq_,
                                 faults::FaultInjector::Hop::kNegotiation));
}

void Federation::HandleQuery(SimEvent::Pending pending) {
  ++attempt_seq_;  // a new key for this attempt's message fates
  QA_OBS(config_.recorder) {
    if (pending.attempts == 0) {
      obs::EventRecord event;
      event.kind = obs::EventRecord::Kind::kArrival;
      event.t_us = events_.now();
      event.query = pending.id;
      event.class_id = pending.arrival.class_id;
      event.origin = pending.arrival.origin;
      EmitRecord(event);
      config_.recorder->Count("arrivals");
    }
  }

  // A retry/defer attempt leaving the heap frees its backlog slot (the
  // bound counts scheduled future attempts, not attempts being served).
  if (pending.attempts > 0) --retry_backlog_;

  // The client abandons a query whose sojourn has reached its response
  // deadline instead of renegotiating it: a placement that cannot possibly
  // answer in time is not worth another market round. Fresh arrivals
  // (attempts == 0) are never expired — their sojourn is zero.
  if (config_.query_deadline > 0 && pending.attempts > 0 &&
      events_.now() - pending.arrival.time >= config_.query_deadline) {
    if (admission_.enabled() && pending.admitted) {
      --admitted_in_flight_;
      --admission_load_;
    }
    DropQuery(pending.id, pending.arrival.class_id, pending.attempts,
              /*expired=*/true);
    return;
  }

  // The admission gate runs ahead of solicitation: a gated query never
  // reaches the market — no messages, no link-fault draws, no allocator
  // state change. Deferral re-queues it for the next market tick at the
  // price of one retry attempt; shedding drops it on the spot. Already-
  // admitted retries skip the gate — admission decides who enters the
  // market, not who may finish — and the gate's load signal is the
  // tick-refreshed admitted-in-flight view (admission_load_), never the
  // raw outstanding count: gating on "everything still unfinished" would
  // count the deferred queries against the very threshold they wait on.
  if (admission_.enabled() && !pending.admitted) {
    AdmissionController::Decision fate =
        admission_.Admit(pending.arrival.class_id, admission_load_);
    if (fate == AdmissionController::Decision::kShed) {
      ShedQuery(pending.id, pending.arrival.class_id, pending.attempts,
                /*admission=*/true);
      return;
    }
    if (fate == AdmissionController::Decision::kDefer) {
      ++pending.attempts;
      if (pending.attempts > config_.max_retries) {
        DropQuery(pending.id, pending.arrival.class_id, pending.attempts,
                  /*expired=*/false);
        return;
      }
      if (retry_backlog_ >= config_.max_retry_backlog) {
        ShedQuery(pending.id, pending.arrival.class_id, pending.attempts,
                  /*admission=*/true);
        return;
      }
      ++retry_backlog_;
      ++metrics_.retries;
      ++metrics_.retries_per_class[static_cast<size_t>(
          pending.arrival.class_id)];
      events_.Schedule(NextMarketTick(), NextMediatorStamp(),
                       SimEvent::MakeArrival(pending));
      return;
    }
    pending.admitted = true;
    ++admitted_in_flight_;
    ++admission_load_;
  }

  // Under an active link fault, NodeOnline reads the fate of each
  // contacted node's negotiation hop from this attempt's key, so only the
  // nodes the mechanism asks cost a draw.
  bool link_faults = injector_.AnyLinkFaultActive(events_.now());
  lossy_negotiation_ = link_faults;

  int64_t alloc_start = 0;
  QA_METRICS(config_.metrics) {
    // Sampled probe: one in kAllocProbeStride allocations is timed (the
    // sequence counter makes the choice deterministic). The reading is
    // deposited for the mechanism's own inner-stage probe — QA-NT's bid
    // scan chains from it rather than reading the clock again, and an
    // absent mark tells it this allocation is unsampled.
    if (alloc_probe_seq_++ % obs::metrics::kAllocProbeStride == 0) {
      alloc_start = util::MonotonicClock::NowNanos();
      config_.metrics->MarkPhaseStart(alloc_start);
    }
  }
  allocation::AllocationDecision decision =
      allocator_->Allocate(pending.arrival, *this);
  QA_METRICS(config_.metrics) {
    if (alloc_start != 0) {
      config_.metrics->RecordPhase(obs::metrics::Phase::kAllocate,
                                   util::MonotonicClock::NowNanos() -
                                       alloc_start,
                                   obs::metrics::kAllocProbeStride);
    }
  }
  metrics_.messages += decision.messages;
  metrics_.solicited += decision.solicited;
  metrics_.clusters_solicited += decision.clusters_solicited;

  // A mechanism that cannot observe liveness (Random/RoundRobin) may pick
  // an unreachable node: the query bounces at the network layer and is
  // resubmitted like any other failed placement.
  if (decision.node != allocation::kNoNode &&
      !NodeOnline(decision.node)) {
    ++metrics_.bounced;
    QA_OBS(config_.recorder) {
      obs::EventRecord event;
      event.kind = obs::EventRecord::Kind::kBounce;
      event.t_us = events_.now();
      event.query = pending.id;
      event.class_id = pending.arrival.class_id;
      event.node = decision.node;
      event.attempts = pending.attempts;
      EmitRecord(event);
      config_.recorder->Count("bounces");
    }
    decision.node = allocation::kNoNode;
  }
  // Link faults only scope the negotiation above through NodeOnline; the
  // shipment hop below has its own fate.
  lossy_negotiation_ = false;

  if (decision.node == allocation::kNoNode) {
    ++tick_rejects_;
    QA_METRICS(config_.metrics) {
      // Starvation-watchdog feed: how long this query has been waiting
      // since its original arrival. Virtual-time input — deterministic.
      watchdogs_->ObserveRejectSojourn(pending.arrival.class_id,
                                       events_.now() - pending.arrival.time);
    }
    ++pending.attempts;
    if (pending.attempts > config_.max_retries) {
      if (admission_.enabled() && pending.admitted) {
        --admitted_in_flight_;
        --admission_load_;
      }
      DropQuery(pending.id, pending.arrival.class_id, pending.attempts,
                /*expired=*/false);
      return;
    }
    // Bounded retry backlog: the escalating backoff below caps each
    // query's *delay*, but only this bound caps how many queries can sit
    // backed off at once — past it, overflow is shed instead of queued,
    // so a long outage costs O(bound) retry state, not O(arrivals).
    if (retry_backlog_ >= config_.max_retry_backlog) {
      if (admission_.enabled() && pending.admitted) {
        --admitted_in_flight_;
        --admission_load_;
      }
      ShedQuery(pending.id, pending.arrival.class_id, pending.attempts,
                /*admission=*/false);
      return;
    }
    ++retry_backlog_;
    ++metrics_.retries;
    ++metrics_.retries_per_class[static_cast<size_t>(
        pending.arrival.class_id)];
    QA_OBS(config_.recorder) {
      obs::EventRecord event;
      event.kind = obs::EventRecord::Kind::kReject;
      event.t_us = events_.now();
      event.query = pending.id;
      event.class_id = pending.arrival.class_id;
      event.messages = decision.messages;
      event.solicited = decision.solicited;
      event.cluster = decision.cluster;
      event.clusters_asked = decision.clusters_solicited;
      event.attempts = pending.attempts;
      EmitRecord(event);
      config_.recorder->Count("rejects");
    }
    // The client resubmits the query at the next market tick (§3.3 says
    // "next time period" — with staggered autonomous periods, some node's
    // period boundary passes every tick). Long-waiting queries back off to
    // once per full period so a deep overload costs O(backlog) retry work
    // per period instead of O(backlog * ticks). The tick event is already
    // scheduled and sorts ahead of the retry (mediator stamps issued
    // earlier are smaller), so the market refreshes before the retry runs.
    int wait_ticks = std::min(pending.attempts,
                              std::max(config_.market_tick_divisor, 1));
    // Market-protocol hardening: when whole market rounds go by with every
    // attempt declined (a dead market — mass crash, partition, or hard
    // overload), the mediators escalate exponentially instead of hammering
    // the market in lockstep, capped at max_backoff_periods whole periods.
    if (consecutive_decline_rounds_ > 2) {
      int shift = std::min(consecutive_decline_rounds_ - 2, 3);
      int cap = config_.max_backoff_periods *
                std::max(config_.market_tick_divisor, 1);
      wait_ticks = std::min(wait_ticks << shift, cap);
    }
    events_.Schedule(NextMarketTick() + (wait_ticks - 1) * TickInterval(),
                     NextMediatorStamp(), SimEvent::MakeArrival(pending));
    return;
  }

  ++tick_assigns_;
  ++metrics_.assigned;
  QA_OBS(config_.recorder) {
    obs::EventRecord event;
    event.kind = obs::EventRecord::Kind::kAssign;
    event.t_us = events_.now();
    event.query = pending.id;
    event.class_id = pending.arrival.class_id;
    event.node = decision.node;
    event.messages = decision.messages;
    event.solicited = decision.solicited;
    event.cluster = decision.cluster;
    event.clusters_asked = decision.clusters_solicited;
    event.attempts = pending.attempts;
    EmitRecord(event);
    config_.recorder->Count("assigns");
  }
  QueryTask task;
  task.query_id = pending.id;
  task.class_id = pending.arrival.class_id;
  task.origin = pending.arrival.origin;
  task.arrival = pending.arrival.time;
  util::VDuration base =
      CachedCost(pending.arrival.class_id, decision.node);
  task.exec_time = std::max<util::VDuration>(
      static_cast<util::VDuration>(static_cast<double>(base) *
                                   pending.arrival.cost_jitter),
      1);
  task.work_units = best_cost_[static_cast<size_t>(task.class_id)];
  task.attempts = pending.attempts;
  task.cost_jitter = pending.arrival.cost_jitter;

  // The shipment hop draws its own fate under an active link fault: a
  // dropped shipment loses the (already accepted) query in flight; the
  // client notices the silence and resubmits at the next market tick.
  if (link_faults &&
      injector_.DropMessage(decision.node, events_.now(), attempt_seq_,
                            faults::FaultInjector::Hop::kShipment)) {
    LoseTaskMediator(task, decision.node);
    return;
  }

  // Probes run in parallel: one round trip for the negotiation (when any)
  // plus the hop that ships the query to the chosen node. A hierarchical
  // placement pays one more round trip — the top-tier cluster
  // negotiation precedes (and cannot overlap) the member negotiation.
  util::VDuration delay =
      decision.messages >= 2 ? 3 * config_.message_latency
                             : config_.message_latency;
  if (decision.cluster >= 0) delay += 2 * config_.message_latency;
  if (link_faults) {
    delay += injector_.ExtraLatency(decision.node, events_.now());
  }
  ScheduleNodeEvent(events_.now() + delay,
                    NextNodeStampFromMediator(decision.node),
                    SimEvent::MakeDeliver(decision.node, task));
}

void Federation::DropQuery(query::QueryId id, query::QueryClassId class_id,
                           int attempts, bool expired) {
  ++metrics_.dropped;
  ++metrics_.dropped_per_class[static_cast<size_t>(class_id)];
  if (expired) ++metrics_.expired;
  --outstanding_;
  QA_OBS(config_.recorder) {
    obs::EventRecord event;
    event.kind = obs::EventRecord::Kind::kDrop;
    event.t_us = events_.now();
    event.query = id;
    event.class_id = class_id;
    event.attempts = attempts;
    EmitRecord(event);
    config_.recorder->Count(expired ? "expired" : "drops");
  }
}

void Federation::ShedQuery(query::QueryId id, query::QueryClassId class_id,
                           int attempts, bool admission) {
  ++metrics_.shed;
  if (admission) ++metrics_.admission_rejects;
  ++metrics_.dropped;
  ++metrics_.dropped_per_class[static_cast<size_t>(class_id)];
  --outstanding_;
  QA_OBS(config_.recorder) {
    obs::EventRecord event;
    event.kind = obs::EventRecord::Kind::kShed;
    event.t_us = events_.now();
    event.query = id;
    event.class_id = class_id;
    event.attempts = attempts;
    EmitRecord(event);
    config_.recorder->Count("shed");
    if (admission) config_.recorder->Count("admission_rejects");
  }
}

void Federation::LoseTaskMediator(const QueryTask& task,
                                  catalog::NodeId node_id) {
  ++metrics_.lost;
  QA_OBS(config_.recorder) {
    obs::EventRecord event;
    event.kind = obs::EventRecord::Kind::kLost;
    event.t_us = events_.now();
    event.query = task.query_id;
    event.class_id = task.class_id;
    event.node = node_id;
    event.attempts = task.attempts;
    EmitRecord(event);
    config_.recorder->Count("losses");
  }
  // A resubmission is retry backlog like any other; past the bound the
  // client gives up instead of queueing (accounted as shed, not retried).
  if (retry_backlog_ >= config_.max_retry_backlog) {
    if (admission_.enabled()) {
      // Tasks exist only past the admission gate; this is a mediator-lane
      // event, so the gate's view updates too.
      --admitted_in_flight_;
      --admission_load_;
    }
    ShedQuery(task.query_id, task.class_id, task.attempts + 1,
              /*admission=*/false);
    return;
  }
  ++retry_backlog_;
  // Reconstruct the client's pending query (original arrival time — the
  // loss inflates its response time, which is the point) and resubmit it
  // at the next market tick, one retry poorer. The tick event for that
  // time is already in the heap, so the market refreshes first.
  SimEvent::Pending pending;
  pending.arrival.time = task.arrival;
  pending.arrival.class_id = task.class_id;
  pending.arrival.origin = task.origin;
  pending.arrival.cost_jitter = task.cost_jitter;
  pending.id = task.query_id;
  pending.attempts = task.attempts + 1;
  pending.admitted = true;  // a task is past the gate by construction
  events_.Schedule(NextMarketTick(), NextMediatorStamp(),
                   SimEvent::MakeArrival(pending));
}

void Federation::LoseTaskShard(ShardLane* lane, const QueryTask& task,
                               catalog::NodeId node_id, util::VTime now,
                               uint64_t stamp) {
  ShardOutcome outcome;
  outcome.kind = ShardOutcome::Kind::kLost;
  outcome.node = node_id;
  outcome.time = now;
  outcome.stamp = stamp;
  outcome.task = task;
  // The resubmission is decided here, on the losing node's lane: its time
  // is the first market tick after the loss, its stamp comes from the
  // node's own counter — both pure functions of the node's event history,
  // so the mediator applying this outcome at the barrier schedules exactly
  // the arrival the inline dispatch order would have.
  outcome.resubmit_time = NextMarketTickAfter(now);
  outcome.resubmit_stamp = NextNodeStamp(node_id);
  Emit(lane, std::move(outcome));
}

void Federation::DeliverTask(ShardLane* lane, catalog::NodeId node_id,
                             const QueryTask& task, util::VTime now,
                             uint64_t stamp) {
  // The node crashed while the query was on the wire: the shipment reaches
  // a dead machine and is lost (the negotiation happened before the
  // crash). The client resubmits at the next market tick.
  if (injector_.Crashed(node_id, now)) {
    LoseTaskShard(lane, task, node_id, now, stamp);
    return;
  }
  QueryTask delivered = task;
  // Degraded capacity: the node executes at a fraction of its advertised
  // speed, so the execution time fixed at allocation stretches. The
  // mechanism is not told — its learned costs/prices are now stale, which
  // is exactly the failure mode under study.
  double speed = injector_.SpeedFactor(node_id, now);
  if (speed < 1.0) {
    delivered.exec_time = std::max<util::VDuration>(
        static_cast<util::VDuration>(
            static_cast<double>(delivered.exec_time) / speed),
        1);
  }
  // Bounded node queue: a delivery that would leave more than
  // max_node_queue tasks waiting sheds one task instead of growing the
  // queue. Newest-first sheds the arriving task; lowest-priority-first
  // evicts the most expensive queued task when the arrival is strictly
  // cheaper (so cheap work still completes under pressure) and otherwise
  // sheds the arrival. Pure node-lane state — deterministic in both
  // execution modes, and never gated on observability.
  if (pool_.QueueLength(node_id) >= config_.max_node_queue) {
    if (config_.shed_policy == ShedPolicy::kLowestPriorityFirst) {
      QueryTask victim;
      if (pool_.EvictWorseQueued(
              node_id, best_cost_,
              best_cost_[static_cast<size_t>(delivered.class_id)],
              &victim)) {
        ShedTaskShard(lane, victim, node_id, now, stamp);
      } else {
        ShedTaskShard(lane, delivered, node_id, now, stamp);
        return;
      }
    } else {
      ShedTaskShard(lane, delivered, node_id, now, stamp);
      return;
    }
  }
  QA_OBS(config_.recorder) {
    ShardOutcome outcome;
    outcome.kind = ShardOutcome::Kind::kDeliverRecord;
    outcome.node = node_id;
    outcome.time = now;
    outcome.stamp = stamp;
    outcome.task = delivered;
    Emit(lane, std::move(outcome));
  }
  if (pool_.Enqueue(node_id, delivered)) {
    StartTask(node_id, now);
  }
}

void Federation::ShedTaskShard(ShardLane* lane, const QueryTask& task,
                               catalog::NodeId node_id, util::VTime now,
                               uint64_t stamp) {
  ShardOutcome outcome;
  outcome.kind = ShardOutcome::Kind::kShed;
  outcome.node = node_id;
  outcome.time = now;
  outcome.stamp = stamp;
  outcome.task = task;
  Emit(lane, std::move(outcome));
}

void Federation::StartTask(catalog::NodeId node_id, util::VTime now) {
  QueryTask task = pool_.BeginNext(node_id, now);
  // Stamp the node's incarnation so this completion event can be
  // recognized as stale if a crash wipes the task before it fires.
  task.epoch = pool_.epoch(node_id);
  ScheduleNodeEvent(now + task.exec_time, NextNodeStamp(node_id),
                    SimEvent::MakeComplete(node_id, task));
}

void Federation::CompleteTask(ShardLane* lane, catalog::NodeId node_id,
                              const QueryTask& task, util::VTime now,
                              uint64_t stamp) {
  // A crash bumped the node's epoch after this completion was scheduled:
  // the task it announces was wiped (and resubmitted by its client), so
  // the event is a ghost of the previous incarnation. Ignore it.
  if (task.epoch != pool_.epoch(node_id)) return;
  bool more = pool_.CompleteCurrent(node_id, now);

  ShardOutcome outcome;
  outcome.node = node_id;
  outcome.time = now;
  outcome.stamp = stamp;
  outcome.task = task;
  // The result arrived after the client's deadline: nobody is waiting for
  // it. The node's work is already spent (wasted capacity — the real cost
  // of serving a client that gave up); the query counts as expired.
  if (config_.query_deadline > 0 &&
      now - task.arrival > config_.query_deadline) {
    outcome.kind = ShardOutcome::Kind::kExpired;
  } else {
    outcome.kind = ShardOutcome::Kind::kComplete;
  }
  Emit(lane, std::move(outcome));

  if (more) StartTask(node_id, now);
}

void Federation::HandleRestart(
    const faults::FaultInjector::Transition& transition) {
  assert(transition.kind ==
         faults::FaultInjector::Transition::Kind::kRestart);
  // The node is back with empty queues and default configuration; a
  // mechanism with learned per-node state (QA-NT's price vector) resets it
  // and re-learns through ordinary market interaction.
  allocator_->OnNodeRestart(transition.node, events_.now());
  QA_OBS(config_.recorder) {
    obs::EventRecord event;
    event.kind = obs::EventRecord::Kind::kRestart;
    event.t_us = events_.now();
    event.node = transition.node;
    EmitRecord(event);
    config_.recorder->Count("restarts");
  }
}

void Federation::HandleSurge(
    const faults::FaultInjector::Transition& transition) {
  // The arrival-rate change was already applied when the trace was
  // expanded at schedule time; this transition exists so traced runs carry
  // a `surge` marker (analysis tools anchor recovery windows on it).
  QA_OBS(config_.recorder) {
    obs::EventRecord event;
    event.kind = obs::EventRecord::Kind::kSurge;
    event.t_us = events_.now();
    event.class_id = transition.class_id;
    event.factor = transition.factor;
    EmitRecord(event);
    config_.recorder->Count("surges");
  }
}

void Federation::HandleShardFault(
    ShardLane* lane, const faults::FaultInjector::Transition& transition,
    util::VTime now, uint64_t stamp) {
  using Kind = faults::FaultInjector::Transition::Kind;
  switch (transition.kind) {
    case Kind::kCrash: {
      std::vector<QueryTask> wiped;
      pool_.Crash(transition.node, now, &wiped);
      QA_OBS(config_.recorder) {
        ShardOutcome outcome;
        outcome.kind = ShardOutcome::Kind::kCrashRecord;
        outcome.node = transition.node;
        outcome.time = now;
        outcome.stamp = stamp;
        Emit(lane, std::move(outcome));
      }
      // Everything queued or running there is gone with the volatile
      // state; the clients detect the silence and resubmit.
      for (const QueryTask& task : wiped) {
        LoseTaskShard(lane, task, transition.node, now, stamp);
      }
      break;
    }
    case Kind::kRestart:
    case Kind::kSurgeStart:
    case Kind::kSurgeEnd:
      assert(false && "restart/surge transitions are mediator-lane events");
      break;
    case Kind::kDegradeStart:
    case Kind::kDegradeEnd:
      QA_OBS(config_.recorder) {
        ShardOutcome outcome;
        outcome.kind = ShardOutcome::Kind::kDegradeRecord;
        outcome.node = transition.node;
        outcome.time = now;
        outcome.stamp = stamp;
        outcome.factor = transition.factor;
        Emit(lane, std::move(outcome));
      }
      break;
  }
}

void Federation::Emit(ShardLane* lane, ShardOutcome outcome) {
  if (lane != nullptr) {
    lane->outcomes.push_back(std::move(outcome));
  } else {
    ApplyOutcome(outcome);
  }
}

void Federation::ApplyOutcome(const ShardOutcome& outcome) {
  // Runs on the mediator thread only (inline dispatch, or the barrier
  // merge), in canonical key order. All times come from the outcome — at
  // a barrier the mediator clock has already moved past them.
  switch (outcome.kind) {
    case ShardOutcome::Kind::kDeliverRecord: {
      QA_OBS(config_.recorder) {
        obs::EventRecord event;
        event.kind = obs::EventRecord::Kind::kDeliver;
        event.t_us = outcome.time;
        event.query = outcome.task.query_id;
        event.class_id = outcome.task.class_id;
        event.node = outcome.node;
        config_.recorder->Record(event);
        config_.recorder->Count("deliveries");
      }
      break;
    }
    case ShardOutcome::Kind::kComplete: {
      double response_ms =
          util::ToMillis(outcome.time - outcome.task.arrival);
      QA_OBS(config_.recorder) {
        obs::EventRecord event;
        event.kind = obs::EventRecord::Kind::kComplete;
        event.t_us = outcome.time;
        event.query = outcome.task.query_id;
        event.class_id = outcome.task.class_id;
        event.node = outcome.node;
        event.response_ms = response_ms;
        config_.recorder->Record(event);
        config_.recorder->Count("completions");
      }
      metrics_.response_time_ms.Add(response_ms);
      metrics_.completions.Add(outcome.time,
                               static_cast<double>(outcome.task.class_id));
      metrics_.completions_per_class[static_cast<size_t>(
          outcome.task.class_id)].Add(outcome.time, 1.0);
      ++metrics_.completed;
      --outstanding_;
      // Node-side terminations update only the exact in-flight count, not
      // the gate's view: inline mode applies this immediately, sharded
      // mode at the next fence, and the gate may run in between. The view
      // resyncs at the tick (see admission_load_).
      if (admission_.enabled()) --admitted_in_flight_;
      break;
    }
    case ShardOutcome::Kind::kExpired: {
      ++metrics_.dropped;
      ++metrics_.dropped_per_class[static_cast<size_t>(
          outcome.task.class_id)];
      ++metrics_.expired;
      --outstanding_;
      if (admission_.enabled()) --admitted_in_flight_;
      QA_OBS(config_.recorder) {
        obs::EventRecord event;
        event.kind = obs::EventRecord::Kind::kDrop;
        event.t_us = outcome.time;
        event.query = outcome.task.query_id;
        event.class_id = outcome.task.class_id;
        event.attempts = outcome.task.attempts;
        config_.recorder->Record(event);
        config_.recorder->Count("expired");
      }
      break;
    }
    case ShardOutcome::Kind::kLost: {
      ++metrics_.lost;
      QA_OBS(config_.recorder) {
        obs::EventRecord event;
        event.kind = obs::EventRecord::Kind::kLost;
        event.t_us = outcome.time;
        event.query = outcome.task.query_id;
        event.class_id = outcome.task.class_id;
        event.node = outcome.node;
        event.attempts = outcome.task.attempts;
        config_.recorder->Record(event);
        config_.recorder->Count("losses");
      }
      // Bounded retry backlog, exactly like the mediator-side loss path:
      // past the bound the client gives up (shed) instead of queueing.
      if (retry_backlog_ >= config_.max_retry_backlog) {
        ++metrics_.shed;
        ++metrics_.dropped;
        ++metrics_.dropped_per_class[static_cast<size_t>(
            outcome.task.class_id)];
        --outstanding_;
        if (admission_.enabled()) --admitted_in_flight_;
        QA_OBS(config_.recorder) {
          obs::EventRecord event;
          event.kind = obs::EventRecord::Kind::kShed;
          event.t_us = outcome.time;
          event.query = outcome.task.query_id;
          event.class_id = outcome.task.class_id;
          event.node = outcome.node;
          event.attempts = outcome.task.attempts + 1;
          config_.recorder->Record(event);
          config_.recorder->Count("shed");
        }
        break;
      }
      ++retry_backlog_;
      // Reconstruct the client's pending query (original arrival time —
      // the loss inflates its response time, which is the point) and
      // resubmit it with the time and stamp the losing lane fixed.
      SimEvent::Pending pending;
      pending.arrival.time = outcome.task.arrival;
      pending.arrival.class_id = outcome.task.class_id;
      pending.arrival.origin = outcome.task.origin;
      pending.arrival.cost_jitter = outcome.task.cost_jitter;
      pending.id = outcome.task.query_id;
      pending.attempts = outcome.task.attempts + 1;
      pending.admitted = true;  // a task is past the gate by construction
      events_.Schedule(outcome.resubmit_time, outcome.resubmit_stamp,
                       SimEvent::MakeArrival(pending));
      break;
    }
    case ShardOutcome::Kind::kCrashRecord: {
      QA_OBS(config_.recorder) {
        obs::EventRecord event;
        event.kind = obs::EventRecord::Kind::kCrash;
        event.t_us = outcome.time;
        event.node = outcome.node;
        config_.recorder->Record(event);
        config_.recorder->Count("crashes");
      }
      break;
    }
    case ShardOutcome::Kind::kDegradeRecord: {
      QA_OBS(config_.recorder) {
        obs::EventRecord event;
        event.kind = obs::EventRecord::Kind::kDegrade;
        event.t_us = outcome.time;
        event.node = outcome.node;
        event.factor = outcome.factor;
        config_.recorder->Record(event);
        config_.recorder->Count("degrades");
      }
      break;
    }
    case ShardOutcome::Kind::kShed: {
      // A bounded node queue turned the task away (or evicted it):
      // shed ⊆ dropped, so conservation still closes the run.
      ++metrics_.shed;
      ++metrics_.dropped;
      ++metrics_.dropped_per_class[static_cast<size_t>(
          outcome.task.class_id)];
      --outstanding_;
      if (admission_.enabled()) --admitted_in_flight_;
      QA_OBS(config_.recorder) {
        obs::EventRecord event;
        event.kind = obs::EventRecord::Kind::kShed;
        event.t_us = outcome.time;
        event.query = outcome.task.query_id;
        event.class_id = outcome.task.class_id;
        event.node = outcome.node;
        event.attempts = outcome.task.attempts;
        config_.recorder->Record(event);
        config_.recorder->Count("shed");
      }
      break;
    }
  }
}

void Federation::MarketTick() {
  int64_t tick_start = 0;
  QA_METRICS(config_.metrics) {
    // Sampled like the allocate probe (kTickProbeStride). The reading is
    // deposited so the mechanism's period hook can time its rollover
    // stage without another clock read; an absent mark marks the tick
    // unsampled.
    if (tick_probe_seq_++ % obs::metrics::kTickProbeStride == 0) {
      tick_start = util::MonotonicClock::NowNanos();
      config_.metrics->MarkPhaseStart(tick_start);
    }
  }
  allocator_->OnPeriodEnd(events_.now());
  allocator_->OnPeriodStart(events_.now());
  ++ticks_;
  // Backoff streak bookkeeping: a round where every allocation attempt
  // was declined bumps the streak, any successful assignment resets it,
  // and a quiet round (no attempts) leaves it alone.
  if (tick_rejects_ > 0 && tick_assigns_ == 0) {
    ++consecutive_decline_rounds_;
  } else if (tick_assigns_ > 0) {
    consecutive_decline_rounds_ = 0;
  }
  tick_assigns_ = 0;
  tick_rejects_ = 0;
  // Admission-control update, once per global period. Deliberately NOT
  // inside a QA_METRICS gate: admission changes which queries run, so it
  // must behave identically with and without a collector attached (the
  // collector-never-perturbs invariant, DESIGN.md §9). The controller
  // keeps its own probe for the same reason.
  if (admission_.enabled()) {
    // The fence has run (sharded mode merges every lane before a market
    // tick dispatches), so admitted_in_flight_ is exact in both modes
    // here: resync the gate's view so node-side completions since the
    // last tick free admission slots.
    admission_load_ = admitted_in_flight_;
    if (ticks_ % std::max(config_.market_tick_divisor, 1) == 0) {
      if (admission_.wants_probe()) {
        allocator_->FillMarketProbe(&admission_probe_);
      }
      admission_.OnPeriod(admission_probe_);
    }
  }
  QA_OBS(config_.recorder) {
    obs::EventRecord event;
    event.kind = obs::EventRecord::Kind::kTick;
    event.t_us = events_.now();
    EmitRecord(event);
    config_.recorder->Count("ticks");
    // Snapshot once per global period (every divisor-th tick), after the
    // period hooks ran: post-rollover prices are what convergence analysis
    // wants to see.
    if (ticks_ % std::max(config_.market_tick_divisor, 1) == 0) {
      EmitSnapshot();
    }
  }
  QA_METRICS(config_.metrics) {
    // The tick phase is the allocator's period hooks plus bookkeeping;
    // sampling and watchdog evaluation is attributed separately below.
    if (tick_start != 0) {
      config_.metrics->RecordPhase(obs::metrics::Phase::kMarketTick,
                                   util::MonotonicClock::NowNanos() -
                                       tick_start,
                                   obs::metrics::kTickProbeStride);
    }
    // Sample once per global period (every divisor-th tick), after the
    // period hooks: the barrier before this tick applied every outcome
    // with an earlier key, so the cumulative counters here are the inline
    // mode's counters byte for byte.
    if (ticks_ % std::max(config_.market_tick_divisor, 1) == 0) {
      obs::metrics::ScopedPhaseTimer timer(config_.metrics,
                                           obs::metrics::Phase::kSnapshot);
      EmitMetricsSample();
    }
  }
  // The barrier before this tick applied every completion and drop with
  // an earlier key, so `outstanding_` is exact here in both modes.
  if (outstanding_ > 0) {
    events_.Schedule(events_.now() + TickInterval(), NextMediatorStamp(),
                     SimEvent::MakeMarketTick());
  }
}

void Federation::EmitRecord(const obs::EventRecord& record) {
  // Every call site is inside a QA_OBS gate already; the gate is repeated
  // here because QA-OBS-002 wants every recorder call lexically gated.
  QA_OBS(config_.recorder) {
    if (!sharded_) {
      config_.recorder->Record(record);
      return;
    }
    MediatorTraceItem item;
    item.time = current_time_;
    item.stamp = current_stamp_;
    item.record = record;
    med_items_.push_back(std::move(item));
  }
}

void Federation::EmitSnapshot() {
  // The call site sits inside a QA_OBS gate already; the gate is repeated
  // here because QA-OBS-002 wants every recorder call lexically gated.
  QA_OBS(config_.recorder) {
    if (!sharded_) {
      config_.recorder->RecordSnapshot(events_.now(),
                                       allocator_->Snapshot());
    } else {
      // Materialized eagerly: by the time the barrier flushes this item
      // the allocator has moved on, and a late Snapshot() would show the
      // future.
      MediatorTraceItem item;
      item.time = current_time_;
      item.stamp = current_stamp_;
      item.is_snapshot = true;
      item.snapshot = allocator_->Snapshot();
      med_items_.push_back(std::move(item));
    }
    config_.recorder->Count("snapshots");
  }
}

void Federation::EmitMetricsSample() {
  // Call sites are inside QA_METRICS gates already; the gate is repeated
  // here so the function stays null-safe on its own, mirroring the
  // lexically gated recorder emitters above.
  QA_METRICS(config_.metrics) {
    int divisor = std::max(config_.market_tick_divisor, 1);
    obs::metrics::SampleRow row;
    row.t_us = events_.now();
    row.period = ticks_ / divisor;
    row.ticks = ticks_;
    row.events_dispatched = metrics_.events_dispatched;
    row.assigned = metrics_.assigned;
    row.completed = metrics_.completed;
    row.dropped = metrics_.dropped;
    row.expired = metrics_.expired;
    row.bounced = metrics_.bounced;
    row.lost = metrics_.lost;
    row.retries = metrics_.retries;
    row.messages = metrics_.messages;
    row.solicited = metrics_.solicited;
    row.outstanding = outstanding_;
    row.shed = metrics_.shed;
    row.admission_rejects = metrics_.admission_rejects;
    row.brownout_level = admission_.brownout_level();
    // Queue-depth histogram: per-node waiting-queue lengths at the period
    // fence. Virtual state, so the histogram is as deterministic as the
    // counters (the one histogram that is not a wall-clock side channel).
    for (catalog::NodeId j = 0; j < num_nodes_; ++j) {
      config_.metrics->registry().Observe(obs::metrics::kNodeQueueDepth,
                                          pool_.QueueLength(j));
    }
    // Watchdogs first: alarms precede the sample that carries the gauges
    // they fired on, so the stream reads cause-before-effect.
    watchdogs_->ObserveOverload(metrics_.shed, admission_.brownout_level());
    allocator_->FillMarketProbe(&market_probe_);
    std::vector<obs::metrics::AlarmRecord> alarms =
        watchdogs_->EvaluatePeriod(row.period, events_.now(), market_probe_);
    for (const obs::metrics::AlarmRecord& alarm : alarms) {
      config_.metrics->Alarm(alarm);
    }
    row.log_price_variance = watchdogs_->log_price_variance();
    row.osc_flip_rate = watchdogs_->osc_flip_rate();
    row.max_reject_age_ms = watchdogs_->max_reject_age_ms();
    row.earnings_cv = watchdogs_->earnings_cv();
    config_.metrics->Sample(row);
  }
}

util::VDuration Federation::TickInterval() const {
  return std::max<util::VDuration>(
      config_.period / std::max(config_.market_tick_divisor, 1), 1);
}

util::VTime Federation::NextMarketTick() const {
  return NextMarketTickAfter(events_.now());
}

util::VTime Federation::NextMarketTickAfter(util::VTime t) const {
  util::VDuration tick = TickInterval();
  return (t / tick + 1) * tick;
}

void Federation::ScheduleNodeEvent(util::VTime when, uint64_t stamp,
                                   SimEvent event) {
  if (sharded_) {
    lanes_[static_cast<size_t>(plan_.shard_of(event.node))].queue.Schedule(
        when, stamp, event);
  } else {
    events_.Schedule(when, stamp, event);
  }
}

double EstimateCapacityQps(const query::CostModel& cost_model,
                           const std::vector<double>& mix,
                           util::VDuration period, int periods) {
  const int num_classes = cost_model.num_classes();
  const int num_nodes = cost_model.num_nodes();
  assert(static_cast<int>(mix.size()) == num_classes);
  double mix_sum = 0.0;
  for (double m : mix) mix_sum += m;
  assert(mix_sum > 0.0);

  // One read of the cost matrix builds the market's agents (default QA-NT
  // config, one per node) and the upper bound on per-period throughput
  // (every node running its cheapest class back to back).
  std::vector<market::QaNtAgent> agents;
  agents.reserve(static_cast<size_t>(num_nodes));
  double max_per_period = 0.0;
  for (catalog::NodeId j = 0; j < num_nodes; ++j) {
    std::vector<util::VDuration> unit_costs(static_cast<size_t>(num_classes));
    util::VDuration cheapest = query::kInfeasibleCost;
    for (int k = 0; k < num_classes; ++k) {
      util::VDuration c = cost_model.Cost(k, j);
      cheapest = std::min(cheapest, c);
      unit_costs[static_cast<size_t>(k)] =
          c == query::kInfeasibleCost
              ? market::CapacitySupplySet::kCannotEvaluate
              : c;
    }
    if (cheapest != query::kInfeasibleCost && cheapest > 0) {
      max_per_period +=
          static_cast<double>(period) / static_cast<double>(cheapest);
    }
    agents.emplace_back(j, std::move(unit_costs), period);
  }

  // Keep each class's pending queue topped up to ~2x its mix share of the
  // throughput bound so servers are always saturated without letting the
  // queues (and the per-period cost) grow unboundedly.
  std::vector<market::Quantity> target(static_cast<size_t>(num_classes));
  for (int k = 0; k < num_classes; ++k) {
    double want =
        2.0 * max_per_period * (mix[static_cast<size_t>(k)] / mix_sum);
    target[static_cast<size_t>(k)] =
        static_cast<market::Quantity>(std::ceil(want));
  }

  // The one client drains its queue class by class, one request per
  // pending query (see ServeClassPhase).
  std::vector<market::Quantity> pending(static_cast<size_t>(num_classes), 0);
  int warmup = periods / 2;
  market::Quantity consumed = 0;
  for (int t = 0; t < periods; ++t) {
    for (size_t k = 0; k < pending.size(); ++k) {
      pending[k] = std::max(pending[k], target[k]);
    }
    for (market::QaNtAgent& agent : agents) agent.BeginPeriod();
    for (int k = 0; k < num_classes; ++k) {
      market::Quantity& queue = pending[static_cast<size_t>(k)];
      if (queue <= 0) continue;
      market::Quantity served = ServeClassPhase(&agents, k, queue);
      queue -= served;
      if (t >= warmup) consumed += served;
    }
    for (market::QaNtAgent& agent : agents) agent.EndPeriod();
  }
  double measured_seconds =
      util::ToSeconds(period) * static_cast<double>(periods - warmup);
  return measured_seconds > 0.0 ? static_cast<double>(consumed) /
                                      measured_seconds
                                : 0.0;
}

}  // namespace qa::sim
