#ifndef QAMARKET_UTIL_TASK_RUNNER_H_
#define QAMARKET_UTIL_TASK_RUNNER_H_

#include <functional>

namespace qa::util {

/// Fork-join execution abstraction for intra-run parallelism without a
/// concrete thread pool (the sim layer sits *below* qa_exec in the
/// dependency graph, so it cannot see exec::ThreadPool directly). Its one
/// caller in a run is the sharded federation's lane drain at each market-
/// tick fence (Federation::FenceAndMerge); allocators never fork.
///
/// Contract: ParallelFor(n, fn) invokes fn(0) ... fn(n-1) exactly once
/// each, possibly concurrently, and returns only after every invocation
/// finished (a full barrier). Implementations must not reorder visible
/// side effects across the return: everything fn wrote happens-before the
/// caller's next statement. Callers are responsible for making the fn(i)
/// invocations mutually data-race-free (disjoint writes); determinism of
/// *results* must never depend on the interleaving, only on the index.
///
/// Re-entrancy: ParallelFor must not be called from inside one of its own
/// fn invocations (a nested call on a shared fixed-size pool can deadlock).
/// The federation's bulk-synchronous shard loop issues its fork-joins
/// strictly one at a time from the mediator thread, so one pool serves a
/// whole run.
class TaskRunner {
 public:
  virtual ~TaskRunner() = default;

  /// Upper bound on how many fn invocations can make progress at once
  /// (>= 1). Informational (reported in run metadata); results must not
  /// depend on the value.
  virtual int concurrency() const = 0;

  virtual void ParallelFor(int n,
                           const std::function<void(int)>& fn) const = 0;
};

}  // namespace qa::util

#endif  // QAMARKET_UTIL_TASK_RUNNER_H_
