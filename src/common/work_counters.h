#ifndef MWSJ_COMMON_WORK_COUNTERS_H_
#define MWSJ_COMMON_WORK_COUNTERS_H_

#include <atomic>
#include <cstdint>

namespace mwsj {

/// Executed-work tallies of the per-record kernels: the §4 cell transforms
/// (grid/transform.h) and the §6.2 / §5 ownership checks (core/dedup.h).
/// Each kernel call adds one to one field of the *current block* (below);
/// the block is a plain struct, so counting costs a load and a store to
/// memory the calling thread owns — no read-modify-write on a shared line.
///
/// Two views of the same tallies exist:
///
///   * per job, exactly-once: MapReduceJob::Run points the current block at
///     an attempt-local WorkCounters for every map and reduce task attempt
///     and adds only *committed* attempts' blocks to JobStats::work, so a
///     job reports the same work whether it ran alone, beside concurrent
///     scheduler jobs, or under injected faults;
///   * process-wide, executed work: when a block's scope ends it is folded
///     into the calling thread's shard, committed or not, and
///     SnapshotWorkCounters() sums the shards. Deltas of two snapshots
///     therefore count discarded and speculative attempts too — the retry
///     amplification — and blend every job running in between.
struct WorkCounters {
  // Cell transforms (grid/transform.h).
  int64_t project_calls = 0;
  int64_t split_calls = 0;
  int64_t replicate_f1_calls = 0;
  int64_t replicate_f2_calls = 0;
  int64_t enlarged_split_calls = 0;
  // Ownership checks (core/dedup.h); `owned` counts the checks of every
  // kind that answered "this cell owns it".
  int64_t pair_checks = 0;
  int64_t range_pair_checks = 0;
  int64_t tuple_checks = 0;
  int64_t owned = 0;

  void Add(const WorkCounters& other);
  bool operator==(const WorkCounters&) const = default;
};

/// Per-field difference `after - before`.
WorkCounters WorkCountersDelta(const WorkCounters& before,
                               const WorkCounters& after);

/// Process-wide executed-work totals: the sum of every thread's shard,
/// including shards of threads that have exited. Work of a block whose
/// scope is still open is not included yet.
WorkCounters SnapshotWorkCounters();

namespace work_internal {

/// The calling thread's current block: the innermost open scope's block,
/// else the thread's shard once leased; null before the first count.
inline thread_local WorkCounters* t_block = nullptr;

/// Leases the calling thread's shard and makes it the current block.
WorkCounters& LeaseThreadShard();

/// Adds `delta` to `*field` of a block only the calling thread writes.
/// Relaxed load + store, not a read-modify-write: the owner is the sole
/// writer, and the atomic access only keeps a concurrent snapshot's read
/// of a shard well-defined.
inline void AddWork(int64_t* field, int64_t delta) {
  std::atomic_ref<int64_t> f(*field);
  f.store(f.load(std::memory_order_relaxed) + delta,
          std::memory_order_relaxed);
}

}  // namespace work_internal

/// The block kernel calls count into: the innermost open scope's block, or
/// the thread's shard outside every scope (tests, single-node paths).
inline WorkCounters& CurrentWorkCounters() {
  WorkCounters* block = work_internal::t_block;
  return block != nullptr ? *block : work_internal::LeaseThreadShard();
}

/// Counts one kernel call: `CountWork(&WorkCounters::split_calls)`.
inline void CountWork(int64_t WorkCounters::*field) {
  work_internal::AddWork(&(CurrentWorkCounters().*field), 1);
}

/// Points the calling thread's current block at `*block` for the scope's
/// lifetime. On exit it restores the previous block (scopes nest) and
/// folds `*block` into the thread's shard; `*block` keeps its tallies, so
/// the owner can still attribute them (JobStats::work).
class WorkCountersScope {
 public:
  explicit WorkCountersScope(WorkCounters* block)
      : block_(block), previous_(work_internal::t_block) {
    work_internal::t_block = block;
  }
  ~WorkCountersScope();

  WorkCountersScope(const WorkCountersScope&) = delete;
  WorkCountersScope& operator=(const WorkCountersScope&) = delete;

 private:
  WorkCounters* const block_;
  WorkCounters* const previous_;
};

}  // namespace mwsj

#endif  // MWSJ_COMMON_WORK_COUNTERS_H_
