// Thread shards behind the process-wide work tallies. Inside engine tasks
// kernels count into the attempt's block (work_counters.h), which reaches
// its thread's shard once, when its scope ends; outside every scope they
// count straight into the shard. Either way only the owning thread writes
// a shard. The registry mutex is taken only to lease or return a shard
// (once per thread) and to take a snapshot.
#include "common/work_counters.h"

#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace mwsj {

namespace {

constexpr int64_t WorkCounters::*kFields[] = {
    &WorkCounters::project_calls,      &WorkCounters::split_calls,
    &WorkCounters::replicate_f1_calls, &WorkCounters::replicate_f2_calls,
    &WorkCounters::enlarged_split_calls, &WorkCounters::pair_checks,
    &WorkCounters::range_pair_checks,  &WorkCounters::tuple_checks,
    &WorkCounters::owned,
};

static_assert(alignof(WorkCounters) >=
              std::atomic_ref<int64_t>::required_alignment);

// One thread's share of the process-wide totals. Only the leasing thread
// stores to `counts`; snapshots read it concurrently, both through
// std::atomic_ref. Cache-line aligned so neighbouring shards never share a
// line.
struct alignas(64) Shard {
  WorkCounters counts;
  bool leased = false;  // Guarded by the registry mutex.
};

// Shards are never freed: a thread's tallies must outlive it. An exited
// thread's shard is handed to the next new thread, whose counts keep
// accumulating on top (the sum is all a snapshot reads), so the registry
// grows only to the peak number of simultaneously live counting threads.
class ShardRegistry {
 public:
  Shard* Lease() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    for (const std::unique_ptr<Shard>& shard : shards_) {
      if (!shard->leased) {
        shard->leased = true;
        return shard.get();
      }
    }
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->leased = true;
    return shards_.back().get();
  }

  void Return(Shard* shard) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    shard->leased = false;
  }

  WorkCounters Sum() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    WorkCounters total;
    for (const std::unique_ptr<Shard>& shard : shards_) {
      for (int64_t WorkCounters::*f : kFields) {
        total.*f += std::atomic_ref<int64_t>(shard->counts.*f)
                        .load(std::memory_order_relaxed);
      }
    }
    return total;
  }

 private:
  Mutex mu_;
  std::vector<std::unique_ptr<Shard>> shards_ GUARDED_BY(mu_);
};

// Deliberately leaked: threads may exit (and return their shard) after
// static destruction has begun.
ShardRegistry& Registry() {
  static ShardRegistry* const registry = new ShardRegistry;
  return *registry;
}

// The calling thread's lease, taken on its first counted call or closed
// scope. Returning it at thread exit also unhooks the shard from the
// current-block pointer.
struct ThreadLease {
  ThreadLease() = default;
  ThreadLease(const ThreadLease&) = delete;
  ThreadLease& operator=(const ThreadLease&) = delete;
  ~ThreadLease() {
    if (work_internal::t_block == &shard->counts) {
      work_internal::t_block = nullptr;
    }
    Registry().Return(shard);
  }

  Shard* const shard = Registry().Lease();
};

thread_local ThreadLease t_lease;

}  // namespace

WorkCounters& work_internal::LeaseThreadShard() {
  t_block = &t_lease.shard->counts;
  return *t_block;
}

void WorkCounters::Add(const WorkCounters& other) {
  for (int64_t WorkCounters::*f : kFields) this->*f += other.*f;
}

WorkCounters WorkCountersDelta(const WorkCounters& before,
                               const WorkCounters& after) {
  WorkCounters d;
  for (int64_t WorkCounters::*f : kFields) d.*f = after.*f - before.*f;
  return d;
}

WorkCounters SnapshotWorkCounters() { return Registry().Sum(); }

WorkCountersScope::~WorkCountersScope() {
  work_internal::t_block = previous_;
  WorkCounters& shard = t_lease.shard->counts;
  for (int64_t WorkCounters::*f : kFields) {
    if (block_->*f != 0) work_internal::AddWork(&(shard.*f), block_->*f);
  }
}

}  // namespace mwsj
