#ifndef MWSJ_MAPREDUCE_ENGINE_H_
#define MWSJ_MAPREDUCE_ENGINE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/effects.h"
#include "common/execution_context.h"
#include "common/mutex.h"
#include "common/stopwatch.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "common/work_counters.h"
#include "mapreduce/counters.h"
#include "mapreduce/dfs.h"
#include "mapreduce/spill.h"
#include "simd/simd.h"
#include "mapreduce/fault.h"

namespace mwsj {

namespace engine_internal {

/// Best-effort rendering of a shuffle key for error messages; keys only
/// need ordering and equality, so non-printable types degrade gracefully.
template <typename K>
std::string DescribeKey(const K& key) {
  if constexpr (std::is_arithmetic_v<K>) {
    return std::to_string(key);
  } else if constexpr (std::is_convertible_v<const K&, std::string>) {
    return std::string(key);
  } else {
    return "<unprintable key>";
  }
}

}  // namespace engine_internal

/// In-process map-reduce engine.
///
/// This substrate plays the role Hadoop 0.20.2 plays in the paper (§2,
/// §7.8.1): user code supplies a map function that turns input records into
/// intermediate key-value pairs, the engine shuffles pairs to reducers by a
/// partition function, and a reduce function processes each key group. The
/// engine is deliberately faithful to the paper's cost structure rather than
/// to Hadoop's implementation details:
///
///   * every intermediate pair is counted (and sized) — that is the
///     communication cost the algorithms are designed to minimize;
///   * reducers execute as independent tasks with per-task timing, so
///     reducer skew is observable;
///   * there is one shuffle, Hadoop's: every mapper chunk key-sorts its
///     buckets and every reducer k-way merges its bucket column, breaking
///     key ties by chunk index. Execution is therefore deterministic:
///     reducers iterate key groups in key order, and a key's values arrive
///     in input order regardless of thread scheduling;
///   * tasks can fail and be re-executed: an `ExecutionContext::faults`
///     plan (mapreduce/fault.h) injects deterministic per-attempt
///     crash/flaky/straggler faults, and the engine retries with bounded
///     exponential backoff while discarding everything a failed attempt
///     produced — emits, user counters, DFS writes — so job output stays
///     byte-identical to a fault-free run (Hadoop's exactly-once task
///     re-execution, with the wasted work accounted in JobStats);
///   * the shuffle is memory-budgeted: a positive
///     `ExecutionContext::options.shuffle_memory_budget` (or the
///     MWSJ_SHUFFLE_BUDGET env override) makes over-budget mapper chunks
///     flush their sorted buckets as spill runs (columnar-compressed where
///     the types allow), which the reducer merge streams back — same output
///     bytes, bounded resident shuffle memory (DESIGN.md §2.13,
///     JobStats::spill). Without a budget nothing spills.
///
/// Keys must be totally ordered (operator<) and equality-comparable; keys
/// and values must be movable and default-constructible (the mapper-side
/// scatter builds reducer-major shards in place). The partition and
/// value-size functions run inside mapper tasks and must be thread-safe
/// (in practice: pure functions of the key/value).
template <typename In, typename K, typename V, typename Out>
class MapReduceJob {
 public:
  using PartitionFn = std::function<int(const K&)>;
  using SizeFn = std::function<int64_t(const V&)>;

  /// Collects intermediate pairs from one map invocation, computing each
  /// pair's reducer at emit time. Each map chunk owns one emitter plus its
  /// own byte/record tallies, so mappers never contend on shared state; the
  /// tallies are summed after the map barrier.
  ///
  /// The emitter is scoped to one task *attempt*: counter increments land
  /// in an attempt-local map the engine merges into JobStats only when the
  /// attempt commits, so a crashed or discarded attempt's counts vanish
  /// with its emits (exactly-once under fault injection). Kernel work
  /// counted during the attempt (common/work_counters.h) is scoped the
  /// same way and reaches JobStats::work only on commit.
  class Emitter {
   public:
    Emitter(std::vector<std::pair<K, V>>* pairs, std::vector<uint32_t>* route,
            const PartitionFn* partition, const SizeFn* value_size,
            const std::string* job_name, int num_reducers,
            std::map<std::string, int64_t>* counters,
            std::vector<K>* scratch_keys, int64_t job_id = -1)
        : pairs_(pairs), route_(route), partition_(partition),
          value_size_(value_size), job_name_(job_name),
          num_reducers_(num_reducers), counters_(counters),
          scratch_keys_(scratch_keys), job_id_(job_id) {}
    /// MWSJ_DETERMINISTIC: the emit stream is the byte-identity contract —
    /// everything transitively feeding it must be order-deterministic.
    MWSJ_DETERMINISTIC void Emit(K key, V value) {
      const int r = (*partition_)(key);
      // An out-of-range partition result would corrupt the counting sort
      // out of bounds; fail fast with the job and key instead. With many
      // scheduled jobs sharing one pool, the same job *name* can be in
      // flight several times over — the id suffix names the offender
      // unambiguously.
      if (r < 0 || r >= num_reducers_) [[unlikely]] {
        const std::string job_suffix =
            job_id_ >= 0 ? " (job #" + std::to_string(job_id_) + ")" : "";
        std::fprintf(stderr,
                     "MapReduceJob '%s': partition function returned %d for "
                     "key %s, outside the valid reducer range [0, %d)%s\n",
                     job_name_->c_str(), r,
                     engine_internal::DescribeKey(key).c_str(), num_reducers_,
                     job_suffix.c_str());
        std::abort();
      }
      bytes_ += (*value_size_)(value);
      // mwsj-check: allow(alloc-free-reach): emit buffers are pre-reserved
      // per attempt and budget-tracked; amortized growth here is the
      // engine's charge, not the allocation-free kernel caller's.
      route_->push_back(static_cast<uint32_t>(r));
      // mwsj-check: allow(alloc-free-reach): same pre-reserved emit buffer.
      pairs_->emplace_back(std::move(key), std::move(value));
    }

    /// Adds to a user counter, attempt-locally: the delta reaches
    /// JobStats.user_counters only if this attempt commits.
    void IncrementCounter(const std::string& name, int64_t delta) {
      (*counters_)[name] += delta;
    }

    /// An empty key buffer owned by the map task and reused across its
    /// records — for map functions that route one record to several keys
    /// (the transforms' caller-owned cell vector). Its contents are
    /// invalidated by the next call.
    std::vector<K>& ScratchKeys() {
      scratch_keys_->clear();
      return *scratch_keys_;
    }

    int64_t bytes() const { return bytes_; }

   private:
    std::vector<std::pair<K, V>>* pairs_;
    std::vector<uint32_t>* route_;
    const PartitionFn* partition_;
    const SizeFn* value_size_;
    const std::string* job_name_;
    int num_reducers_;
    std::map<std::string, int64_t>* counters_;
    std::vector<K>* scratch_keys_;
    int64_t job_id_ = -1;
    int64_t bytes_ = 0;
  };

  /// Collects output records from one reduce invocation. Attempt-scoped
  /// exactly like Emitter: counter increments are merged only on commit.
  class OutEmitter {
   public:
    OutEmitter(std::vector<Out>* sink, std::map<std::string, int64_t>* counters)
        : sink_(sink), counters_(counters) {}
    /// MWSJ_DETERMINISTIC: reducer output order is part of the
    /// byte-identity contract (see Emitter::Emit).
    MWSJ_DETERMINISTIC void Emit(Out record) {
      // mwsj-check: allow(alloc-free-reach): the output sink is the
      // engine's budgeted buffer; growth is the job's charge, not the
      // reduce kernel's.
      sink_->push_back(std::move(record));
    }

    /// Adds to a user counter, attempt-locally (see Emitter).
    void IncrementCounter(const std::string& name, int64_t delta) {
      (*counters_)[name] += delta;
    }

   private:
    std::vector<Out>* sink_;
    std::map<std::string, int64_t>* counters_;
  };

  using MapFn = std::function<void(const In&, Emitter&)>;
  /// One call per key group, in key order; values arrive in arrival
  /// (chunk-major emit) order. The span points directly into the reducer's
  /// sorted value array — it is valid only for the duration of the call,
  /// and the reduce function must not retain it.
  using ReduceFn = std::function<void(const K&, std::span<const V>, OutEmitter&)>;

  MapReduceJob(std::string name, int num_reducers)
      : name_(std::move(name)), num_reducers_(num_reducers) {}

  MapReduceJob& set_map(MapFn fn) {
    map_ = std::move(fn);
    return *this;
  }
  MapReduceJob& set_reduce(ReduceFn fn) {
    reduce_ = std::move(fn);
    return *this;
  }
  /// Defaults to `std::hash<K> % num_reducers`. The spatial algorithms use
  /// the identity partitioner (key = cell id = reducer id).
  MapReduceJob& set_partition(PartitionFn fn) {
    partition_ = std::move(fn);
    return *this;
  }
  /// Byte size of one intermediate value, for communication accounting.
  /// Defaults to sizeof(V) + sizeof(K).
  MapReduceJob& set_value_size(SizeFn fn) {
    value_size_ = std::move(fn);
    return *this;
  }
  /// Byte size of one input / output record for DFS accounting.
  MapReduceJob& set_record_bytes(int64_t in_bytes, int64_t out_bytes) {
    input_record_bytes_ = in_bytes;
    output_record_bytes_ = out_bytes;
    return *this;
  }

  /// Adds to a user counter visible in the resulting JobStats. Thread-safe,
  /// but NOT attempt-scoped: a map/reduce body calling this directly is
  /// double-counted when its attempt is re-executed under a fault plan.
  /// Task bodies must use Emitter/OutEmitter::IncrementCounter instead;
  /// this method is for driver-side accounting outside task attempts.
  void IncrementCounter(const std::string& name, int64_t delta)
      EXCLUDES(counter_mu_) {
    MutexLock lock(&counter_mu_);
    user_counters_[name] += delta;
  }

  /// Executes the job over `input`, appending reducer output to `*output`.
  /// `ctx.pool` may be null for synchronous single-threaded execution;
  /// `ctx.tracer` (optional) records the job span, the map/shuffle/reduce
  /// phase spans, and one task span per map chunk / shuffle merge /
  /// reduce task. When `ctx.job_id >= 0` (scheduler-submitted runs) every
  /// span carries a "job" arg, JobStats records the id, and DFS part files
  /// are staged under a per-job `job-<id>/` prefix so concurrent jobs with
  /// the same job name never collide.
  ///
  /// MWSJ_BLOCKING_OK: the driver is the one sanctioned blocking scope —
  /// it forks/join task batches, simulates straggler delays, and commits
  /// DFS stages. blocking-reach traversals stop here instead of flagging
  /// the orchestration beneath it.
  MWSJ_BLOCKING_OK JobStats Run(std::span<const In> input,
                                std::vector<Out>* output,
                                const ExecutionContext& ctx =
                                    ExecutionContext());

 private:
  /// Folds a committed attempt's counter deltas into the job counters.
  void MergeCounters(const std::map<std::string, int64_t>& deltas)
      EXCLUDES(counter_mu_) {
    if (deltas.empty()) return;
    MutexLock lock(&counter_mu_);
    for (const auto& [name, delta] : deltas) user_counters_[name] += delta;
  }

  std::string name_;
  int num_reducers_;
  MapFn map_;
  ReduceFn reduce_;
  PartitionFn partition_;
  SizeFn value_size_;
  int64_t input_record_bytes_ = static_cast<int64_t>(sizeof(In));
  int64_t output_record_bytes_ = static_cast<int64_t>(sizeof(Out));

  Mutex counter_mu_;
  std::map<std::string, int64_t> user_counters_ GUARDED_BY(counter_mu_);
};

template <typename In, typename K, typename V, typename Out>
JobStats MapReduceJob<In, K, V, Out>::Run(std::span<const In> input,
                                          std::vector<Out>* output,
                                          const ExecutionContext& ctx) {
  ThreadPool* const pool = ctx.pool;
  Tracer* const tracer = ctx.tracer;
  const int64_t job_id = ctx.job_id;
  // Tags a span with the scheduler-assigned job id, so interleaved task
  // spans from concurrent jobs on one pool stay attributable. Standalone
  // runs (job_id < 0) keep their trace output byte-identical to before.
  auto tag_job = [job_id](TraceSpan& span) {
    if (job_id >= 0) span.AddArg("job", job_id);
  };
  TraceSpan job_span(tracer, name_, "job");
  tag_job(job_span);
  Stopwatch job_watch;
  JobStats stats;
  stats.job_name = name_;
  stats.job_id = job_id;
  stats.num_reducers = num_reducers_;
  stats.map_input_records = static_cast<int64_t>(input.size());
  stats.map_input_bytes = stats.map_input_records * input_record_bytes_;

  // A reused job object starts each run with fresh user counters.
  {
    MutexLock lock(&counter_mu_);
    user_counters_.clear();
  }

  PartitionFn partition = partition_;
  if (!partition) {
    partition = [this](const K& k) {
      return static_cast<int>(std::hash<K>{}(k) % num_reducers_);
    };
  }
  SizeFn value_size = value_size_;
  if (!value_size) {
    value_size = [](const V&) {
      return static_cast<int64_t>(sizeof(V) + sizeof(K));
    };
  }

  // ---- Fault-injection setup. An absent or empty plan collapses to a
  // null pointer so the fault-free hot path costs one branch per task
  // attempt and never touches the retry machinery.
  const FaultPlan* faults = ctx.faults;
  if (faults != nullptr && faults->empty()) faults = nullptr;
  static const RetryPolicy kDefaultRetry;
  const RetryPolicy& retry = ctx.retry != nullptr ? *ctx.retry : kDefaultRetry;
  // Charges (and serves) the backoff delay before retrying a failed
  // attempt. Tests inject a virtual clock via RetryPolicy::sleep.
  auto charge_backoff = [&retry](int attempt, PhaseFaultStats* fs) {
    const double s = BackoffSeconds(retry, attempt);
    fs->backoff_seconds += s;
    if (retry.sleep) {
      retry.sleep(s);
    } else if (s > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(s));
    }
  };
  // A task exhausting its retry budget fails the whole job, matching
  // Hadoop's mapred.*.max.attempts behavior; the engine has no partial-
  // output mode, so fail fast like the partition-range check above.
  auto retries_exhausted = [this, &retry, job_id](FaultPhase phase,
                                                  size_t task) {
    const std::string job_suffix =
        job_id >= 0 ? " (job #" + std::to_string(job_id) + ")" : "";
    std::fprintf(stderr,
                 "MapReduceJob '%s': %s task %zu failed %d attempts, "
                 "aborting job%s\n",
                 name_.c_str(), FaultPhaseName(phase), task,
                 retry.max_attempts, job_suffix.c_str());
    std::abort();
  };

  // ---- Shuffle setup (DESIGN.md §2.13). There is one shuffle: every
  // committed map chunk key-sorts its buckets after the counting sort, and
  // each reducer k-way merges its bucket column into its inbox at reduce
  // time. A positive budget adds spilling: a chunk whose intermediate bytes
  // exceed its budget share flushes all buckets as sorted runs, which the
  // merge streams back. With no budget nothing spills. Spill runs live in
  // an engine-internal DFS, not ctx.dfs: the user's DFS accounts the
  // algorithm's I/O (the paper's communication cost), while spill traffic
  // is an engine implementation detail reported via SpillStats.
  const int64_t shuffle_budget = spill::ResolveShuffleBudget(ctx.options);
  const bool budget_mode = shuffle_budget > 0;
  stats.spill.budget_bytes = shuffle_budget;
  Dfs spill_dfs;
  // Types that can neither be columnar-encoded nor copied into a raw run
  // stay in memory even over budget (best effort — the engine never
  // breaks a job to enforce the budget).
  constexpr bool kCanSpill =
      spill::kEncodable<K, V> || (std::is_copy_constructible_v<K> &&
                                  std::is_copy_constructible_v<V>);

  // ---- Map phase. Input is split into fixed chunks; each chunk partitions
  // its pairs at emit time and finishes its task with a stable local
  // counting sort into a reducer-major shard (the chunk's row of the
  // num_chunks × num_reducers bucket matrix, stored compactly as one
  // vector plus offsets — Hadoop's mapper-side partition/sort/spill), then
  // key-sorts each bucket. The pair order every reducer merges (chunk-major,
  // emit order within a chunk) is independent of thread scheduling.
  const size_t num_reducers = static_cast<size_t>(num_reducers_);
  const size_t chunk_size =
      std::max<size_t>(1, (input.size() + 63) / 64);
  const size_t num_chunks =
      input.empty() ? 0 : (input.size() + chunk_size - 1) / chunk_size;
  struct MapShard {
    std::vector<std::pair<K, V>> pairs;  // Reducer-major, buckets key-sorted.
    std::vector<size_t> offsets;         // Bucket r = [offsets[r], offsets[r+1]).
    int64_t records = 0;                 // pairs.size() at commit (pairs may spill).
    int64_t bytes = 0;
    double seconds = 0;
    WorkCounters work;       // The committed attempt's kernel work.
    PhaseFaultStats faults;  // This task's attempt/retry accounting.
    // Budget mode only:
    std::vector<int64_t> bucket_bytes;  // Per-reducer intermediate bytes.
    bool spilled = false;               // Buckets live as spill runs, not pairs.
    int64_t stored_bytes = 0;           // On-disk size of this chunk's runs.
    SpillStats spill;                   // This task's spill accounting.
  };
  std::vector<MapShard> shards(num_chunks);
  const int64_t chunk_budget = spill::ChunkBudget(shuffle_budget, num_chunks);

  // Stable key sort of one bucket, preserving emit order within equal keys,
  // so the reduce-side merge sees only sorted sources. A bucket that is
  // already sorted is left alone: every bucket of the identity-partitioned
  // spatial jobs holds a single key (its cell). The scratch belongs to one
  // map task and is reused across its buckets.
  struct SortScratch {
    std::vector<uint64_t> keys;
    std::vector<uint32_t> idx;
    std::vector<std::pair<K, V>> pairs;
  };
  auto sort_bucket = [](std::vector<std::pair<K, V>>& pairs, size_t lo,
                        size_t hi, SortScratch* scratch) {
    const auto first = pairs.begin() + static_cast<ptrdiff_t>(lo);
    const auto last = pairs.begin() + static_cast<ptrdiff_t>(hi);
    auto by_key = [](const std::pair<K, V>& a, const std::pair<K, V>& b) {
      return a.first < b.first;
    };
    if (std::is_sorted(first, last, by_key)) return;
    if constexpr (std::is_integral_v<K> && sizeof(K) <= 8) {
      const size_t m = hi - lo;
      scratch->keys.resize(m);
      scratch->idx.resize(m);
      for (size_t i = 0; i < m; ++i) {
        scratch->keys[i] = simd::OrderedKeyFromInt(pairs[lo + i].first);
        scratch->idx[i] = static_cast<uint32_t>(i);
      }
      simd::ActiveKernels().sort_key_idx(scratch->keys.data(),
                                         scratch->idx.data(), m);
      scratch->pairs.clear();
      for (size_t i = 0; i < m; ++i) {
        scratch->pairs.push_back(std::move(pairs[lo + scratch->idx[i]]));
      }
      std::move(scratch->pairs.begin(), scratch->pairs.end(), first);
    } else {
      std::stable_sort(first, last, by_key);
    }
  };
  auto spill_run_name = [](size_t c, size_t r) {
    return "spill/chunk-" + std::to_string(c) + "/r-" + std::to_string(r);
  };
  // After a chunk's committing map attempt, sort its buckets and — in
  // budget mode, if the chunk exceeds its budget share — flush them all as
  // sorted runs through an attempt-staged, fault-injectable write
  // (FaultPhase::kSpill, task id = chunk index). Runs are columnar-
  // compressed when (K, V) supports it, raw sorted pair vectors otherwise;
  // either way flushing is non-destructive until the stage commits, so a
  // failed flush attempt retries from intact buckets.
  auto sort_and_maybe_spill = [&](size_t c) {
    MapShard& shard = shards[c];
    if (shard.pairs.empty()) return;
    Stopwatch spill_watch;
    SortScratch scratch;
    for (size_t r = 0; r < num_reducers; ++r) {
      sort_bucket(shard.pairs, shard.offsets[r], shard.offsets[r + 1],
                  &scratch);
    }
    if (budget_mode) {
      shard.bucket_bytes.assign(num_reducers, 0);
      for (size_t r = 0; r < num_reducers; ++r) {
        for (size_t i = shard.offsets[r]; i < shard.offsets[r + 1]; ++i) {
          shard.bucket_bytes[r] += value_size(shard.pairs[i].second);
        }
      }
    }
    if (budget_mode && shard.bytes > chunk_budget && kCanSpill) {
      // Stages runs for the first `bucket_limit` reducers (a flaky flush
      // dies midway through its buckets). Reads the buckets, never moves
      // them.
      auto stage_raw_run = [&](DfsStage& stage, size_t r, size_t lo,
                               size_t hi) {
        if constexpr (std::is_copy_constructible_v<K> &&
                      std::is_copy_constructible_v<V>) {
          auto run = std::make_shared<std::vector<std::pair<K, V>>>(
              shard.pairs.begin() + static_cast<ptrdiff_t>(lo),
              shard.pairs.begin() + static_cast<ptrdiff_t>(hi));
          (void)stage.Write(
              spill_run_name(c, r),
              std::shared_ptr<const std::vector<std::pair<K, V>>>(
                  std::move(run)),
              1, shard.bucket_bytes[r]);
        }
      };
      // Column staging shared by every bucket of every flush attempt below
      // (including flaky-I/O retries and speculative duplicate flushes):
      // grows to the largest bucket once instead of reallocating a
      // bucket-sized vector per EncodeRun call.
      std::vector<uint64_t> encode_scratch;
      auto stage_runs = [&](DfsStage& stage, size_t bucket_limit) {
        int64_t runs = 0;
        for (size_t r = 0; r < bucket_limit; ++r) {
          const size_t lo = shard.offsets[r];
          const size_t hi = shard.offsets[r + 1];
          if (hi == lo) continue;
          if constexpr (spill::kEncodable<K, V>) {
            auto bytes = std::make_shared<std::vector<uint8_t>>();
            spill::EncodeRun(shard.pairs.data() + lo, hi - lo,
                             &encode_scratch, bytes.get());
            const int64_t encoded = static_cast<int64_t>(bytes->size());
            // A tiny run can encode *larger* than its raw bytes (frame and
            // block headers dominate a handful of rows); store whichever
            // representation is smaller. The merge probes the stored type.
            bool use_encoded = true;
            if constexpr (std::is_copy_constructible_v<K> &&
                          std::is_copy_constructible_v<V>) {
              use_encoded = encoded <= shard.bucket_bytes[r];
            }
            if (use_encoded) {
              (void)stage.Write(spill_run_name(c, r),
                                std::shared_ptr<const std::vector<uint8_t>>(
                                    std::move(bytes)),
                                1, encoded);
            } else {
              stage_raw_run(stage, r, lo, hi);
            }
          } else {
            stage_raw_run(stage, r, lo, hi);
          }
          ++runs;
        }
        return runs;
      };
      for (int attempt = 0;; ++attempt) {
        const FaultKind fault =
            faults == nullptr ? FaultKind::kNone
                              : faults->At(FaultPhase::kSpill,
                                           static_cast<int64_t>(c), attempt);
        if (fault == FaultKind::kCrash || fault == FaultKind::kFlakyIo) {
          TraceSpan flush_span(tracer, "spill_flush", "task");
          tag_job(flush_span);
          flush_span.AddArg("chunk", static_cast<int64_t>(c));
          flush_span.AddArg("attempt", static_cast<int64_t>(attempt));
          flush_span.AddArg("failed", int64_t{1});
          if (fault == FaultKind::kFlakyIo) {
            // Flaky flush: half the buckets staged, then the attempt dies;
            // the stage's destructor discards them, so the spill DFS never
            // sees a partial flush.
            DfsStage stage(&spill_dfs);
            (void)stage_runs(stage, num_reducers / 2);
            shard.spill.wasted_flush_bytes += stage.staged_bytes();
          }
          if (attempt + 1 >= retry.max_attempts) {
            retries_exhausted(FaultPhase::kSpill, c);
          }
          ++shard.spill.flush_retries;
          charge_backoff(attempt, &shard.faults);
          continue;
        }
        TraceSpan flush_span(tracer, "spill_flush", "task");
        tag_job(flush_span);
        flush_span.AddArg("chunk", static_cast<int64_t>(c));
        DfsStage stage(&spill_dfs);
        const int64_t runs = stage_runs(stage, num_reducers);
        shard.stored_bytes = stage.staged_bytes();
        stage.Commit();
        shard.spilled = true;
        shard.spill.spilled_chunks = 1;
        shard.spill.spilled_runs = runs;
        shard.spill.spilled_raw_bytes = shard.bytes;
        shard.spill.spilled_stored_bytes = shard.stored_bytes;
        flush_span.AddArg("runs", runs);
        flush_span.AddArg("stored_bytes", shard.stored_bytes);
        if (fault == FaultKind::kSlow) {
          // Straggler flush: the speculative duplicate stages an identical
          // set of runs and is discarded (buckets are still intact — the
          // pairs are released only below).
          DfsStage spec(&spill_dfs);
          (void)stage_runs(spec, num_reducers);
          shard.spill.wasted_flush_bytes += spec.staged_bytes();
        }
        break;
      }
      std::vector<std::pair<K, V>>().swap(shard.pairs);  // Runs own the data now.
    }
    shard.seconds += spill_watch.ElapsedSeconds();
  };

  Stopwatch phase_watch;
  auto run_chunk = [&](size_t c) {
    MapShard& shard = shards[c];
    shard.faults.tasks = 1;
    const size_t lo = c * chunk_size;
    const size_t hi = std::min(input.size(), lo + chunk_size);
    // One attempt over the first `limit` records of the chunk (a flaky
    // attempt dies midway; committing attempts process everything). The
    // attempt's emits, counter deltas and kernel work live entirely in the
    // caller's buffers, so discarding an attempt is dropping its buffers.
    std::vector<K> scratch_keys;  // Emitter::ScratchKeys, reused per task.
    auto run_attempt = [&](size_t limit, std::vector<std::pair<K, V>>* raw,
                           std::vector<uint32_t>* route,
                           std::map<std::string, int64_t>* counters,
                           WorkCounters* work) {
      // Most maps emit ≥1 pair per record; pre-sizing halves growth moves.
      raw->reserve(hi - lo);
      route->reserve(hi - lo);
      Emitter emitter(raw, route, &partition, &value_size, &name_,
                      num_reducers_, counters, &scratch_keys, job_id);
      WorkCountersScope work_scope(work);
      for (size_t i = lo; i < lo + limit; ++i) map_(input[i], emitter);
      return emitter.bytes();
    };
    for (int attempt = 0;; ++attempt) {
      const FaultKind fault =
          faults == nullptr ? FaultKind::kNone
                            : faults->At(FaultPhase::kMap,
                                         static_cast<int64_t>(c), attempt);
      ++shard.faults.attempts;
      if (fault == FaultKind::kCrash || fault == FaultKind::kFlakyIo) {
        TraceSpan attempt_span(tracer, "map_attempt", "task");
        tag_job(attempt_span);
        attempt_span.AddArg("chunk", static_cast<int64_t>(c));
        attempt_span.AddArg("attempt", static_cast<int64_t>(attempt));
        attempt_span.AddArg("failed", int64_t{1});
        Stopwatch attempt_watch;
        if (fault == FaultKind::kFlakyIo) {
          // Flaky I/O: half the input processed, all of it discarded.
          std::vector<std::pair<K, V>> raw;
          std::vector<uint32_t> route;
          std::map<std::string, int64_t> counters;
          WorkCounters work;
          shard.faults.wasted_bytes +=
              run_attempt((hi - lo) / 2, &raw, &route, &counters, &work);
          shard.faults.wasted_records += static_cast<int64_t>(raw.size());
        }
        shard.faults.wasted_seconds += attempt_watch.ElapsedSeconds();
        attempt_span.End();
        if (attempt + 1 >= retry.max_attempts) {
          retries_exhausted(FaultPhase::kMap, c);
        }
        ++shard.faults.retries;
        charge_backoff(attempt, &shard.faults);
        continue;
      }
      // Committing attempt (fault-free, or a straggler that still wins).
      TraceSpan chunk_span(tracer, "map_chunk", "task");
      tag_job(chunk_span);
      Stopwatch chunk_watch;
      std::vector<std::pair<K, V>> raw;
      std::vector<uint32_t> route;
      std::map<std::string, int64_t> counters;
      // Attempts count into stack blocks: blocks of neighbouring tasks
      // in one array would share cache lines between workers.
      WorkCounters work;
      shard.bytes = run_attempt(hi - lo, &raw, &route, &counters, &work);
      shard.work = work;
      chunk_span.AddArg("chunk", static_cast<int64_t>(c));
      chunk_span.AddArg("records", static_cast<int64_t>(raw.size()));
      if (faults != nullptr) {
        chunk_span.AddArg("attempt", static_cast<int64_t>(attempt));
      }
      // Stable counting sort by reducer, preserving emit order per bucket.
      shard.offsets.assign(num_reducers + 1, 0);
      for (const uint32_t r : route) ++shard.offsets[r + 1];
      for (size_t r = 0; r < num_reducers; ++r) {
        shard.offsets[r + 1] += shard.offsets[r];
      }
      std::vector<size_t> cursor(shard.offsets.begin(),
                                 shard.offsets.end() - 1);
      shard.pairs.resize(raw.size());
      for (size_t i = 0; i < raw.size(); ++i) {
        shard.pairs[cursor[route[i]]++] = std::move(raw[i]);
      }
      shard.records = static_cast<int64_t>(shard.pairs.size());
      shard.seconds = chunk_watch.ElapsedSeconds();
      MergeCounters(counters);
      if (fault == FaultKind::kSlow) {
        // Straggler: the attempt exceeded the (virtual) straggler timeout,
        // so a speculative duplicate ran alongside it. The duplicate's
        // identical output is discarded and charged as wasted work.
        TraceSpan spec_span(tracer, "map_attempt", "task");
        tag_job(spec_span);
        spec_span.AddArg("chunk", static_cast<int64_t>(c));
        spec_span.AddArg("attempt", static_cast<int64_t>(attempt + 1));
        spec_span.AddArg("failed", int64_t{1});
        spec_span.AddArg("speculative", int64_t{1});
        Stopwatch spec_watch;
        std::vector<std::pair<K, V>> spec_raw;
        std::vector<uint32_t> spec_route;
        std::map<std::string, int64_t> spec_counters;
        WorkCounters spec_work;
        shard.faults.wasted_bytes += run_attempt(
            hi - lo, &spec_raw, &spec_route, &spec_counters, &spec_work);
        shard.faults.wasted_records += static_cast<int64_t>(spec_raw.size());
        shard.faults.wasted_seconds += spec_watch.ElapsedSeconds();
        ++shard.faults.attempts;
        ++shard.faults.speculative;
      }
      break;
    }
    sort_and_maybe_spill(c);
  };
  {
    TraceSpan map_phase(tracer, "map", "phase");
    tag_job(map_phase);
    map_phase.AddArg("chunks", static_cast<int64_t>(num_chunks));
    if (pool != nullptr && num_chunks > 1) {
      ParallelFor(pool, num_chunks, run_chunk);
    } else {
      for (size_t c = 0; c < num_chunks; ++c) run_chunk(c);
    }
  }
  stats.per_chunk_map_seconds.resize(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) {
    stats.intermediate_records += shards[c].records;
    stats.intermediate_bytes += shards[c].bytes;
    stats.per_chunk_map_seconds[c] = shards[c].seconds;
    stats.work.Add(shards[c].work);
    stats.map_faults.Add(shards[c].faults);
    stats.spill.Add(shards[c].spill);
  }
  if (budget_mode) {
    // Peak shuffle residency: intermediate bytes still held in memory
    // after map-side spilling (spilled chunks' bytes live on disk as
    // runs, counted by spilled_stored_bytes instead).
    int64_t resident = 0;
    for (size_t c = 0; c < num_chunks; ++c) {
      if (!shards[c].spilled) resident += shards[c].bytes;
    }
    stats.spill.peak_shuffle_bytes = resident;
    // Peak inbox: the largest single reducer's merged inbox — the unit of
    // resident reduce-side memory, since inboxes are built lazily and
    // released eagerly. Merge width: a reducer's non-empty buckets.
    for (size_t r = 0; r < num_reducers; ++r) {
      int64_t inbox_bytes = 0;
      int64_t width = 0;
      for (const MapShard& shard : shards) {
        if (shard.offsets[r + 1] == shard.offsets[r]) continue;
        inbox_bytes += shard.bucket_bytes[r];
        ++width;
      }
      stats.spill.peak_inbox_bytes =
          std::max(stats.spill.peak_inbox_bytes, inbox_bytes);
      stats.spill.merge_runs_max = std::max(stats.spill.merge_runs_max, width);
    }
  }
  stats.map_seconds = phase_watch.ElapsedSeconds();

  // ---- Shuffle. The merge is deferred to reduce time: each reducer k-way
  // merges its bucket column just before reducing, so at most one inbox
  // per worker is resident at once. The shuffle phase itself only derives
  // per-reducer record counts from the bucket offsets; shards stay alive
  // through the reduce phase.
  phase_watch.Reset();
  stats.per_reducer_records.assign(num_reducers, 0);
  {
    TraceSpan shuffle_phase(tracer, "shuffle", "phase");
    tag_job(shuffle_phase);
    for (const MapShard& shard : shards) {
      for (size_t r = 0; r < num_reducers; ++r) {
        stats.per_reducer_records[r] +=
            static_cast<int64_t>(shard.offsets[r + 1] - shard.offsets[r]);
      }
    }
  }
  stats.shuffle_seconds = phase_watch.ElapsedSeconds();

  // ---- Reduce phase: group by key within each reducer, in key order.
  // Scheduler-submitted jobs stage DFS part files under a per-job prefix:
  // two concurrent submissions of the same algorithm share the job *name*,
  // and without the prefix their committers would race on one path.
  const std::string dfs_part_prefix =
      job_id >= 0 ? "job-" + std::to_string(job_id) + "/" + name_ : name_;
  phase_watch.Reset();
  std::vector<std::vector<Out>> reducer_out(static_cast<size_t>(num_reducers_));
  stats.per_reducer_seconds.assign(static_cast<size_t>(num_reducers_), 0.0);
  std::vector<PhaseFaultStats> reduce_task_faults(
      static_cast<size_t>(num_reducers_));
  std::vector<WorkCounters> reduce_task_work(
      static_cast<size_t>(num_reducers_));  // Committed attempts only.

  // Builds reducer r's inbox by k-way merging its bucket column — memory
  // buckets are moved out of their shards, spilled buckets stream back
  // through run cursors — with key ties broken by chunk index. That order
  // is exactly a stable sort by key of the chunk-major arrival order, so
  // the inbox arrives key-sorted and the reducer never sorts. The inbox is
  // structure-of-arrays: reduce_ gets spans directly into the value array.
  struct ReducerInbox {
    std::vector<K> keys;
    std::vector<V> values;  // Index-aligned with keys.
  };
  auto build_inbox = [&](size_t r) {
    TraceSpan merge_span(tracer, "shuffle_merge", "task");
    tag_job(merge_span);
    struct MergeSource {
      std::pair<K, V>* mem = nullptr;  // In-memory sorted bucket slice.
      size_t mem_pos = 0;
      size_t mem_end = 0;
      spill::EncodedRunCursor<K, V> enc;  // Columnar-compressed run.
      bool use_enc = false;
      K enc_key{};  // Decoded head key of `enc`.
      std::shared_ptr<const std::vector<uint8_t>> enc_bytes;
      std::shared_ptr<const std::vector<std::pair<K, V>>> raw;  // Raw run.
      size_t raw_pos = 0;
      size_t chunk = 0;
    };
    ReducerInbox in;
    std::vector<MergeSource> sources;
    sources.reserve(num_chunks);
    size_t total = 0;
    for (size_t c = 0; c < num_chunks; ++c) {
      MapShard& shard = shards[c];
      const size_t lo = shard.offsets[r];
      const size_t hi = shard.offsets[r + 1];
      if (hi == lo) continue;
      total += hi - lo;
      MergeSource src;
      src.chunk = c;
      if (!shard.spilled) {
        src.mem = shard.pairs.data();
        src.mem_pos = lo;
        src.mem_end = hi;
      } else {
        const std::string run_name = spill_run_name(c, r);
        bool loaded = false;
        if constexpr (spill::kEncodable<K, V>) {
          // Probe the columnar representation first; a run the flush chose
          // to store raw (encoding expanded it) fails the type check and
          // falls through.
          auto data = spill_dfs.Read<uint8_t>(run_name);
          if (data.ok()) {
            src.enc_bytes = data.value();
            src.use_enc = true;
            const bool ok =
                src.enc.Init(src.enc_bytes->data(), src.enc_bytes->size());
            (void)ok;  // Engine-encoded frames always decode.
            if (!src.enc.empty()) src.enc_key = src.enc.key();
            loaded = true;
          }
        }
        if constexpr (std::is_copy_constructible_v<K> &&
                      std::is_copy_constructible_v<V>) {
          if (!loaded) {
            auto data = spill_dfs.Read<std::pair<K, V>>(run_name);
            src.raw = data.value();
          }
        }
      }
      sources.push_back(std::move(src));
    }
    auto src_empty = [](const MergeSource& s) {
      if (s.mem != nullptr) return s.mem_pos >= s.mem_end;
      if (s.use_enc) return s.enc.empty();
      return s.raw == nullptr || s.raw_pos >= s.raw->size();
    };
    auto src_key = [](const MergeSource& s) -> const K& {
      if (s.mem != nullptr) return s.mem[s.mem_pos].first;
      if (s.use_enc) return s.enc_key;
      return (*s.raw)[s.raw_pos].first;
    };
    auto beats = [&](size_t a, size_t b) {
      const MergeSource& sa = sources[a];
      const MergeSource& sb = sources[b];
      if (src_empty(sa)) return false;
      if (src_empty(sb)) return true;
      const K& ka = src_key(sa);
      const K& kb = src_key(sb);
      if (ka < kb) return true;
      if (kb < ka) return false;
      return a < b;  // Chunk-order tie-break = merge stability.
    };
    in.keys.reserve(total);
    in.values.reserve(total);
    if (total > 0) {
      spill::LoserTree<decltype(beats)> tree(sources.size(), beats);
      while (in.keys.size() < total) {
        const size_t w = tree.winner();
        MergeSource& s = sources[w];
        if (s.mem != nullptr) {
          // Pop the source's whole equal-key run: every lower-index source
          // holding this key has already drained (ties break by chunk
          // index), so the run is next in merge order.
          size_t end = s.mem_pos + 1;
          while (end < s.mem_end &&
                 !(s.mem[s.mem_pos].first < s.mem[end].first)) {
            ++end;
          }
          for (; s.mem_pos < end; ++s.mem_pos) {
            in.keys.push_back(std::move(s.mem[s.mem_pos].first));
            in.values.push_back(std::move(s.mem[s.mem_pos].second));
          }
        } else if (s.use_enc) {
          if constexpr (spill::kEncodable<K, V>) {
            K k;
            V v;
            s.enc.Pop(&k, &v);
            in.keys.push_back(std::move(k));
            in.values.push_back(std::move(v));
            if (!s.enc.empty()) s.enc_key = s.enc.key();
          }
        } else {
          if constexpr (std::is_copy_constructible_v<K> &&
                        std::is_copy_constructible_v<V>) {
            in.keys.push_back((*s.raw)[s.raw_pos].first);
            in.values.push_back((*s.raw)[s.raw_pos].second);
            ++s.raw_pos;
          }
        }
        tree.Replay(w);
      }
    }
    // The merged inbox owns the records now; drop this reducer's spill
    // runs so out-of-core memory drains as reducers complete.
    for (const MergeSource& s : sources) {
      if (s.mem == nullptr) spill_dfs.Remove(spill_run_name(s.chunk, r));
    }
    merge_span.AddArg("reducer", static_cast<int64_t>(r));
    merge_span.AddArg("records", static_cast<int64_t>(total));
    return in;
  };

  auto run_reducer = [&](size_t r) {
    PhaseFaultStats& rf = reduce_task_faults[r];
    rf.tasks = 1;
    ReducerInbox in = build_inbox(r);
    const size_t n = in.keys.size();
    // Groups [i, j) of the key-sorted inbox, handing reduce_ a span
    // directly into the value array — no per-group scratch copy. The spans
    // are only valid during the reduce_ call. `limit` stops a flaky attempt
    // roughly midway: the group containing record `limit` is the last one
    // processed.
    auto reduce_runs = [&](size_t limit, OutEmitter& out) {
      size_t i = 0;
      while (i < limit) {
        const K& key = in.keys[i];
        size_t j = i + 1;
        while (j < n && !(key < in.keys[j])) ++j;
        reduce_(key, std::span<const V>(in.values.data() + i, j - i), out);
        i = j;
      }
    };
    // A doomed attempt (flaky failure or speculative duplicate) whose
    // output is discarded. reduce_ reads the inbox through const spans, so
    // the attempt leaves it intact for the committing attempt. All output
    // lands in scratch buffers and a DfsStage that is aborted on scope
    // exit.
    auto run_discarded_attempt = [&](size_t limit) {
      std::vector<Out> scratch;
      std::map<std::string, int64_t> counters;
      OutEmitter out(&scratch, &counters);
      WorkCounters work;
      WorkCountersScope work_scope(&work);
      reduce_runs(limit, out);
      if (ctx.dfs != nullptr) {
        if constexpr (std::is_copy_constructible_v<Out>) {
          DfsStage stage(ctx.dfs);
          auto part = std::make_shared<const std::vector<Out>>(scratch);
          (void)stage.Write(dfs_part_prefix + "/part-" + std::to_string(r),
                            part, output_record_bytes_);
          // No Commit: the stage's destructor discards the part file, so
          // the Dfs never sees this attempt's bytes.
        }
      }
      rf.wasted_records += static_cast<int64_t>(scratch.size());
      rf.wasted_bytes +=
          static_cast<int64_t>(scratch.size()) * output_record_bytes_;
    };
    for (int attempt = 0;; ++attempt) {
      const FaultKind fault =
          faults == nullptr ? FaultKind::kNone
                            : faults->At(FaultPhase::kReduce,
                                         static_cast<int64_t>(r), attempt);
      ++rf.attempts;
      if (fault == FaultKind::kCrash || fault == FaultKind::kFlakyIo) {
        TraceSpan attempt_span(tracer, "reduce_attempt", "task");
        tag_job(attempt_span);
        attempt_span.AddArg("reducer", static_cast<int64_t>(r));
        attempt_span.AddArg("attempt", static_cast<int64_t>(attempt));
        attempt_span.AddArg("failed", int64_t{1});
        Stopwatch attempt_watch;
        if (fault == FaultKind::kFlakyIo) run_discarded_attempt(n / 2);
        rf.wasted_seconds += attempt_watch.ElapsedSeconds();
        attempt_span.End();
        if (attempt + 1 >= retry.max_attempts) {
          retries_exhausted(FaultPhase::kReduce, r);
        }
        ++rf.retries;
        charge_backoff(attempt, &rf);
        continue;
      }
      if (fault == FaultKind::kSlow) {
        // Straggler: run the speculative duplicate first (non-destructive,
        // discarded), then let the original attempt commit below.
        TraceSpan spec_span(tracer, "reduce_attempt", "task");
        tag_job(spec_span);
        spec_span.AddArg("reducer", static_cast<int64_t>(r));
        spec_span.AddArg("attempt", static_cast<int64_t>(attempt + 1));
        spec_span.AddArg("failed", int64_t{1});
        spec_span.AddArg("speculative", int64_t{1});
        Stopwatch spec_watch;
        run_discarded_attempt(n);
        rf.wasted_seconds += spec_watch.ElapsedSeconds();
        ++rf.attempts;
        ++rf.speculative;
      }
      // Committing attempt.
      TraceSpan reduce_span(tracer, "reduce_task", "task");
      tag_job(reduce_span);
      reduce_span.AddArg("reducer", static_cast<int64_t>(r));
      reduce_span.AddArg("records", static_cast<int64_t>(n));
      if (faults != nullptr) {
        reduce_span.AddArg("attempt", static_cast<int64_t>(attempt));
      }
      Stopwatch reducer_watch;
      std::map<std::string, int64_t> counters;
      OutEmitter out_emitter(&reducer_out[r], &counters);
      WorkCounters work;  // On the stack, as in the map phase.
      WorkCountersScope work_scope(&work);
      reduce_runs(n, out_emitter);
      in = ReducerInbox();  // Release inbox memory eagerly.
      if (ctx.dfs != nullptr) {
        // Commit this reduce task's output as the job's part file, Hadoop
        // OutputCommitter style: staged during the attempt, published only
        // here, after the attempt has fully succeeded.
        if constexpr (std::is_copy_constructible_v<Out>) {
          DfsStage stage(ctx.dfs);
          auto part = std::make_shared<const std::vector<Out>>(reducer_out[r]);
          (void)stage.Write(dfs_part_prefix + "/part-" + std::to_string(r),
                            part, output_record_bytes_);
          stage.Commit();
        }
      }
      stats.per_reducer_seconds[r] = reducer_watch.ElapsedSeconds();
      MergeCounters(counters);
      reduce_task_work[r] = work;
      break;
    }
  };
  {
    TraceSpan reduce_phase(tracer, "reduce", "phase");
    tag_job(reduce_phase);
    if (pool != nullptr && num_reducers_ > 1) {
      ParallelFor(pool, static_cast<size_t>(num_reducers_), run_reducer);
    } else {
      for (int r = 0; r < num_reducers_; ++r) {
        run_reducer(static_cast<size_t>(r));
      }
    }
  }
  stats.reduce_seconds = phase_watch.ElapsedSeconds();
  for (const PhaseFaultStats& rf : reduce_task_faults) {
    stats.reduce_faults.Add(rf);
  }
  for (const WorkCounters& w : reduce_task_work) stats.work.Add(w);

  for (const auto& out : reducer_out) {
    stats.reduce_output_records += static_cast<int64_t>(out.size());
  }
  // Serial tail: one reservation instead of repeated growth of *output.
  output->reserve(output->size() +
                  static_cast<size_t>(stats.reduce_output_records));
  for (auto& out : reducer_out) {
    output->insert(output->end(), std::make_move_iterator(out.begin()),
                   std::make_move_iterator(out.end()));
  }
  stats.reduce_output_bytes = stats.reduce_output_records * output_record_bytes_;

  {
    MutexLock lock(&counter_mu_);
    stats.user_counters = user_counters_;
  }
  stats.wall_seconds = job_watch.ElapsedSeconds();
  job_span.AddArg("map_input_records", stats.map_input_records);
  job_span.AddArg("intermediate_records", stats.intermediate_records);
  job_span.AddArg("intermediate_bytes", stats.intermediate_bytes);
  job_span.AddArg("reduce_output_records", stats.reduce_output_records);
  if (stats.spill.active()) {
    job_span.AddArg("spilled_runs", stats.spill.spilled_runs);
    job_span.AddArg("spilled_stored_bytes", stats.spill.spilled_stored_bytes);
  }
  if (stats.AnyFaults()) {
    job_span.AddArg("retries",
                    stats.map_faults.retries + stats.reduce_faults.retries);
    job_span.AddArg("speculative", stats.map_faults.speculative +
                                       stats.reduce_faults.speculative);
    job_span.AddArg("wasted_records", stats.map_faults.wasted_records +
                                          stats.reduce_faults.wasted_records);
  }
  return stats;
}

}  // namespace mwsj

#endif  // MWSJ_MAPREDUCE_ENGINE_H_
