#include "testing/chaos.h"

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/str_format.h"
#include "core/scheduler.h"
#include "localjoin/brute_force.h"
#include "mapreduce/fault.h"
#include "testing/differential.h"

namespace mwsj::testing {

DifferentialWorkload MultiwayJoinWorkload(const WorldConfig& config,
                                          Algorithm algorithm) {
  struct World {
    Query query;
    std::vector<std::vector<Rect>> data;
    RunnerOptions runner;
  };
  RunnerOptions runner;
  runner.algorithm = algorithm;
  const int grid_cases[][2] = {{1, 1}, {1, 4}, {3, 3}, {5, 2}, {4, 4}};
  const auto& grid = grid_cases[config.seed % 5];
  runner.grid_rows = grid[0];
  runner.grid_cols = grid[1];
  runner.space = Rect(0, 0, config.space_size, config.space_size);
  Query query = MakeWorldQuery(config);
  std::vector<std::vector<Rect>> data =
      MakeWorldData(config, query.num_relations());
  // Shared by both closures; the workload may outlive this call.
  const auto world = std::make_shared<const World>(
      World{std::move(query), std::move(data), runner});

  DifferentialWorkload workload;
  workload.name = AlgorithmName(algorithm);
  workload.oracle = [world] {
    return BruteForceJoin(world->query, world->data);
  };
  workload.run = [world](const ExecutionContext& ctx) {
    RunnerOptions run_options = world->runner;
    run_options.context = ctx;
    return RunSpatialJoin(world->query, world->data, run_options);
  };
  return workload;
}

SchedulerChaosOutcome RunSchedulerChaosWorld(
    const SchedulerChaosOptions& options) {
  SchedulerChaosOutcome outcome;
  constexpr Algorithm kAlgorithms[] = {
      Algorithm::kTwoWayCascade, Algorithm::kAllReplicate,
      Algorithm::kControlledReplicate,
      Algorithm::kControlledReplicateInLimit};
  constexpr QueryShape kShapes[] = {QueryShape::kChain3, QueryShape::kChain4,
                                    QueryShape::kStar4, QueryShape::kCycle3};
  constexpr PredicateMix kMixes[] = {PredicateMix::kOverlapOnly,
                                     PredicateMix::kRangeOnly,
                                     PredicateMix::kHybrid};
  const int num_jobs = options.num_jobs;

  // Per-job worlds and serial fault-free baselines, computed outside the
  // scheduler so the concurrent fleet has an independent ground truth.
  std::vector<Query> queries;
  std::vector<std::vector<std::vector<Rect>>> datasets;
  std::vector<StatusOr<JoinRunResult>> baselines;
  std::vector<FaultPlan> plans;
  queries.reserve(static_cast<size_t>(num_jobs));
  datasets.reserve(static_cast<size_t>(num_jobs));
  plans.reserve(static_cast<size_t>(num_jobs));
  for (int i = 0; i < num_jobs; ++i) {
    WorldConfig config;
    config.shape = kShapes[i % 4];
    config.mix = kMixes[i % 3];
    config.integer_coords = (i % 2 == 1);
    config.seed = options.base_seed * 1000003 +
                  static_cast<uint64_t>(i) * 7919 + 17;
    queries.push_back(MakeWorldQuery(config));
    datasets.push_back(MakeWorldData(config, queries.back().num_relations()));

    RunnerOptions runner;
    runner.algorithm = kAlgorithms[i % 4];
    baselines.push_back(RunSpatialJoin(queries[static_cast<size_t>(i)],
                                       datasets[static_cast<size_t>(i)],
                                       runner));
    if (!baselines.back().ok()) {
      outcome.mismatch =
          StrFormat("baseline %d failed: %s", i,
                    baselines.back().status().ToString().c_str());
      return outcome;
    }
    plans.push_back(FaultPlan::Seeded(
        options.base_seed * 6364136223846793005ull +
            static_cast<uint64_t>(i) * 104729 + 3,
        options.crash_prob, options.flaky_prob, options.slow_prob));
  }

  RetryPolicy retry;
  retry.sleep = [](double) {};  // Virtual clock, as in the harness.

  std::vector<JobHandle> handles;
  std::vector<bool> cancel_landed(static_cast<size_t>(num_jobs), false);
  {
    SchedulerOptions sched_options;
    sched_options.pool = options.pool;
    sched_options.max_in_flight = options.max_in_flight;
    sched_options.max_queued = num_jobs;
    JobScheduler scheduler(sched_options);
    for (int i = 0; i < num_jobs; ++i) {
      JobSpec spec;
      spec.query = queries[static_cast<size_t>(i)];
      spec.borrowed_relations = &datasets[static_cast<size_t>(i)];
      spec.options.algorithm = kAlgorithms[i % 4];
      spec.options.context.faults = &plans[static_cast<size_t>(i)];
      spec.options.context.retry = &retry;
      StatusOr<JobHandle> handle = scheduler.Submit(std::move(spec));
      if (!handle.ok()) {
        outcome.mismatch = StrFormat(
            "submit %d rejected: %s", i, handle.status().ToString().c_str());
        return outcome;
      }
      handles.push_back(std::move(handle.value()));
    }
    // Cancellations race the drivers: whichever jobs are still queued die,
    // anything already running must finish with its exact result.
    if (options.cancel_every > 0) {
      for (int i = options.cancel_every - 1; i < num_jobs;
           i += options.cancel_every) {
        cancel_landed[static_cast<size_t>(i)] =
            handles[static_cast<size_t>(i)].Cancel();
      }
    }
    // Scheduler destruction drains every admitted job.
  }

  for (int i = 0; i < num_jobs; ++i) {
    const StatusOr<JoinRunResult>& result =
        handles[static_cast<size_t>(i)].Wait();
    if (cancel_landed[static_cast<size_t>(i)]) {
      ++outcome.cancelled;
      if (result.ok() ||
          result.status().code() != StatusCode::kFailedPrecondition) {
        outcome.mismatch = StrFormat(
            "cancelled job %d did not fail with FailedPrecondition", i);
        return outcome;
      }
      continue;
    }
    ++outcome.survived;
    if (!result.ok()) {
      outcome.mismatch = StrFormat("job %d failed: %s", i,
                                   result.status().ToString().c_str());
      return outcome;
    }
    const JoinRunResult& baseline = baselines[static_cast<size_t>(i)].value();
    if (result.value().tuples != baseline.tuples ||
        result.value().num_tuples != baseline.num_tuples) {
      outcome.mismatch = StrFormat(
          "job %d diverged from its serial baseline (%zu vs %zu tuples)", i,
          result.value().tuples.size(), baseline.tuples.size());
      return outcome;
    }
    outcome.mismatch = CompareJobStats(baseline.stats, result.value().stats);
    if (!outcome.mismatch.empty()) {
      outcome.mismatch =
          StrFormat("job %d: %s", i, outcome.mismatch.c_str());
      return outcome;
    }
    for (const JobStats& job : result.value().stats.jobs) {
      if (job.job_id != handles[static_cast<size_t>(i)].id()) {
        outcome.mismatch = StrFormat(
            "job %d stats attributed to submission %lld, expected %lld", i,
            static_cast<long long>(job.job_id),
            static_cast<long long>(handles[static_cast<size_t>(i)].id()));
        return outcome;
      }
      for (const PhaseFaultStats* f : {&job.map_faults, &job.reduce_faults}) {
        outcome.attempts += f->attempts;
        outcome.retries += f->retries;
        outcome.speculative += f->speculative;
        outcome.wasted_records += f->wasted_records;
      }
    }
  }
  return outcome;
}

}  // namespace mwsj::testing
