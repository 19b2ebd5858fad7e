// Attribution of kernel work (JobStats::work, common/work_counters.h):
// a job reports the work of its committed task attempts only, so it reads
// the same beside a concurrent scheduler job and under injected faults as
// it does alone — while the process-wide snapshot keeps counting executed
// work, discarded and speculative attempts included. Runs in the chaos CI
// leg (`ctest -R Chaos`) and under TSan.

#include <gtest/gtest.h>

#include <vector>

#include "common/thread_pool.h"
#include "common/work_counters.h"
#include "core/runner.h"
#include "core/scheduler.h"
#include "mapreduce/fault.h"
#include "testing/world.h"

namespace mwsj {
namespace {

using testing::MakeWorldData;
using testing::MakeWorldQuery;
using testing::PredicateMix;
using testing::QueryShape;
using testing::WorldConfig;

constexpr Algorithm kAlgorithms[] = {Algorithm::kControlledReplicate,
                                     Algorithm::kTwoWayCascade};

struct World {
  Query query;
  std::vector<std::vector<Rect>> data;
};

World MakeWorld(uint64_t seed) {
  WorldConfig config;
  config.shape = QueryShape::kChain3;
  config.mix = PredicateMix::kHybrid;
  config.max_rects_per_relation = 300;
  config.max_dim = 12.0;
  config.seed = seed;
  World w{MakeWorldQuery(config), {}};
  w.data = MakeWorldData(config, w.query.num_relations());
  return w;
}

std::vector<WorkCounters> JobWork(const JoinRunResult& result) {
  std::vector<WorkCounters> work;
  for (const JobStats& job : result.stats.jobs) work.push_back(job.work);
  return work;
}

WorkCounters Total(const std::vector<WorkCounters>& per_job) {
  WorkCounters total;
  for (const WorkCounters& w : per_job) total.Add(w);
  return total;
}

JoinRunResult RunOrDie(const World& world, const RunnerOptions& options) {
  StatusOr<JoinRunResult> run =
      RunSpatialJoin(world.query, world.data, options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return run.ok() ? std::move(run.value()) : JoinRunResult();
}

TEST(WorkCountersChaosTest, ConcurrentSchedulerJobsReportTheirSoloWork) {
  const World world = MakeWorld(31);
  ThreadPool pool(4);

  std::vector<std::vector<WorkCounters>> solo;
  for (Algorithm algorithm : kAlgorithms) {
    RunnerOptions options;
    options.algorithm = algorithm;
    options.context.pool = &pool;
    solo.push_back(JobWork(RunOrDie(world, options)));
    ASSERT_GT(Total(solo.back()).split_calls, 0);
  }

  // Both jobs in flight at once on the shared pool: their tasks interleave
  // on the same workers, which a pair of process-wide snapshots around
  // either job could not tell apart.
  const WorkCounters before = SnapshotWorkCounters();
  std::vector<JobHandle> handles;
  {
    SchedulerOptions sched_options;
    sched_options.pool = &pool;
    sched_options.max_in_flight = 2;
    JobScheduler scheduler(sched_options);
    for (Algorithm algorithm : kAlgorithms) {
      JobSpec spec;
      spec.query = world.query;
      spec.borrowed_relations = &world.data;
      spec.options.algorithm = algorithm;
      StatusOr<JobHandle> handle = scheduler.Submit(std::move(spec));
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();
      handles.push_back(std::move(handle.value()));
    }
  }
  const WorkCounters executed =
      WorkCountersDelta(before, SnapshotWorkCounters());

  WorkCounters committed;
  for (size_t i = 0; i < handles.size(); ++i) {
    const StatusOr<JoinRunResult>& run = handles[i].Wait();
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(JobWork(run.value()), solo[i]) << AlgorithmName(kAlgorithms[i]);
    committed.Add(Total(solo[i]));
  }
  // Fault-free, executed work is exactly the two jobs' committed work.
  EXPECT_EQ(executed, committed);
}

TEST(WorkCountersChaosTest, FaultedRunsReportFaultFreeWork) {
  const World world = MakeWorld(47);
  ThreadPool pool(4);
  RetryPolicy retry;
  retry.sleep = [](double) {};  // Virtual backoff clock.

  for (Algorithm algorithm : kAlgorithms) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    RunnerOptions options;
    options.algorithm = algorithm;
    options.context.pool = &pool;
    options.context.retry = &retry;
    const std::vector<WorkCounters> clean = JobWork(RunOrDie(world, options));
    const WorkCounters clean_total = Total(clean);

    // Crash, flaky and straggler faults: the job reports the fault-free
    // work, the process totals count every executed attempt on top.
    const FaultPlan mixed = FaultPlan::Seeded(5, 0.2, 0.15, 0.15);
    options.context.faults = &mixed;
    WorkCounters before = SnapshotWorkCounters();
    const JoinRunResult faulted = RunOrDie(world, options);
    WorkCounters executed = WorkCountersDelta(before, SnapshotWorkCounters());
    EXPECT_EQ(JobWork(faulted), clean);
    int64_t retried = 0;
    for (const JobStats& job : faulted.stats.jobs) {
      retried += job.map_faults.attempts - job.map_faults.tasks +
                 job.reduce_faults.attempts - job.reduce_faults.tasks;
    }
    EXPECT_GT(retried, 0) << "the plan injected no faults";
    EXPECT_GE(executed.split_calls, clean_total.split_calls);
    EXPECT_GE(executed.project_calls, clean_total.project_calls);
    EXPECT_GE(executed.tuple_checks, clean_total.tuple_checks);
    EXPECT_GE(executed.pair_checks + executed.range_pair_checks,
              clean_total.pair_checks + clean_total.range_pair_checks);
    EXPECT_GE(executed.owned, clean_total.owned);

    // Every task a straggler: each map and reduce task runs twice (the
    // committing attempt plus its discarded speculative duplicate), so the
    // executed work is exactly double the committed work.
    const FaultPlan stragglers = FaultPlan::Seeded(9, 0, 0, 1.0);
    options.context.faults = &stragglers;
    before = SnapshotWorkCounters();
    const JoinRunResult slow = RunOrDie(world, options);
    executed = WorkCountersDelta(before, SnapshotWorkCounters());
    EXPECT_EQ(JobWork(slow), clean);
    WorkCounters doubled = clean_total;
    doubled.Add(clean_total);
    EXPECT_EQ(executed, doubled);
  }
}

}  // namespace
}  // namespace mwsj
