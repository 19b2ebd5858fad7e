// Tracing must be an observer: a traced run returns byte-identical tuples
// and identical deterministic statistics to an untraced run, serial or
// pooled, and the trace itself must cover the run's jobs and rounds.

#include <gtest/gtest.h>

#include <string>

#include "common/str_format.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/runner.h"
#include "testing/world.h"

namespace mwsj {
namespace {

// The scheduling-independent parts of two JobStats must match exactly;
// timings are excluded (they are measurements, not results).
void ExpectSameDeterministicStats(const RunStats& a, const RunStats& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (size_t j = 0; j < a.jobs.size(); ++j) {
    SCOPED_TRACE(a.jobs[j].job_name);
    EXPECT_EQ(a.jobs[j].job_name, b.jobs[j].job_name);
    EXPECT_EQ(a.jobs[j].map_input_records, b.jobs[j].map_input_records);
    EXPECT_EQ(a.jobs[j].map_input_bytes, b.jobs[j].map_input_bytes);
    EXPECT_EQ(a.jobs[j].intermediate_records, b.jobs[j].intermediate_records);
    EXPECT_EQ(a.jobs[j].intermediate_bytes, b.jobs[j].intermediate_bytes);
    EXPECT_EQ(a.jobs[j].reduce_output_records,
              b.jobs[j].reduce_output_records);
    EXPECT_EQ(a.jobs[j].per_reducer_records, b.jobs[j].per_reducer_records);
    EXPECT_EQ(a.jobs[j].user_counters, b.jobs[j].user_counters);
  }
}

TEST(TraceDeterminismTest, TracedCRepRunMatchesUntracedRun) {
  testing::WorldConfig config;
  config.shape = testing::QueryShape::kChain3;
  config.mix = testing::PredicateMix::kOverlapOnly;
  config.seed = 7;
  const Query query = testing::MakeWorldQuery(config);
  const auto data = testing::MakeWorldData(config, query.num_relations());

  RunnerOptions options;
  options.algorithm = Algorithm::kControlledReplicate;
  options.grid_rows = 4;
  options.grid_cols = 4;
  options.space = Rect(0, 0, config.space_size, config.space_size);

  const auto untraced = RunSpatialJoin(query, data, options);
  ASSERT_TRUE(untraced.ok()) << untraced.status().ToString();

  Tracer tracer;
  ThreadPool pool(4);
  options.context = ExecutionContext(&pool, &tracer);
  options.context.label = "traced-run";
  const auto traced = RunSpatialJoin(query, data, options);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();

  // Tracing and pooling change nothing observable about the result.
  EXPECT_EQ(untraced.value().tuples, traced.value().tuples);
  EXPECT_EQ(untraced.value().num_tuples, traced.value().num_tuples);
  ExpectSameDeterministicStats(untraced.value().stats, traced.value().stats);

  // The trace covers the run: both C-Rep rounds, all engine phases, the
  // run label, and the local joins.
  const std::string json = tracer.ToJson();
  for (const char* name :
       {"traced-run", "crep", "crep_round1", "crep_round2",
        "crep_round1_mark", "crep_round2_join", "map", "shuffle", "reduce",
        "local_join", "sort_tuples", "grid_build"}) {
    EXPECT_NE(json.find(StrFormat("\"%s\"", name)), std::string::npos)
        << "missing span " << name;
  }
}

TEST(TraceDeterminismTest, DisabledTracerLeavesResultsAndTraceEmpty) {
  testing::WorldConfig config;
  config.shape = testing::QueryShape::kChain3;
  config.seed = 11;
  const Query query = testing::MakeWorldQuery(config);
  const auto data = testing::MakeWorldData(config, query.num_relations());

  RunnerOptions options;
  options.algorithm = Algorithm::kControlledReplicateInLimit;
  options.grid_rows = 4;
  options.grid_cols = 4;
  options.space = Rect(0, 0, config.space_size, config.space_size);

  const auto baseline = RunSpatialJoin(query, data, options);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  Tracer disabled(/*enabled=*/false);
  options.context.tracer = &disabled;
  const auto with_disabled = RunSpatialJoin(query, data, options);
  ASSERT_TRUE(with_disabled.ok()) << with_disabled.status().ToString();

  EXPECT_EQ(baseline.value().tuples, with_disabled.value().tuples);
  EXPECT_EQ(disabled.event_count(), 0);
}

}  // namespace
}  // namespace mwsj
