// EXPLAIN report rendering tests.

#include <gtest/gtest.h>

#include "common/str_format.h"
#include "core/explain.h"
#include "core/runner.h"
#include "testing/world.h"

namespace mwsj {
namespace {

TEST(ExplainTest, ReportsJobsCountersAndLoads) {
  testing::WorldConfig config;
  config.seed = 88;
  config.max_rects_per_relation = 40;
  const Query query = testing::MakeWorldQuery(config);
  const auto data = testing::MakeWorldData(config, query.num_relations());
  RunnerOptions options;
  options.algorithm = Algorithm::kControlledReplicate;
  options.grid_rows = 4;
  options.grid_cols = 4;
  options.space = Rect(0, 0, 100, 100);
  const auto result = RunSpatialJoin(query, data, options);
  ASSERT_TRUE(result.ok());

  const std::string report = ExplainRun(query, result.value());
  EXPECT_NE(report.find("query: R1 Ov R2 AND R2 Ov R3"), std::string::npos);
  EXPECT_NE(report.find("crep_round1_mark"), std::string::npos);
  EXPECT_NE(report.find("crep_round2_join"), std::string::npos);
  EXPECT_NE(report.find("rectangles_replicated"), std::string::npos);
  EXPECT_NE(report.find("reducer load"), std::string::npos);
  EXPECT_NE(report.find("modeled cluster time"), std::string::npos);
}

TEST(ExplainTest, ReportsDedupWorkPerJob) {
  // Round 2 of C-Rep checks tuples; round 1 (marking) checks none, so only
  // the join round prints a dedup line, and its figures are the job's own
  // work counters.
  testing::WorldConfig config;
  config.seed = 88;
  config.max_rects_per_relation = 40;
  const Query query = testing::MakeWorldQuery(config);
  const auto data = testing::MakeWorldData(config, query.num_relations());
  RunnerOptions options;
  options.algorithm = Algorithm::kControlledReplicate;
  options.grid_rows = 4;
  options.grid_cols = 4;
  options.space = Rect(0, 0, 100, 100);
  const auto result = RunSpatialJoin(query, data, options);
  ASSERT_TRUE(result.ok());
  const JoinRunResult& run = result.value();
  ASSERT_EQ(run.stats.jobs.size(), 2u);
  const WorkCounters& work = run.stats.jobs[1].work;
  ASSERT_GT(work.tuple_checks, 0);
  EXPECT_EQ(run.stats.jobs[0].work.tuple_checks, 0);

  const std::string report = ExplainRun(query, run);
  const std::string expected = StrFormat(
      "  dedup: %lld tuple checks | 0 pair checks (+0 range) | %lld owned "
      "(owned/checks %.3f)\n",
      static_cast<long long>(work.tuple_checks),
      static_cast<long long>(work.owned),
      static_cast<double>(work.owned) /
          static_cast<double>(work.tuple_checks));
  const size_t at = report.find(expected);
  ASSERT_NE(at, std::string::npos) << report;
  EXPECT_GT(at, report.find("crep_round2_join"));
  EXPECT_EQ(report.find("dedup:", at + expected.size()), std::string::npos)
      << "only the join round checks ownership:\n" << report;
}

TEST(ExplainTest, DedupLineCountsPairAndRangePairChecks) {
  Query query = MakeChainQuery(2, Predicate::Overlap()).value();
  JoinRunResult result;
  JobStats job;
  job.job_name = "two_way";
  job.work.pair_checks = 6;
  job.work.range_pair_checks = 2;
  job.work.owned = 4;
  result.stats.jobs.push_back(job);
  const std::string report = ExplainRun(query, result);
  EXPECT_NE(report.find("  dedup: 0 tuple checks | 6 pair checks (+2 range) "
                        "| 4 owned (owned/checks 0.500)\n"),
            std::string::npos)
      << report;
}

TEST(ExplainTest, HandlesEmptyRun) {
  const Query query = MakeChainQuery(2, Predicate::Overlap()).value();
  JoinRunResult result;
  const std::string report = ExplainRun(query, result);
  EXPECT_NE(report.find("output tuples: 0"), std::string::npos);
}

}  // namespace
}  // namespace mwsj
