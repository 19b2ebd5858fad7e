// Benchmark program for the mwsj library: builds one workload's datasets
// from a seed, runs its timed query loop against the public API, checks
// every query's output, and prints one JSON record on stdout.
//
//   mwsj_perfbench --workload roads-overlap-join --seed 1 --seconds 20
//                  [--trace-out FILE] [--size tiny] [--work-dir DIR]
//                  [--wrong-expectation]
//
// It measures the library only from outside: wall and CPU time around
// public calls, the RunStats/JobStats each query returns, deltas of the
// process-wide dedup/transform counters, and -- with --trace-out -- the
// library's own Tracer spans plus spans this program records around each
// call. perfbench/run.py builds this program, runs it, computes span self
// times from the trace, and prints the final result line.
//
// Workloads (sizes are the full ones; --size tiny shrinks every count for
// the self-test):
//   roads-overlap-join    one clustered road relation in all three roles
//                         of A OV B AND B OV C, count_only, C-Rep, C-Rep-L
//                         and Cascade in turn, one client, no catalog.
//   sparse-spill-shuffle  three uniform relations on the same query, a
//                         2 MiB shuffle budget so every map chunk spills,
//                         materialized output, one client, no catalog.
//   catalog-service-mix   resident catalog; two clients each keep one
//                         JobScheduler submission outstanding, cycling the
//                         hybrid A OV B AND B RA(200) C under C-Rep and
//                         C-Rep-L (materialized) and a knn-mr job (k=10).

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/dataset_catalog.h"
#include "core/dedup.h"
#include "core/records.h"
#include "core/runner.h"
#include "core/scheduler.h"
#include "core/verification.h"
#include "datagen/california.h"
#include "datagen/synthetic.h"
#include "grid/grid_partition.h"
#include "grid/transform.h"
#include "io/dataset_io.h"
#include "mapreduce/cost_model.h"
#include "queries/knn.h"
#include "queries/knn_mr.h"
#include "query/parser.h"
#include "simd/simd.h"

namespace mwsj::perfbench {
namespace {

// ---------------------------------------------------------------- basics

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// Writing 5 to clear_refs resets VmHWM to the current RSS, so the peak
// read afterwards covers only the timed phase. Free heap pages left over
// from set-up are returned first, so the baseline is the live data.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear interpolation between order statistics (numpy's default).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Order-independent multiset digest of output tuples: the sum and the xor
// of a per-tuple hash, plus the count.
struct Digest {
  int64_t count = 0;
  uint64_t sum = 0;
  uint64_t xr = 0;

  static Digest Of(const std::vector<IdTuple>& tuples) {
    Digest d;
    for (const IdTuple& t : tuples) {
      uint64_t h = 0x5851f42d4c957f2dULL;
      for (int64_t id : t) h = Mix64(h ^ static_cast<uint64_t>(id));
      d.sum += h;
      d.xr ^= Mix64(h);
    }
    d.count = static_cast<int64_t>(tuples.size());
    return d;
  }
  static Digest CountOnly(int64_t n) {
    Digest d;
    d.count = n;
    return d;
  }
  bool operator==(const Digest&) const = default;
};

std::string Json(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

// -------------------------------------------------------------- config

enum class Kind { kRoads, kSparse, kMix };

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string trace_out;
  bool tiny = false;
  std::string work_dir = ".";
  bool wrong_expectation = false;
};

struct Config {
  Kind kind = Kind::kRoads;
  int64_t n = 0;           // rectangles per generated relation
  double space_side = 0;   // synthetic space side (square)
  int64_t points = 0;      // catalog-service-mix point relation
  double sample = 1;       // roads: keep each generated road with this p
  int64_t shuffle_budget = -1;  // -1: explicitly unlimited
  double tail_percentile = 0;
  int setup_reps = 3;
  int clients = 1;
};

std::optional<Config> ConfigFor(const std::string& workload, bool tiny) {
  Config c;
  if (workload == "roads-overlap-join") {
    c.kind = Kind::kRoads;
    // 400k generated roads kept with p = 0.5 (the paper's §8.1 sampling):
    // the output size varies about half as much from seed to seed as with
    // 200k generated roads, at the same query cost.
    c.n = tiny ? 40'000 : 400'000;
    c.sample = 0.5;
    c.tail_percentile = 0.75;
  } else if (workload == "sparse-spill-shuffle") {
    c.kind = Kind::kSparse;
    c.n = tiny ? 20'000 : 150'000;
    // The paper's density: 1m rectangles per 100k x 100k.
    c.space_side = 100'000 * std::sqrt(static_cast<double>(c.n) / 1e6);
    c.shuffle_budget = 2 << 20;
    c.tail_percentile = 0.75;
  } else if (workload == "catalog-service-mix") {
    c.kind = Kind::kMix;
    c.n = tiny ? 5'000 : 15'000;
    c.space_side = 100'000 * std::sqrt(static_cast<double>(c.n) / 1e6);
    c.points = tiny ? 2'000 : 6'000;
    c.tail_percentile = 0.9;
    c.clients = 2;
  } else {
    return std::nullopt;
  }
  if (tiny) {
    c.setup_reps = 1;
    c.tail_percentile = 0.5;
  }
  return c;
}

// The four query programs a workload can run; the metric suffixes.
enum Algo { kCrep = 0, kCrepl = 1, kCascade = 2, kKnnMr = 3, kNumAlgos = 4 };
constexpr const char* kAlgoSuffix[kNumAlgos] = {"crep", "crepl", "cascade",
                                                "knnmr"};
constexpr int kRounds[kNumAlgos] = {2, 2, 2, 3};

Algorithm ToAlgorithm(Algo a) {
  switch (a) {
    case kCrep:
      return Algorithm::kControlledReplicate;
    case kCrepl:
      return Algorithm::kControlledReplicateInLimit;
    default:
      return Algorithm::kTwoWayCascade;
  }
}

constexpr int kKnnK = 10;

// -------------------------------------------------------------- records

struct QueryRecord {
  Algo algo = kCrep;
  bool ok = false;
  double latency_s = 0;
  double wait_s = 0;  // latency minus the run's own job wall time
  int64_t inputs = 0;
  int64_t num_tuples = 0;
  RunStats stats;
  // Process-wide counter deltas around the query; exact only while one
  // query runs at a time.
  DedupCounters dedup;
  TransformCounters transform;
};

struct SetupTimes {
  double total_s = 0;
  double generate_s = 0;
  double read_csv_s = 0;
  double read_bytes = 0;
  double catalog_put_s = 0;
};

// Everything a workload's timed phase needs, built by one set-up.
struct World {
  std::unique_ptr<DatasetCatalog> catalog;
  std::vector<std::vector<Rect>> relations;  // query roles, in order
  std::optional<Query> query;                // the join query
  std::optional<Query> knn_query;            // catalog-service-mix only
  std::vector<std::string> join_names;       // catalog names of the roles
  std::vector<std::vector<Rect>> knn_relations;  // {points, rects}
  std::vector<IdTuple> knn_reference;        // KnnJoin, re-encoded
  std::optional<Digest> join_reference;      // from the first warm-up
  int64_t total_inputs = 0;
};

class Failures {
 public:
  void Add(std::string msg) {
    std::lock_guard<std::mutex> lock(mu_);
    ++count_;
    if (messages_.size() < 20) messages_.push_back(std::move(msg));
  }
  int64_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }
  // Only after every client thread has joined.
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  mutable std::mutex mu_;
  int64_t count_ = 0;
  std::vector<std::string> messages_;
};

// ------------------------------------------------------------- the bench

class Bench {
 public:
  Bench(Args args, Config config)
      : args_(std::move(args)),
        config_(config),
        pool_(static_cast<size_t>(std::min(
            4u, std::max(1u, std::thread::hardware_concurrency())))) {}

  int Run();

 private:
  std::vector<Rect> Generate(const std::string& name, uint64_t salt,
                             Tracer* tracer);
  std::vector<Rect> Ingest(const std::string& name,
                           const std::vector<Rect>& data, SetupTimes* times,
                           Tracer* tracer);
  Status SetUp(World* world, SetupTimes* times, Tracer* tracer);
  void WarmUp(World* world, Tracer* tracer);

  template <typename Call>
  QueryRecord Timed(Algo algo, int64_t inputs, Tracer* tracer,
                    const char* span_name, const Call& call,
                    JoinRunResult* result);
  QueryRecord RunDirect(const World& world, Algo algo, Tracer* tracer,
                        JoinRunResult* result);
  QueryRecord RunSubmitted(const World& world, JobScheduler* scheduler,
                           Algo algo, Tracer* tracer, JoinRunResult* result);
  void Check(const World& world, const QueryRecord& rec,
             const JoinRunResult& result, Tracer* tracer);

  std::vector<QueryRecord> TimedPhase(const World& world, double seconds,
                                      Tracer* tracer);
  double ColdGridBuild(const World& world, Tracer* tracer,
                       int64_t* catalog_hits);

  Args args_;
  Config config_;
  ThreadPool pool_;
  Failures failures_;
  std::atomic<int64_t> attempted_{0};
};

std::vector<Rect> Bench::Generate(const std::string& name, uint64_t salt,
                                  Tracer* tracer) {
  const uint64_t seed = Mix64(args_.seed * 1000003ULL + salt);
  if (config_.kind == Kind::kRoads) {
    TraceSpan span(tracer, "GenerateCaliforniaRoads", "bench");
    CaliforniaParams p;
    p.num_roads = config_.n;
    p.seed = seed;
    std::vector<Rect> roads = GenerateCaliforniaRoads(p);
    if (config_.sample >= 1) return roads;
    return SampleDataset(roads, config_.sample, Mix64(seed));
  }
  TraceSpan span(tracer, "GenerateSynthetic", "bench");
  SyntheticParams p = SyntheticParams::PaperDefaults(config_.n, seed);
  p.x_max = p.y_max = config_.space_side;
  StatusOr<std::vector<Rect>> data = GenerateSynthetic(p);
  if (!data.ok()) {
    failures_.Add("GenerateSynthetic " + name + ": " +
                  data.status().ToString());
    return {};
  }
  if (name != "P") return std::move(data).value();
  // The point relation: each generated rectangle's start point.
  std::vector<Rect> points;
  const std::vector<Rect>& rects = data.value();
  for (int64_t i = 0; i < config_.points && i < std::ssize(rects); ++i) {
    points.push_back(
        Rect::FromPoint(rects[static_cast<size_t>(i)].start_point()));
  }
  return points;
}

// Writes `data` as CSV and reads it back through io -- the CLI's ingest
// path -- timing the read. The read-back copy is what the queries use.
std::vector<Rect> Bench::Ingest(const std::string& name,
                                const std::vector<Rect>& data,
                                SetupTimes* times, Tracer* tracer) {
  const std::string path = args_.work_dir + "/" + name + ".csv";
  {
    TraceSpan span(tracer, "WriteRectsCsv", "bench");
    Status st = WriteRectsCsv(path, data);
    if (!st.ok()) {
      failures_.Add("WriteRectsCsv " + path + ": " + st.ToString());
      return data;
    }
  }
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  const double t0 = Now();
  StatusOr<std::vector<Rect>> read = [&] {
    TraceSpan span(tracer, "ReadRectsCsv", "bench");
    return ReadRectsCsv(path);
  }();
  times->read_csv_s += Now() - t0;
  times->read_bytes += ec ? 0.0 : static_cast<double>(bytes);
  std::filesystem::remove(path, ec);
  if (!read.ok()) {
    failures_.Add("ReadRectsCsv " + path + ": " + read.status().ToString());
    return data;
  }
  return std::move(read).value();
}

Status Bench::SetUp(World* world, SetupTimes* times, Tracer* tracer) {
  const double t_start = Now();
  std::vector<std::string> names;
  switch (config_.kind) {
    case Kind::kRoads:
      names = {"roads"};
      break;
    case Kind::kSparse:
      names = {"A", "B", "C"};
      break;
    case Kind::kMix:
      names = {"A", "B", "C", "P"};
      break;
  }
  std::vector<std::vector<Rect>> generated;
  const double t_gen = Now();
  for (size_t i = 0; i < names.size(); ++i) {
    generated.push_back(Generate(names[i], i, tracer));
  }
  times->generate_s = Now() - t_gen;

  world->catalog = std::make_unique<DatasetCatalog>();
  for (size_t i = 0; i < names.size(); ++i) {
    std::vector<Rect> data = Ingest(names[i], generated[i], times, tracer);
    generated[i].clear();
    generated[i].shrink_to_fit();
    const double t0 = Now();
    TraceSpan span(tracer, "PutDataset", "bench");
    world->catalog->PutDataset(names[i], std::move(data));
    span.End();
    times->catalog_put_s += Now() - t0;
  }

  auto dataset = [&](const std::string& name) {
    return *world->catalog->GetDataset(name);
  };
  if (config_.kind == Kind::kRoads) {
    world->join_names = {"roads", "roads", "roads"};
    world->query = ParseQuery("A OV B AND B OV C").value();
  } else if (config_.kind == Kind::kSparse) {
    world->join_names = {"A", "B", "C"};
    world->query = ParseQuery("A OV B AND B OV C").value();
  } else {
    world->join_names = {"A", "B", "C"};
    world->query = ParseQuery("A OV B AND B RA(200) C").value();
    world->knn_query = MakeChainQuery(2, Predicate::Overlap()).value();
    world->knn_relations = {dataset("P"), dataset("A")};
  }
  world->relations.clear();
  for (const std::string& name : world->join_names) {
    world->relations.push_back(dataset(name));
  }
  world->total_inputs = 0;
  for (const auto& r : world->relations) world->total_inputs += std::ssize(r);

  if (config_.kind == Kind::kMix) {
    // Single-node reference for knn-mr, on an independent grid.
    TraceSpan span(tracer, "KnnJoin", "bench");
    const std::vector<Rect>& pts = world->knn_relations[0];
    const std::vector<Rect>& rects = world->knn_relations[1];
    std::vector<Point> query_points;
    for (const Rect& p : pts) query_points.push_back(p.start_point());
    const Rect space = ComputeBoundingSpace(world->knn_relations);
    StatusOr<GridPartition> grid = GridPartition::Create(space, 8, 8);
    if (!grid.ok()) return grid.status();
    StatusOr<KnnResult> knn = KnnJoin(grid.value(), query_points, rects,
                                      kKnnK, ExecutionContext(&pool_));
    if (!knn.ok()) return knn.status();
    world->knn_reference.clear();
    for (size_t p = 0; p < knn.value().neighbors.size(); ++p) {
      const auto& nn = knn.value().neighbors[p];
      for (size_t rank = 0; rank < nn.size(); ++rank) {
        world->knn_reference.push_back(IdTuple{static_cast<int64_t>(p),
                                               static_cast<int64_t>(rank),
                                               nn[rank].rect_id});
      }
    }
    std::sort(world->knn_reference.begin(), world->knn_reference.end());
  }

  WarmUp(world, tracer);
  times->total_s = Now() - t_start;
  return Status::OK();
}

// The first submission of every shape: it fixes the join reference (the
// first algorithm's output) and, on catalog-service-mix, makes the grid
// and round-1 artifacts resident. Every warm-up is checked like a timed
// query.
void Bench::WarmUp(World* world, Tracer* tracer) {
  world->join_reference.reset();
  if (config_.kind == Kind::kMix) {
    SchedulerOptions so;
    so.pool = &pool_;
    so.tracer = tracer;
    so.catalog = world->catalog.get();
    so.max_in_flight = config_.clients;
    JobScheduler scheduler(so);
    for (Algo a : {kCrep, kCrepl, kKnnMr}) {
      JoinRunResult result;
      QueryRecord rec = RunSubmitted(*world, &scheduler, a, tracer, &result);
      if (rec.ok && a == kCrep) {
        world->join_reference = Digest::Of(result.tuples);
      }
      Check(*world, rec, result, tracer);
    }
    return;
  }
  for (Algo a : {kCrep, kCrepl, kCascade}) {
    JoinRunResult result;
    QueryRecord rec = RunDirect(*world, a, tracer, &result);
    if (rec.ok && a == kCrep) {
      world->join_reference = config_.kind == Kind::kRoads
                                  ? Digest::CountOnly(result.num_tuples)
                                  : Digest::Of(result.tuples);
      if (config_.kind == Kind::kSparse) {
        // The reference itself is verified once: sound, duplicate-free.
        TraceSpan span(tracer, "VerifyJoinResult", "bench");
        Status st = VerifyJoinResult(*world->query, world->relations,
                                     result.tuples);
        if (!st.ok()) failures_.Add("reference: " + st.ToString());
      }
    }
    Check(*world, rec, result, tracer);
  }
}

// Runs one query through `call`, timing it and taking the process-wide
// counter deltas around it.
template <typename Call>
QueryRecord Bench::Timed(Algo algo, int64_t inputs, Tracer* tracer,
                         const char* span_name, const Call& call,
                         JoinRunResult* result) {
  QueryRecord rec;
  rec.algo = algo;
  rec.inputs = inputs;
  attempted_.fetch_add(1);
  const DedupCounters d0 = SnapshotDedupCounters();
  const TransformCounters t0 = SnapshotTransformCounters();
  const double start = Now();
  StatusOr<JoinRunResult> run = [&] {
    TraceSpan span(tracer, span_name, "bench");
    return call();
  }();
  rec.latency_s = Now() - start;
  rec.dedup = DedupCountersDelta(d0, SnapshotDedupCounters());
  rec.transform = TransformCountersDelta(t0, SnapshotTransformCounters());
  if (!run.ok()) {
    failures_.Add(std::string(kAlgoSuffix[algo]) + ": " +
                  run.status().ToString());
    return rec;
  }
  rec.ok = true;
  *result = std::move(run).value();
  rec.num_tuples = result->num_tuples;
  rec.stats = result->stats;
  rec.wait_s = rec.latency_s - result->stats.total_wall_seconds;
  return rec;
}

QueryRecord Bench::RunDirect(const World& world, Algo algo, Tracer* tracer,
                             JoinRunResult* result) {
  RunnerOptions options;
  options.algorithm = ToAlgorithm(algo);
  options.count_only = config_.kind == Kind::kRoads;
  options.context = ExecutionContext(&pool_, tracer);
  options.context.options.shuffle_memory_budget = config_.shuffle_budget;
  return Timed(
      algo, world.total_inputs, tracer, "RunSpatialJoin",
      [&] { return RunSpatialJoin(*world.query, world.relations, options); },
      result);
}

QueryRecord Bench::RunSubmitted(const World& world, JobScheduler* scheduler,
                                Algo algo, Tracer* tracer,
                                JoinRunResult* result) {
  JobSpec spec;
  int64_t inputs = world.total_inputs;
  if (algo == kKnnMr) {
    spec = MakeKnnMrJobSpec(*world.knn_query, kKnnK);
    spec.dataset_names = {"P", "A"};
    inputs = std::ssize(world.knn_relations[0]) +
             std::ssize(world.knn_relations[1]);
  } else {
    spec.query = *world.query;
    spec.dataset_names = world.join_names;
    spec.options.algorithm = ToAlgorithm(algo);
  }
  return Timed(
      algo, inputs, tracer, "Submit+Wait",
      [&]() -> StatusOr<JoinRunResult> {
        StatusOr<JobHandle> handle = scheduler->Submit(std::move(spec));
        if (!handle.ok()) return handle.status();
        return handle.value().Take();
      },
      result);
}

// Output check: every algorithm must reproduce the reference (count on
// the count-only workload, order-independent digest elsewhere); each
// materialized hybrid result must also pass VerifyJoinResult, and knn-mr
// must equal the single-node KnnJoin reference.
void Bench::Check(const World& world, const QueryRecord& rec,
                  const JoinRunResult& result, Tracer* tracer) {
  if (!rec.ok) return;  // already counted
  const char* who = kAlgoSuffix[rec.algo];
  if (rec.algo == kKnnMr) {
    bool same = result.tuples == world.knn_reference;
    if (args_.wrong_expectation) same = !same;
    if (!same) failures_.Add(std::string(who) + ": differs from KnnJoin");
    return;
  }
  if (config_.kind == Kind::kMix) {
    TraceSpan span(tracer, "VerifyJoinResult", "bench");
    Status st = VerifyJoinResult(*world.query, world.relations, result.tuples);
    if (!st.ok()) failures_.Add(std::string(who) + ": " + st.ToString());
  }
  const Digest got = config_.kind == Kind::kRoads
                         ? Digest::CountOnly(result.num_tuples)
                         : Digest::Of(result.tuples);
  std::optional<Digest> want = world.join_reference;
  if (want.has_value() && args_.wrong_expectation) want->count += 1;
  if (!want.has_value() || !(got == *want)) {
    failures_.Add(std::string(who) + ": output " + std::to_string(got.count) +
                  " tuples differs from the reference");
  }
}

std::vector<QueryRecord> Bench::TimedPhase(const World& world, double seconds,
                                           Tracer* tracer) {
  std::vector<QueryRecord> records;
  std::mutex mu;
  const double deadline = Now() + seconds;
  if (config_.kind != Kind::kMix) {
    // One closed-loop client; whole C-Rep, C-Rep-L, Cascade cycles so the
    // three algorithms stay equally represented.
    do {
      for (Algo a : {kCrep, kCrepl, kCascade}) {
        JoinRunResult result;
        QueryRecord rec = RunDirect(world, a, tracer, &result);
        Check(world, rec, result, tracer);
        records.push_back(std::move(rec));
      }
    } while (Now() < deadline);
    return records;
  }
  SchedulerOptions so;
  so.pool = &pool_;
  so.tracer = tracer;
  so.catalog = world.catalog.get();
  so.max_in_flight = config_.clients;
  JobScheduler scheduler(so);
  const Algo shapes[] = {kCrep, kCrepl, kKnnMr};
  std::vector<std::thread> clients;
  for (int c = 0; c < config_.clients; ++c) {
    clients.emplace_back([&, c] {
      do {
        for (int i = 0; i < 3; ++i) {
          const Algo a = shapes[(c + i) % 3];
          JoinRunResult result;
          QueryRecord rec = RunSubmitted(world, &scheduler, a, tracer, &result);
          Check(world, rec, result, tracer);
          std::lock_guard<std::mutex> lock(mu);
          records.push_back(std::move(rec));
        }
      } while (Now() < deadline);
    });
  }
  for (std::thread& t : clients) t.join();
  return records;
}

// A direct AcquireGrid call. On the cold workloads it builds the grid; on
// catalog-service-mix it uses the artifact key the scheduler composes for
// the join's dataset-name submissions, so it reads the resident grid.
double Bench::ColdGridBuild(const World& world, Tracer* tracer,
                            int64_t* catalog_hits) {
  RunnerOptions options;
  ExecutionContext ctx(&pool_, tracer);
  if (config_.kind == Kind::kMix) {
    StatusOr<DatasetCatalog::RelationBundle> bundle =
        world.catalog->GetRelationBundle(world.join_names);
    if (bundle.ok()) {
      std::string perm = "perm[";
      const std::vector<int> ranks = world.query->CanonicalRanks();
      for (size_t i = 0; i < ranks.size(); ++i) {
        perm += (i > 0 ? "," : "") + std::to_string(ranks[i]);
      }
      options.catalog = world.catalog.get();
      options.artifact_key = world.query->CanonicalKey() + "|" +
                             bundle.value().data_key + "|" + perm + "]";
    }
  }
  const Rect space = ComputeBoundingSpace(world.relations);
  const double t0 = Now();
  TraceSpan span(tracer, "AcquireGrid", "bench");
  StatusOr<GridAcquisition> grid =
      AcquireGrid(world.relations, space, options, ctx);
  span.End();
  const double dt = Now() - t0;
  if (!grid.ok()) {
    failures_.Add("AcquireGrid: " + grid.status().ToString());
  } else {
    *catalog_hits = grid.value().catalog_hits;
  }
  return dt;
}

// ------------------------------------------------------------ reporting

using Metrics = std::map<std::string, double>;

// `owned` counts the "yes" answers of every ownership check kind.
int64_t AllChecks(const DedupCounters& d) {
  return d.pair_checks + d.range_pair_checks + d.tuple_checks;
}

int RoundOf(const JobStats& job, size_t ordinal) {
  const size_t at = job.job_name.find("round");
  if (at != std::string::npos && at + 5 < job.job_name.size()) {
    const char d = job.job_name[at + 5];
    if (d >= '1' && d <= '9') return d - '0';
  }
  return static_cast<int>(ordinal) + 1;
}

// Per-algorithm layer metrics. `attributable` is false when queries ran
// concurrently, so process-wide counter deltas cannot be split per query.
void AlgoMetrics(const std::vector<QueryRecord>& all, Algo algo,
                 bool attributable, Metrics* m) {
  const std::string s = std::string(".") + kAlgoSuffix[algo];
  double n = 0, map_s = 0, shuffle_s = 0, reduce_s = 0, chunk_max = 0,
         reducer_max = 0, skew = 0, shuffle_records = 0, spill_runs = 0,
         spill_raw = 0, spill_stored = 0, merge_width = 0, inbox = 0,
         peak_shuffle = 0, inputs = 0, project = 0, split = 0, replicate = 0,
         checks = 0, all_checks = 0, owned = 0, marked = 0, tuples = 0,
         knn_points = 0, knn_copies = 0, knn_candidates = 0, knn_s = 0;
  std::vector<double> round_in(4, 0), round_out(4, 0);
  for (const QueryRecord& q : all) {
    if (q.algo != algo || !q.ok) continue;
    n += 1;
    double q_chunk = 0, q_reducer = 0, q_skew = 0, q_inbox = 0, q_peak = 0;
    for (size_t j = 0; j < q.stats.jobs.size(); ++j) {
      const JobStats& job = q.stats.jobs[j];
      map_s += job.map_seconds;
      shuffle_s += job.shuffle_seconds;
      reduce_s += job.reduce_seconds;
      q_chunk = std::max(q_chunk, job.MaxMapChunkSeconds());
      q_reducer = std::max(q_reducer, job.MaxReducerSeconds());
      double total = 0;
      for (int64_t r : job.per_reducer_records) total += static_cast<double>(r);
      const double mean =
          job.per_reducer_records.empty()
              ? 0
              : total / static_cast<double>(job.per_reducer_records.size());
      q_skew = std::max(
          q_skew, Ratio(static_cast<double>(job.MaxReducerRecords()), mean));
      spill_runs += static_cast<double>(job.spill.spilled_runs);
      spill_raw += static_cast<double>(job.spill.spilled_raw_bytes);
      spill_stored += static_cast<double>(job.spill.spilled_stored_bytes);
      merge_width =
          std::max(merge_width, static_cast<double>(job.spill.merge_runs_max));
      q_inbox =
          std::max(q_inbox, static_cast<double>(job.spill.peak_inbox_bytes));
      q_peak =
          std::max(q_peak, static_cast<double>(job.spill.peak_shuffle_bytes));
      const int round = std::clamp(RoundOf(job, j), 1, 3);
      round_in[static_cast<size_t>(round)] +=
          static_cast<double>(job.map_input_records);
      round_out[static_cast<size_t>(round)] +=
          static_cast<double>(job.intermediate_records);
      if (algo == kKnnMr) knn_s += job.wall_seconds;
    }
    chunk_max += q_chunk;
    reducer_max += q_reducer;
    skew += q_skew;
    inbox += q_inbox;
    peak_shuffle += q_peak;
    shuffle_records += static_cast<double>(q.stats.TotalIntermediateRecords());
    inputs += static_cast<double>(q.inputs);
    project += static_cast<double>(q.transform.project_calls);
    split += static_cast<double>(q.transform.split_calls +
                                 q.transform.enlarged_split_calls);
    replicate += static_cast<double>(q.transform.replicate_f1_calls +
                                     q.transform.replicate_f2_calls);
    checks += static_cast<double>(q.dedup.tuple_checks);
    all_checks += static_cast<double>(AllChecks(q.dedup));
    owned += static_cast<double>(q.dedup.owned);
    marked += static_cast<double>(
        q.stats.UserCounter(kCounterRectanglesReplicated));
    tuples += static_cast<double>(q.num_tuples);
    knn_points += static_cast<double>(q.stats.UserCounter(kCounterKnnPoints));
    knn_copies +=
        static_cast<double>(q.stats.UserCounter(kCounterKnnPointCopies));
    knn_candidates +=
        static_cast<double>(q.stats.UserCounter(kCounterKnnCandidates));
  }
  const double mb = 1e6;
  (*m)["mapreduce.map_s" + s] = Ratio(map_s, n);
  (*m)["mapreduce.shuffle_s" + s] = Ratio(shuffle_s, n);
  (*m)["mapreduce.reduce_s" + s] = Ratio(reduce_s, n);
  (*m)["mapreduce.map_chunk_s_max" + s] = Ratio(chunk_max, n);
  (*m)["mapreduce.reducer_s_max" + s] = Ratio(reducer_max, n);
  (*m)["mapreduce.reducer_records_skew" + s] = Ratio(skew, n);
  (*m)["mapreduce.shuffle_records" + s] = Ratio(shuffle_records, n);
  (*m)["mapreduce.spill_runs" + s] = Ratio(spill_runs, n);
  (*m)["mapreduce.spill_raw_mb" + s] = Ratio(spill_raw / mb, n);
  (*m)["mapreduce.spill_stored_mb" + s] = Ratio(spill_stored / mb, n);
  (*m)["mapreduce.spill_compression" + s] = Ratio(spill_raw, spill_stored);
  (*m)["mapreduce.merge_width_max" + s] = merge_width;
  (*m)["mapreduce.peak_inbox_mb" + s] = Ratio(inbox / mb, n);
  (*m)["mapreduce.peak_shuffle_mb" + s] = Ratio(peak_shuffle / mb, n);
  for (int r = 1; r <= kRounds[algo]; ++r) {
    const size_t i = static_cast<size_t>(r);
    (*m)["grid.replication_rate" + s + ".r" + std::to_string(r)] =
        Ratio(round_out[i], round_in[i]);
  }
  (*m)["core.output_tuples" + s] = Ratio(tuples, n);
  if (algo == kKnnMr) {
    (*m)["queries.knn_point_replication"] = Ratio(knn_copies, knn_points);
    (*m)["queries.knn_candidates_per_point"] =
        Ratio(knn_candidates, knn_points);
    (*m)["queries.knn_s"] = Ratio(knn_s, n);
    return;
  }
  if (!attributable) {
    project = split = replicate = checks = all_checks = owned = 0;
  }
  (*m)["grid.project_calls_per_input" + s] = Ratio(project, inputs);
  (*m)["grid.split_calls_per_input" + s] = Ratio(split, inputs);
  (*m)["grid.replicate_calls_per_input" + s] = Ratio(replicate, inputs);
  if (algo == kCascade) return;
  (*m)["core.dedup_tuple_checks" + s] = Ratio(checks, n);
  (*m)["core.dedup_owned" + s] = Ratio(owned, n);
  (*m)["core.dedup_owned_ratio" + s] = Ratio(owned, all_checks);
  (*m)["core.marked_fraction" + s] = Ratio(marked, inputs);
}

struct PhaseSummary {
  std::vector<QueryRecord> records;
  double wall_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;
  DedupCounters dedup;
  TransformCounters transform;
};

PhaseSummary Measure(const std::function<std::vector<QueryRecord>()>& body) {
  PhaseSummary p;
  ResetPeakRss();
  const DedupCounters d0 = SnapshotDedupCounters();
  const TransformCounters t0 = SnapshotTransformCounters();
  const double cpu0 = CpuSeconds();
  const double wall0 = Now();
  p.records = body();
  p.wall_s = Now() - wall0;
  p.cpu_s = CpuSeconds() - cpu0;
  p.peak_rss_mb = PeakRssMb();
  p.dedup = DedupCountersDelta(d0, SnapshotDedupCounters());
  p.transform = TransformCountersDelta(t0, SnapshotTransformCounters());
  return p;
}

std::vector<double> Latencies(const std::vector<QueryRecord>& records) {
  std::vector<double> v;
  for (const QueryRecord& q : records) v.push_back(q.latency_s);
  return v;
}

// Whole-phase metrics: totals of the process-wide counters per query (the
// only attribution possible when jobs overlap), catalog reuse, and the
// time a query spent outside its jobs.
void BatchMetrics(const PhaseSummary& p, Metrics* m) {
  const double n = static_cast<double>(p.records.size());
  double inputs = 0, hits = 0, misses = 0, wait = 0;
  for (const QueryRecord& q : p.records) {
    inputs += static_cast<double>(q.inputs);
    hits += static_cast<double>(q.stats.catalog_hits);
    misses += static_cast<double>(q.stats.catalog_misses);
    wait += q.wait_s;
  }
  const DedupCounters& d = p.dedup;
  const TransformCounters& t = p.transform;
  (*m)["core.dedup_tuple_checks.batch"] =
      Ratio(static_cast<double>(d.tuple_checks), n);
  (*m)["core.dedup_owned.batch"] = Ratio(static_cast<double>(d.owned), n);
  (*m)["core.dedup_owned_ratio.batch"] =
      Ratio(static_cast<double>(d.owned), static_cast<double>(AllChecks(d)));
  (*m)["grid.project_calls_per_input.batch"] =
      Ratio(static_cast<double>(t.project_calls), inputs);
  (*m)["grid.split_calls_per_input.batch"] = Ratio(
      static_cast<double>(t.split_calls + t.enlarged_split_calls), inputs);
  (*m)["grid.replicate_calls_per_input.batch"] = Ratio(
      static_cast<double>(t.replicate_f1_calls + t.replicate_f2_calls),
      inputs);
  (*m)["core.catalog_hit_rate"] = Ratio(hits, hits + misses);
  (*m)["core.scheduler_wait_s"] = Ratio(wait, n);
}

Metrics EndToEnd(const PhaseSummary& p, double setup_s, double tail_pct,
                 int64_t attempted, int64_t failed) {
  Metrics m;
  const double n = static_cast<double>(p.records.size());
  double shuffle_bytes = 0, modeled = 0;
  const CostModel model;
  for (const QueryRecord& q : p.records) {
    shuffle_bytes += static_cast<double>(q.stats.TotalIntermediateBytes());
    modeled += model.RunSeconds(q.stats);
  }
  const std::vector<double> lat = Latencies(p.records);
  m["setup_s"] = setup_s;
  m["query_s_p50"] = Percentile(lat, 0.5);
  m["query_s_tail"] = Percentile(lat, tail_pct);
  m["queries_per_s"] = Ratio(n, p.wall_s);
  m["cpu_s_per_query"] = Ratio(p.cpu_s, n);
  m["peak_rss_mb"] = p.peak_rss_mb;
  m["shuffle_mb_per_query"] = Ratio(shuffle_bytes / 1e6, n);
  m["modeled_cluster_s_per_query"] = Ratio(modeled, n);
  const double fail_frac =
      Ratio(static_cast<double>(failed), static_cast<double>(attempted));
  m["failed_frac"] = attempted > 0 ? fail_frac : 1.0;
  m["ok_frac"] = 1.0 - m["failed_frac"];
  return m;
}

void PrintObject(std::ostringstream& out, const char* key, const Metrics& m) {
  out << "\"" << key << "\": {";
  bool first = true;
  for (const auto& [k, v] : m) {
    out << (first ? "" : ", ") << JsonString(k) << ": " << Json(v);
    first = false;
  }
  out << "}";
}

int Bench::Run() {
  const bool traced = !args_.trace_out.empty();
  std::unique_ptr<Tracer> tracer =
      traced ? std::make_unique<Tracer>() : nullptr;

  // Set-up, several times; the last world is the one measured.
  World world;
  std::vector<SetupTimes> setups;
  for (int rep = 0; rep < config_.setup_reps; ++rep) {
    world = World();
    SetupTimes times;
    Status st = SetUp(&world, &times, tracer.get());
    if (!st.ok()) {
      failures_.Add("set-up: " + st.ToString());
      break;
    }
    setups.push_back(times);
  }
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    return Median(v);
  };

  int64_t grid_hits = 0;
  const double grid_build_s =
      world.query.has_value() ? ColdGridBuild(world, tracer.get(), &grid_hits)
                              : 0;

  // Untraced timed phase: every end-to-end metric, and the layer metrics
  // read from RunStats. A traced run splits its time between this and a
  // traced phase whose spans give the self times.
  const double untraced_seconds = traced ? args_.seconds / 2 : args_.seconds;
  PhaseSummary phase;
  if (failures_.count() == 0) {
    phase = Measure(
        [&] { return TimedPhase(world, untraced_seconds, nullptr); });
  }
  PhaseSummary traced_phase;
  if (traced && failures_.count() == 0) {
    traced_phase = Measure([&] {
      TraceSpan span(tracer.get(), "timed_phase", "bench");
      return TimedPhase(world, args_.seconds / 2, tracer.get());
    });
    Status st = tracer->WriteJson(args_.trace_out);
    if (!st.ok()) failures_.Add("trace: " + st.ToString());
  }

  const int64_t attempted = attempted_.load();
  const int64_t failed = failures_.count();
  const Metrics e2e = EndToEnd(phase, median_of(&SetupTimes::total_s),
                               config_.tail_percentile, attempted, failed);

  Metrics layer;
  layer["datagen.generate_s"] = median_of(&SetupTimes::generate_s);
  layer["io.read_csv_s"] = median_of(&SetupTimes::read_csv_s);
  {
    std::vector<double> rates;
    for (const SetupTimes& s : setups) {
      rates.push_back(Ratio(s.read_bytes / 1e6, s.read_csv_s));
    }
    layer["io.read_mb_per_s"] = Median(rates);
  }
  layer["core.catalog_put_s"] = median_of(&SetupTimes::catalog_put_s);
  layer["grid.build_s"] = grid_build_s;
  const bool attributable = config_.clients == 1;
  for (int a = 0; a < kNumAlgos; ++a) {
    AlgoMetrics(phase.records, static_cast<Algo>(a), attributable, &layer);
  }
  BatchMetrics(phase, &layer);
  if (traced) {
    layer["trace.overhead_ratio"] =
        Ratio(Percentile(Latencies(traced_phase.records), 0.5),
              e2e.at("query_s_p50"));
  }

  Metrics counts;
  counts["grid.build_catalog_hits"] = static_cast<double>(grid_hits);
  counts["queries"] = static_cast<double>(phase.records.size());
  counts["traced_queries"] = static_cast<double>(traced_phase.records.size());
  counts["timed_wall_s"] = phase.wall_s;
  counts["traced_wall_s"] = traced_phase.wall_s;
  for (int a = 0; a < kNumAlgos; ++a) {
    std::vector<double> lat;
    for (const QueryRecord& q : phase.records) {
      if (q.algo == a) lat.push_back(q.latency_s);
    }
    const std::string s = kAlgoSuffix[a];
    counts["queries." + s] = static_cast<double>(lat.size());
    counts["query_s_p50." + s] = Percentile(lat, 0.5);
  }

  std::ostringstream out;
  out << "{\"stamp\": {\"workload\": " << JsonString(args_.workload)
      << ", \"seed\": " << args_.seed
      << ", \"size\": " << JsonString(args_.tiny ? "tiny" : "full")
      << ", \"seconds\": " << Json(args_.seconds)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"pool_threads\": " << pool_.num_threads()
      << ", \"isa\": " << JsonString(simd::IsaName(simd::ActiveIsa()))
      << ", \"build_type\": " << JsonString(MWSJ_PERFBENCH_BUILD_TYPE)
      << ", \"compiler\": " << JsonString(MWSJ_PERFBENCH_COMPILER)
      << ", \"tail_percentile\": " << Json(config_.tail_percentile)
      << ", \"setup_reps\": " << setups.size() << "}, ";
  out << "\"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"failures\": [";
  for (size_t i = 0; i < failures_.messages().size(); ++i) {
    out << (i ? ", " : "") << JsonString(failures_.messages()[i]);
  }
  out << "], ";
  PrintObject(out, "end_to_end", e2e);
  out << ", ";
  PrintObject(out, "per_layer", layer);
  out << ", ";
  PrintObject(out, "counts", counts);
  out << "}";
  std::printf("%s\n", out.str().c_str());
  return failed == 0 ? 0 : 1;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "mwsj_perfbench: %s\nusage: mwsj_perfbench --workload NAME "
               "--seed N --seconds S [--trace-out FILE] [--size tiny] "
               "[--work-dir DIR] [--wrong-expectation]\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--wrong-expectation") {
      args.wrong_expectation = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--size") {
      if (value != "tiny" && value != "full") return Usage("bad --size");
      args.tiny = value == "tiny";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const std::optional<Config> config = ConfigFor(args.workload, args.tiny);
  if (!config.has_value()) return Usage("unknown --workload");
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");
  Bench bench(args, *config);
  return bench.Run();
}

}  // namespace
}  // namespace mwsj::perfbench

int main(int argc, char** argv) { return mwsj::perfbench::Main(argc, argv); }
