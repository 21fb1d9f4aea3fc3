#include "oracle/server.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "hub/order.hpp"
#include "hub/pll.hpp"
#include "lowerbound/gadget.hpp"
#include "oracle/oracle.hpp"
#include "rs/rs_graph.hpp"
#include "util/bench_schema.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/prometheus.hpp"
#include "util/querystats.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace hublab::serve {
namespace {

const Graph& test_graph() {
  static const Graph g = [] {
    Rng rng(1);
    return gen::connected_gnm(200, 400, rng);
  }();
  return g;
}

/// One PLL-flat oracle shared across the suite (the build dominates the
/// per-test cost, and run_server_on never mutates it).
const DistanceOracle& test_oracle() {
  static const std::unique_ptr<DistanceOracle> oracle =
      make_oracle(test_graph(), OracleKind::kPllFlat, PllConfig{});
  return *oracle;
}

ServerConfig base_config() {
  ServerConfig config;
  config.workload = WorkloadKind::kUniform;
  config.num_queries = 500;
  config.seed = 7;
  config.qps = 500e3;
  config.register_metrics = false;
  return config;
}

/// The deterministic overload shape: virtual time, 4 workers at a simulated
/// 1M queries/s each, offered 4x that against a small ring.
ServerConfig overload_config() {
  ServerConfig config = base_config();
  config.workers = 4;
  config.batch = 8;
  config.timing = TimingMode::kVirtual;
  config.virtual_service_ns = 1000;
  config.qps = 16e6;
  config.ring_capacity = 32;
  config.admission = AdmissionPolicy::kShed;
  return config;
}

Graph small_gadget() {
  return lb::LayeredGadget(lb::GadgetParams{1, 1}).graph();
}

/// Saturation: offered far above capacity under kBlock, so every query is
/// answered back to back on one worker through the per-query attribution
/// loop, and nothing is trimmed from the telemetry.
ServerConfig saturate_config(WorkloadKind workload) {
  ServerConfig config;
  config.workload = workload;
  config.num_queries = 300;
  config.seed = 5;
  config.workers = 1;
  config.qps = 1e9;
  config.admission = AdmissionPolicy::kBlock;
  config.batch = 1;
  config.warmup_ms = 0;
  config.register_metrics = false;
  return config;
}

ServerResult serve_with(const Graph& g, OracleKind kind, const ServerConfig& config,
                        Tracer* tracer = nullptr) {
  const std::unique_ptr<DistanceOracle> oracle = make_oracle(g, kind, PllConfig{});
  return run_server_on(g, *oracle, config, tracer);
}

TEST(ServeEnums, NamesRoundTripThroughParse) {
  for (const OracleKind kind : {OracleKind::kPllFlat, OracleKind::kCh, OracleKind::kBidij}) {
    EXPECT_EQ(parse_oracle_kind(oracle_kind_name(kind)), kind);
  }
  for (const WorkloadKind kind : {WorkloadKind::kUniform, WorkloadKind::kZipf,
                                  WorkloadKind::kNear, WorkloadKind::kFar}) {
    EXPECT_EQ(parse_workload_kind(workload_kind_name(kind)), kind);
  }
  EXPECT_FALSE(parse_oracle_kind("apsp").has_value());
  EXPECT_FALSE(parse_oracle_kind("pll").has_value());  // the vector layout is not served
  EXPECT_FALSE(parse_workload_kind("bursty").has_value());
}

TEST(MakeOracle, BuildsEveryKindAndRejectsEmptyGraph) {
  const Graph g = small_gadget();
  const auto reference = make_oracle(g, OracleKind::kBidij, PllConfig{});
  for (const OracleKind kind : {OracleKind::kPllFlat, OracleKind::kCh, OracleKind::kBidij}) {
    const auto oracle = make_oracle(g, kind, PllConfig{});
    ASSERT_NE(oracle, nullptr);
    EXPECT_EQ(oracle->distance(0, 1), reference->distance(0, 1));
  }
  const Graph empty;
  EXPECT_THROW((void)make_oracle(empty, OracleKind::kPllFlat, PllConfig{}), InvalidArgument);
}

TEST(ServeOpen, EnumNamesRoundTripThroughParse) {
  for (const ArrivalKind kind : {ArrivalKind::kPoisson, ArrivalKind::kBurst}) {
    EXPECT_EQ(parse_arrival_kind(arrival_kind_name(kind)), kind);
  }
  for (const AdmissionPolicy policy : {AdmissionPolicy::kShed, AdmissionPolicy::kBlock}) {
    EXPECT_EQ(parse_admission_policy(admission_policy_name(policy)), policy);
  }
  for (const TimingMode mode : {TimingMode::kWall, TimingMode::kVirtual}) {
    EXPECT_EQ(parse_timing_mode(timing_mode_name(mode)), mode);
  }
  EXPECT_FALSE(parse_arrival_kind("uniform").has_value());
  EXPECT_FALSE(parse_admission_policy("drop").has_value());
  EXPECT_FALSE(parse_timing_mode("simulated").has_value());
}

TEST(ServeOpen, RejectsInvalidConfigs) {
  ServerConfig config = base_config();
  config.qps = 0.0;
  EXPECT_THROW((void)run_server_on(test_graph(), test_oracle(), config), InvalidArgument);
  config = base_config();
  config.num_queries = 0;
  EXPECT_THROW((void)run_server_on(test_graph(), test_oracle(), config), InvalidArgument);
  config = base_config();
  config.batch = 0;
  EXPECT_THROW((void)run_server_on(test_graph(), test_oracle(), config), InvalidArgument);
  const Graph empty;
  EXPECT_THROW((void)run_server_on(empty, test_oracle(), base_config()), InvalidArgument);
}

TEST(ServeOpen, BlockAdmissionAnswersEveryQuery) {
  ServerConfig config = base_config();
  config.admission = AdmissionPolicy::kBlock;
  config.workers = 2;
  const ServerResult r = run_server_on(test_graph(), test_oracle(), config);
  EXPECT_EQ(r.offered, config.num_queries);
  EXPECT_EQ(r.completed, config.num_queries);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.workers, 2u);
  // oracle_name is the implementation's self-reported name (the report's
  // `oracle_impl` member), distinct from the configured kind string.
  EXPECT_EQ(r.oracle_name, test_oracle().name());
  EXPECT_GT(r.start_unix_ms, 0u);
  EXPECT_GT(r.checksum, 0u);
  EXPECT_GT(r.achieved_qps, 0.0);
  EXPECT_GT(r.space_bytes, 0u);
  EXPECT_GT(r.space_bytes_flat, 0u);
  // Untrimmed completions all land in the latency sketch.
  EXPECT_EQ(r.latency_ns.count() + r.trimmed_warmup + r.trimmed_cooldown, r.completed);
}

TEST(ServeOpen, ChecksumMatchesDirectOracleLoop) {
  // kBlock answers the whole pre-generated stream, so the served checksum
  // must equal a plain sequential loop over the same WorkloadGenerator
  // pairs against the same oracle.
  ServerConfig config = base_config();
  config.admission = AdmissionPolicy::kBlock;
  config.workers = 3;
  const ServerResult r = run_server_on(test_graph(), test_oracle(), config);

  WorkloadGenerator workload(test_graph(), config.workload, config.seed);
  const auto pairs = workload.block(config.num_queries);
  std::uint64_t checksum = 0;
  std::uint64_t reachable = 0;
  for (const auto& [s, t] : pairs) {
    const Dist d = test_oracle().distance(s, t);
    if (d != kInfDist) {
      checksum += d;
      ++reachable;
    }
  }
  EXPECT_EQ(r.checksum, checksum);
  EXPECT_EQ(r.reachable, reachable);
}

TEST(ServeOpen, WorkerCountDoesNotChangeAnswersUnderBlock) {
  // The determinism contract: with kBlock admission the answered set is
  // schedule-independent, so 1 and 4 workers agree on every counted thing.
  ServerConfig one = base_config();
  one.admission = AdmissionPolicy::kBlock;
  one.workers = 1;
  ServerConfig four = one;
  four.workers = 4;
  const ServerResult r1 = run_server_on(test_graph(), test_oracle(), one);
  const ServerResult r4 = run_server_on(test_graph(), test_oracle(), four);
  EXPECT_EQ(r1.offered, r4.offered);
  EXPECT_EQ(r1.completed, r4.completed);
  EXPECT_EQ(r1.checksum, r4.checksum);
  EXPECT_EQ(r1.reachable, r4.reachable);
  EXPECT_EQ(r1.latency_ns.count(), r4.latency_ns.count());
  EXPECT_EQ(r1.workers, 1u);
  EXPECT_EQ(r4.workers, 4u);
  EXPECT_EQ(r1.space_bytes, r4.space_bytes);
  EXPECT_EQ(r1.space_bytes_flat, r4.space_bytes_flat);
}

TEST(ServeOpen, BatchedDrainMatchesScalarChecksum) {
  // batch >= 2 routes through distance_batch (the SIMD kernel on the flat
  // oracle); batch == 1 is the per-query scalar path.  Same answers.
  ServerConfig scalar = base_config();
  scalar.admission = AdmissionPolicy::kBlock;
  scalar.batch = 1;
  ServerConfig batched = scalar;
  batched.batch = 32;
  const ServerResult rs = run_server_on(test_graph(), test_oracle(), scalar);
  const ServerResult rb = run_server_on(test_graph(), test_oracle(), batched);
  EXPECT_EQ(rs.checksum, rb.checksum);
  EXPECT_EQ(rs.reachable, rb.reachable);
  EXPECT_EQ(rs.completed, rb.completed);
  // Trimming keys on the arrival schedule, so both record the same count.
  EXPECT_EQ(rs.latency_ns.count(), rb.latency_ns.count());
}

TEST(ServeOpen, OversizedBatchIsBoundedByRingCapacity) {
  // A drain block can never hold more than one ring's worth of items, so
  // a batch far beyond the ring must serve exactly like a small one rather
  // than sizing its drain buffers by the request.
  ServerConfig small = base_config();
  small.admission = AdmissionPolicy::kBlock;
  small.ring_capacity = 64;
  small.batch = 8;
  ServerConfig huge = small;
  huge.batch = std::size_t{1} << 40;
  const ServerResult rs = run_server_on(test_graph(), test_oracle(), small);
  const ServerResult rh = run_server_on(test_graph(), test_oracle(), huge);
  EXPECT_EQ(rh.completed, rh.offered);
  EXPECT_EQ(rh.checksum, rs.checksum);
  EXPECT_EQ(rh.reachable, rs.reachable);
}

TEST(ServeOpen, VirtualOverloadShedsDeterministically) {
  const ServerConfig config = overload_config();
  const ServerResult first = run_server_on(test_graph(), test_oracle(), config);
  const ServerResult second = run_server_on(test_graph(), test_oracle(), config);
  // Offered 4x the simulated capacity against a small ring: shedding is
  // mandatory, and completed + rejected partitions the offered stream.
  EXPECT_GT(first.rejected, 0u);
  EXPECT_EQ(first.completed + first.rejected, first.offered);
  // Byte-identical rerun: counts, answers, and the simulated telemetry.
  EXPECT_EQ(first.rejected, second.rejected);
  EXPECT_EQ(first.completed, second.completed);
  EXPECT_EQ(first.checksum, second.checksum);
  EXPECT_EQ(first.reachable, second.reachable);
  EXPECT_EQ(first.trimmed_warmup, second.trimmed_warmup);
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(first.latency_ns.quantile(q), second.latency_ns.quantile(q));
    EXPECT_EQ(first.queue_depth.quantile(q), second.queue_depth.quantile(q));
  }
  EXPECT_EQ(first.latency_ns.count(), second.latency_ns.count());
  EXPECT_EQ(first.latency_ns.max(), second.latency_ns.max());
  ASSERT_EQ(first.windows.size(), second.windows.size());
  for (std::size_t i = 0; i < first.windows.size(); ++i) {
    EXPECT_EQ(first.windows[i].index, second.windows[i].index);
    EXPECT_EQ(first.windows[i].queries, second.windows[i].queries);
    EXPECT_EQ(first.windows[i].offered, second.windows[i].offered);
    EXPECT_EQ(first.windows[i].rejected, second.windows[i].rejected);
    EXPECT_EQ(first.windows[i].p99_ns, second.windows[i].p99_ns);
  }
  EXPECT_EQ(first.exemplars.count(), second.exemplars.count());
}

TEST(ServeOpen, VirtualSubCapacityShedsNothing) {
  ServerConfig config = overload_config();
  config.qps = 200e3;  // well under 4 workers x 1M/s simulated
  config.ring_capacity = 1024;
  const ServerResult r = run_server_on(test_graph(), test_oracle(), config);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.completed, r.offered);
  // Simulated arrival-to-completion is at least the constant service time.
  EXPECT_GE(r.latency_ns.quantile(0.5), config.virtual_service_ns);
}

TEST(ServeOpen, BurstArrivalsServeIdenticalAnswers) {
  ServerConfig poisson = base_config();
  poisson.admission = AdmissionPolicy::kBlock;
  ServerConfig burst = poisson;
  burst.arrival = ArrivalKind::kBurst;
  burst.burst = 16;
  const ServerResult rp = run_server_on(test_graph(), test_oracle(), poisson);
  const ServerResult rb = run_server_on(test_graph(), test_oracle(), burst);
  // The arrival process shapes latency, never the answered set.
  EXPECT_EQ(rp.checksum, rb.checksum);
  EXPECT_EQ(rp.completed, rb.completed);
}

TEST(ServeOpen, WarmupTrimExcludesHeadOfSchedule) {
  // Virtual time makes the trim deterministic: arrivals span
  // num_queries/qps seconds, and every completion is still checksummed.
  ServerConfig config = overload_config();
  config.qps = 1e6;      // schedule spans ~500us
  config.warmup_ms = 10; // clamps to span/4: a deterministic head trim
  config.ring_capacity = 4096;
  const ServerResult r = run_server_on(test_graph(), test_oracle(), config);
  EXPECT_GT(r.trimmed_warmup, 0u);
  EXPECT_EQ(r.latency_ns.count() + r.trimmed_warmup + r.trimmed_cooldown, r.completed);

  ServerConfig no_trim = config;
  no_trim.warmup_ms = 0;
  const ServerResult all = run_server_on(test_graph(), test_oracle(), no_trim);
  EXPECT_EQ(all.trimmed_warmup, 0u);
  // Trimming is telemetry-only: the answered set does not change.
  EXPECT_EQ(all.checksum, r.checksum);
  EXPECT_EQ(all.completed, r.completed);
}

TEST(ServeOpen, CooldownTrimExcludesTailOfSchedule) {
  ServerConfig config = overload_config();
  config.qps = 1e6;
  config.warmup_ms = 0;
  config.cooldown_ms = 10;  // clamps to span/4: a deterministic tail trim
  config.ring_capacity = 4096;
  const ServerResult r = run_server_on(test_graph(), test_oracle(), config);
  EXPECT_GT(r.trimmed_cooldown, 0u);
  EXPECT_EQ(r.trimmed_warmup, 0u);
  EXPECT_EQ(r.latency_ns.count() + r.trimmed_cooldown, r.completed);
}

TEST(ServeOpen, WindowsPartitionUntrimmedCompletionsAndOffered) {
  ServerConfig config = overload_config();
  config.qps = 2e6;
  config.window_ns = 100'000;  // the schedule spans several windows
  config.warmup_ms = 0;
  const ServerResult r = run_server_on(test_graph(), test_oracle(), config);
  ASSERT_FALSE(r.windows.empty());
  std::uint64_t queries = 0;
  std::uint64_t reachable = 0;
  std::uint64_t offered = 0;
  std::uint64_t rejected = 0;
  std::uint64_t prev_index = 0;
  for (std::size_t i = 0; i < r.windows.size(); ++i) {
    const WindowStats& w = r.windows[i];
    if (i > 0) {
      EXPECT_GT(w.index, prev_index) << "window indices must ascend";
    }
    prev_index = w.index;
    EXPECT_GT(w.offered, 0u) << "empty windows are not emitted";
    EXPECT_LE(w.rejected, w.offered);
    EXPECT_LE(w.reachable, w.queries);
    if (w.queries > 0) {
      EXPECT_GT(w.qps, 0.0);
    }
    EXPECT_LE(w.p50_ns, w.p99_ns);
    queries += w.queries;
    reachable += w.reachable;
    offered += w.offered;
    rejected += w.rejected;
  }
  EXPECT_EQ(queries, r.latency_ns.count());
  EXPECT_EQ(reachable, r.reachable);
  EXPECT_EQ(offered, r.offered);
  EXPECT_EQ(rejected, r.rejected);
}

#if HUBLAB_METRICS_ENABLED

TEST(ServeOpen, PopulatesRegistryMetrics) {
  metrics::registry().reset();
  ServerConfig config = overload_config();
  config.register_metrics = true;
  const ServerResult r = run_server_on(test_graph(), test_oracle(), config);
  std::uint64_t offered = 0;
  std::uint64_t rejected = 0;
  std::uint64_t queries = 0;
  for (const auto& c : metrics::registry().counters()) {
    if (c.name == "serve.offered") offered = c.value;
    if (c.name == "serve.rejected") rejected = c.value;
    if (c.name == "serve.queries") queries = c.value;
  }
  EXPECT_EQ(offered, config.num_queries);
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(queries + rejected, offered);
  bool saw_depth = false;
  bool saw_latency = false;
  for (const auto& s : metrics::registry().sketches()) {
    saw_depth = saw_depth || s.name == "serve.queue_depth";
    if (s.name == "serve.query_ns") {
      saw_latency = true;
      EXPECT_EQ(s.count, r.latency_ns.count());
    }
  }
  EXPECT_TRUE(saw_depth);
  EXPECT_TRUE(saw_latency);
  metrics::registry().reset();
}

#endif  // HUBLAB_METRICS_ENABLED

TEST(ServeOpen, ReportValidatesAgainstBenchSchema) {
  metrics::registry().reset();
  Tracer tracer;
  ServerConfig config = overload_config();
  config.window_ns = 100'000;
  const ServerResult r = run_server_on(test_graph(), test_oracle(), config, &tracer);
  std::vector<SweepPoint> sweep;
  sweep.push_back({config.qps, r.achieved_qps, r.completed, r.rejected,
                   r.latency_ns.quantile(0.5), r.latency_ns.quantile(0.99)});

  std::ostringstream os;
  write_server_report_json(os, r, config, OracleKind::kPllFlat, kPllDefaultBpRoots, sweep,
                           test_graph(), "connected-gnm", "deadbeef", true, tracer);
  const JsonValue doc = parse_json(os.str());
  const std::vector<std::string> errors = validate_bench_json(doc);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());

  EXPECT_EQ(doc.find("bench")->string_value, "serve-open-pll-flat");
  EXPECT_EQ(doc.find("admission")->string_value, "shed");
  EXPECT_EQ(doc.find("arrival")->string_value, "poisson");
  EXPECT_EQ(doc.find("timing")->string_value, "virtual");
  EXPECT_EQ(doc.find("offered")->number_value, static_cast<double>(r.offered));
  EXPECT_EQ(doc.find("rejected")->number_value, static_cast<double>(r.rejected));
  EXPECT_EQ(doc.find("queries")->number_value, static_cast<double>(r.completed));
  ASSERT_NE(doc.find("queue_depth"), nullptr);
  ASSERT_NE(doc.find("latency_ns"), nullptr);
  ASSERT_NE(doc.find("trimmed_warmup"), nullptr);
  const JsonValue* windows = doc.find("windows");
  ASSERT_NE(windows, nullptr);
  ASSERT_FALSE(windows->array_items.empty());
  for (const JsonValue& w : windows->array_items) {
    ASSERT_NE(w.find("offered"), nullptr);
    ASSERT_NE(w.find("rejected"), nullptr);
  }
  const JsonValue* sweep_json = doc.find("sweep");
  ASSERT_NE(sweep_json, nullptr);
  ASSERT_EQ(sweep_json->array_items.size(), 1u);
  ASSERT_NE(sweep_json->array_items[0].find("qps"), nullptr);
  ASSERT_NE(sweep_json->array_items[0].find("achieved_qps"), nullptr);
  ASSERT_NE(sweep_json->array_items[0].find("p99_ns"), nullptr);
}


TEST(ServeOpen, GadgetLatencyQuantilesAreMonotoneAcrossOracles) {
  const Graph g = small_gadget();
  for (const OracleKind oracle : {OracleKind::kPllFlat, OracleKind::kCh, OracleKind::kBidij}) {
    const ServerResult result = serve_with(g, oracle, saturate_config(WorkloadKind::kUniform));
    EXPECT_EQ(result.completed, 300u);
    EXPECT_GT(result.start_unix_ms, 0u);
    const QuantileSketch& lat = result.latency_ns;
    EXPECT_EQ(lat.count(), result.completed);
    const std::uint64_t p50 = lat.quantile(0.5);
    const std::uint64_t p90 = lat.quantile(0.9);
    const std::uint64_t p99 = lat.quantile(0.99);
    const std::uint64_t p999 = lat.quantile(0.999);
    EXPECT_GT(p50, 0u);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    EXPECT_LE(p99, p999);
    EXPECT_LE(p999, lat.max());
    // The gadget is connected: every query must find a finite distance.
    EXPECT_EQ(result.reachable, result.completed);
    EXPECT_GT(result.checksum, 0u);
  }
}

TEST(ServeOpen, RsGraphFamilyAndAllWorkloads) {
  const rs::RsGraph rs_graph = rs::behrend_rs_graph(30);
  const auto oracle = make_oracle(rs_graph.graph, OracleKind::kPllFlat, PllConfig{});
  for (const WorkloadKind workload : {WorkloadKind::kUniform, WorkloadKind::kZipf,
                                      WorkloadKind::kNear, WorkloadKind::kFar}) {
    const ServerResult result =
        run_server_on(rs_graph.graph, *oracle, saturate_config(workload));
    EXPECT_EQ(result.completed, 300u) << workload_kind_name(workload);
    EXPECT_LE(result.latency_ns.quantile(0.5), result.latency_ns.quantile(0.99));
    // near endpoints come from a random walk out of u, far endpoints from
    // the reachable distance quartiles: both always produce reachable pairs.
    if (workload == WorkloadKind::kNear || workload == WorkloadKind::kFar) {
      EXPECT_EQ(result.reachable, result.completed) << workload_kind_name(workload);
    }
  }
}

TEST(ServeOpen, FlatOracleMatchesVectorOracleAnswers) {
  // The vector and flat layouts of one labeling serve the same answers
  // (checksum over distances) through the engine; only the flat oracle
  // reports a flat footprint.
  const Graph g = small_gadget();
  const HubLabelOracle vector_oracle(
      g, pruned_landmark_labeling(g, make_vertex_order(g, VertexOrder::kDegreeDescending)));
  const ServerConfig config = saturate_config(WorkloadKind::kUniform);
  const ServerResult vec = run_server_on(g, vector_oracle, config);
  const ServerResult flat = serve_with(g, OracleKind::kPllFlat, config);
  EXPECT_EQ(vec.checksum, flat.checksum);
  EXPECT_EQ(vec.reachable, flat.reachable);
  EXPECT_GT(flat.space_bytes_flat, 0u);
  EXPECT_EQ(vec.space_bytes_flat, 0u);
}

TEST(ServeOpen, ExemplarReservoirCoversEveryRecordedQuery) {
  const Graph g = small_gadget();
  const ServerConfig config = saturate_config(WorkloadKind::kZipf);
  const ServerResult result = serve_with(g, OracleKind::kPllFlat, config);
  EXPECT_EQ(result.exemplars.count(), result.latency_ns.count());
  std::uint64_t offered = 0;
  for (const metrics::ExemplarBucket& b : result.exemplars.snapshot()) {
    offered += b.count;
    EXPECT_LE(b.exemplars.size(), config.exemplars_per_bucket);
    for (const metrics::Exemplar& e : b.exemplars) {
      EXPECT_LT(e.s, g.num_vertices());
      EXPECT_LT(e.t, g.num_vertices());
      EXPECT_LT(e.seq, result.offered);
      EXPECT_LE(e.latency_ns, b.le);
    }
  }
  EXPECT_EQ(offered, result.latency_ns.count());
}

TEST(ServeOpen, SlowQueryThresholdCapturesWorstFirst) {
  // Virtual time: every simulated latency is at least the service time,
  // so a 1 ns threshold deterministically matches every recorded query.
  ServerConfig config = saturate_config(WorkloadKind::kUniform);
  config.timing = TimingMode::kVirtual;
  config.slow_query_ns = 1;
  config.slow_query_capacity = 8;
  const Graph g = small_gadget();
  const ServerResult result = serve_with(g, OracleKind::kPllFlat, config);
  EXPECT_EQ(result.slow_queries.total_slow(), result.latency_ns.count());
  ASSERT_LE(result.slow_queries.entries().size(), 8u);
  ASSERT_FALSE(result.slow_queries.entries().empty());
  const auto& entries = result.slow_queries.entries();
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_GE(entries[i - 1].latency_ns, entries[i].latency_ns);
  }
  // The worst retained witness is the sketch's max sample.
  EXPECT_EQ(entries.front().latency_ns, result.latency_ns.max());

  ServerConfig off = config;
  off.slow_query_ns = 0;
  const ServerResult quiet = serve_with(g, OracleKind::kPllFlat, off);
  EXPECT_EQ(quiet.slow_queries.total_slow(), 0u);
  EXPECT_TRUE(quiet.slow_queries.entries().empty());
}

TEST(ServeOpen, AttributionIsWorkerCountInvariant) {
  // Scan cost and meeting hubs are functions of (oracle, pairs), and kBlock
  // answers every pair, so the heavy-hitter totals and the exemplar offer
  // counts match across worker counts (retained exemplar *contents* hinge
  // on measured latencies and may differ run to run).
  const Graph g = small_gadget();
  const auto oracle = make_oracle(g, OracleKind::kPllFlat, PllConfig{});
  ServerConfig one = saturate_config(WorkloadKind::kNear);
  ServerConfig four = one;
  four.workers = 4;
  const ServerResult r1 = run_server_on(g, *oracle, one);
  const ServerResult r4 = run_server_on(g, *oracle, four);

  EXPECT_EQ(r1.exemplars.count(), r4.exemplars.count());
  if (metrics::QueryStats::kEnabled) {
    EXPECT_GT(r1.hub_scan_cost.total_weight(), 0u);  // batch 1 attributes scan cost
  }
  EXPECT_EQ(r1.hub_scan_cost.total_weight(), r4.hub_scan_cost.total_weight());
  const auto t1 = r1.hub_scan_cost.top();
  const auto t4 = r4.hub_scan_cost.top();
  ASSERT_EQ(t1.size(), t4.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].key, t4[i].key);
    EXPECT_EQ(t1[i].weight, t4[i].weight);
  }
}

JsonValue gadget_report(const Graph& g, const ServerResult& result, const ServerConfig& config,
                        const Tracer& tracer) {
  std::ostringstream os;
  write_server_report_json(os, result, config, OracleKind::kPllFlat, kPllDefaultBpRoots, {}, g,
                           "gadget-h", "deadbeef", true, tracer);
  return parse_json(os.str());
}

TEST(ServeReport, CarriesThreadsAndFlatSpace) {
  Tracer tracer;
  const Graph g = small_gadget();
  ServerConfig config = saturate_config(WorkloadKind::kUniform);
  config.workers = 4;
  const ServerResult result = serve_with(g, OracleKind::kPllFlat, config, &tracer);
  EXPECT_EQ(result.workers, 4u);

  const JsonValue doc = gadget_report(g, result, config, tracer);
  EXPECT_TRUE(validate_bench_json(doc).empty());
  ASSERT_NE(doc.find("threads"), nullptr);
  EXPECT_EQ(doc.find("threads")->number_value, 4.0);
  ASSERT_NE(doc.find("space_bytes_flat"), nullptr);
  EXPECT_GT(doc.find("space_bytes_flat")->number_value, 0.0);
}

TEST(ServeReport, CarriesWorkerUtilization) {
  Tracer tracer;
  const Graph g = small_gadget();
  ServerConfig config = saturate_config(WorkloadKind::kUniform);
  config.workers = 2;
  const ServerResult result = serve_with(g, OracleKind::kPllFlat, config, &tracer);
  ASSERT_EQ(result.worker_busy_ns.size(), 2u);
  std::uint64_t busy_total = 0;
  for (const std::uint64_t ns : result.worker_busy_ns) busy_total += ns;
  EXPECT_GT(busy_total, 0u) << "no worker recorded busy time";
  EXPECT_GT(result.worker_utilization_pct, 0.0);
  // Busy sums can exceed the loop wall window by clock granularity only.
  EXPECT_LE(result.worker_utilization_pct, 120.0);

  const JsonValue doc = gadget_report(g, result, config, tracer);
  EXPECT_TRUE(validate_bench_json(doc).empty());
  ASSERT_NE(doc.find("worker_utilization_pct"), nullptr);
  const JsonValue* workers = doc.find("workers");
  ASSERT_NE(workers, nullptr);
  ASSERT_EQ(workers->array_items.size(), 2u);
  for (const JsonValue& w : workers->array_items) {
    ASSERT_NE(w.find("worker"), nullptr);
    ASSERT_NE(w.find("busy_ns"), nullptr);
    EXPECT_GE(w.find("busy_ns")->number_value, 0.0);
  }
}

TEST(ServeReport, ValidatesAgainstBenchSchemaWithServeMembers) {
  Tracer tracer;
  const Graph g = small_gadget();
  const ServerConfig config = saturate_config(WorkloadKind::kFar);
  const ServerResult result = serve_with(g, OracleKind::kPllFlat, config, &tracer);

  const JsonValue doc = gadget_report(g, result, config, tracer);
  const std::vector<std::string> errors = validate_bench_json(doc);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());

  EXPECT_EQ(doc.find("bench")->string_value, "serve-open-pll-flat");
  EXPECT_EQ(doc.find("oracle")->string_value, "pll-flat");
  EXPECT_EQ(doc.find("workload")->string_value, "far");
  EXPECT_EQ(doc.find("git_rev")->string_value, "deadbeef");
  EXPECT_TRUE(doc.find("smoke")->bool_value);
  EXPECT_EQ(doc.find("queries")->number_value, 300.0);
  ASSERT_NE(doc.find("latency_ns"), nullptr);
  EXPECT_GT(doc.find("latency_ns")->find("p999")->number_value, 0.0);
  ASSERT_EQ(doc.find("graphs")->array_items.size(), 1u);
  EXPECT_EQ(doc.find("graphs")->array_items[0].find("family")->string_value, "gadget-h");
  // The engine's tracer spans surface as phases.
  bool saw_loop = false;
  for (const JsonValue& p : doc.find("phases")->array_items) {
    saw_loop = saw_loop || p.find("name")->string_value == "serve-open-loop";
  }
  EXPECT_TRUE(saw_loop);
}

#if HUBLAB_METRICS_ENABLED

TEST(ServeReport, PrometheusDumpCoversServeMetrics) {
  metrics::registry().reset();
  ServerConfig config = saturate_config(WorkloadKind::kUniform);
  config.register_metrics = true;
  (void)serve_with(small_gadget(), OracleKind::kPllFlat, config);
  std::ostringstream os;
  write_prometheus_text(metrics::registry(), os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE hublab_serve_queries counter"), std::string::npos);
  EXPECT_NE(text.find("hublab_serve_queries 300"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hublab_serve_query_ns summary"), std::string::npos);
  EXPECT_NE(text.find("hublab_serve_query_ns{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("hublab_serve_query_ns{quantile=\"0.999\"}"), std::string::npos);
  EXPECT_NE(text.find("hublab_serve_query_ns_count 300"), std::string::npos);
  metrics::registry().reset();
}

#endif  // HUBLAB_METRICS_ENABLED

TEST(ServeReport, CarriesWindowsSlowQueriesAndValidatesAsV4) {
  Tracer tracer;
  const Graph g = small_gadget();
  ServerConfig config = saturate_config(WorkloadKind::kUniform);
  config.timing = TimingMode::kVirtual;  // every latency >= 1 ns: all slow
  config.qps = 2e6;                      // the schedule spans several windows
  config.slow_query_ns = 1;
  config.window_ns = 20'000;
  const ServerResult result = serve_with(g, OracleKind::kPllFlat, config, &tracer);

  const JsonValue doc = gadget_report(g, result, config, tracer);
  const std::vector<std::string> errors = validate_bench_json(doc);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());

  ASSERT_NE(doc.find("window_ns"), nullptr);
  EXPECT_EQ(doc.find("window_ns")->number_value, 20'000.0);
  ASSERT_NE(doc.find("slow_query_ns"), nullptr);
  const JsonValue* windows = doc.find("windows");
  ASSERT_NE(windows, nullptr);
  ASSERT_GT(windows->array_items.size(), 1u);
  double window_queries = 0;
  for (const JsonValue& w : windows->array_items) {
    ASSERT_NE(w.find("index"), nullptr);
    ASSERT_NE(w.find("qps"), nullptr);
    ASSERT_NE(w.find("p50_ns"), nullptr);
    ASSERT_NE(w.find("p99_ns"), nullptr);
    window_queries += w.find("queries")->number_value;
  }
  EXPECT_EQ(window_queries, static_cast<double>(result.latency_ns.count()));

  const JsonValue* slow = doc.find("slow_queries");
  ASSERT_NE(slow, nullptr);
  ASSERT_FALSE(slow->array_items.empty());
  for (const JsonValue& e : slow->array_items) {
    ASSERT_NE(e.find("seq"), nullptr);
    ASSERT_NE(e.find("s"), nullptr);
    ASSERT_NE(e.find("t"), nullptr);
    ASSERT_NE(e.find("latency_ns"), nullptr);
    ASSERT_NE(e.find("scan_cost"), nullptr);
    ASSERT_NE(e.find("meeting_hub"), nullptr);
  }
  ASSERT_NE(doc.find("slow_queries_total"), nullptr);
  EXPECT_EQ(doc.find("slow_queries_total")->number_value,
            static_cast<double>(result.latency_ns.count()));
}

}  // namespace
}  // namespace hublab::serve
