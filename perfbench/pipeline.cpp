// One workload of the repository benchmark, end to end in one process:
// graph file -> vertex order -> PLL labels -> label file -> reload ->
// flat labels -> open-loop server.  Every layer is timed from outside,
// around its public call; the library is used only through its headers.
//
//   perfbench_pipeline --workload NAME --seed N --seconds S --trace 0|1
//                    --dir WORKDIR --out RESULT.json
//
// The result file is a flat JSON document (metrics, checks, provenance)
// that run.py turns into the benchmark's report line.  The exit code is 0
// when every answer was correct, 1 when some answer was wrong or missing,
// 2 when the workload could not run (usage, I/O, an exception).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "hub/flat_labeling.hpp"
#include "hub/order.hpp"
#include "hub/pll.hpp"
#include "hub/serialize.hpp"
#include "hub/simd_kernel.hpp"
#include "lowerbound/gadget.hpp"
#include "oracle/oracle.hpp"
#include "oracle/server.hpp"
#include "oracle/workload.hpp"
#include "util/metrics.hpp"
#include "util/perfcount.hpp"
#include "util/querystats.hpp"
#include "util/resource.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace {

using namespace hublab;
using Clock = std::chrono::steady_clock;

// Thread budget: the host has 4 cores.  PLL builds on 3; the server runs
// 2 shard workers plus its generator thread.  With 3 workers the
// saturation rate swung by 2x between identical runs; with 2 it stays
// within about 15%.
constexpr std::size_t kPllThreads = 3;
constexpr std::size_t kServeWorkers = 2;
constexpr std::size_t kServeBatch = 32;
// Fixed offered rate of the latency phase, far below the saturation rate
// of every workload, so p50/p99 measure service plus queueing noise
// rather than a growing backlog.
constexpr double kFixedQps = 300000.0;
// Offered rate of the saturation phase: the generator never waits, and
// kBlock admission stalls it whenever a ring is full.
constexpr double kSaturationQps = 1e9;
constexpr std::uint64_t kWarmupQueries = 100000;
constexpr std::uint64_t kFixedSegmentQueries = 150000;  // 0.5 s at kFixedQps
constexpr std::uint64_t kSaturationSegmentQueries = 200000;
constexpr std::uint64_t kWindowNs = 10'000'000;
// A window's p99 needs at least ten samples beyond it.
constexpr std::uint64_t kMinWindowQueries = 1000;
constexpr std::size_t kBidijSamples = 2000;
constexpr std::size_t kStatsSamples = 20000;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The q-quantile, interpolated between the order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ---------------------------------------------------------------------------
// Workloads.  Why each exists is in perfbench/README.md.

enum class Family { kGnm, kGadget, kRoad };
enum class Order { kDegree, kBetweenness };

struct Spec {
  const char* name;
  Family family;
  Order order;
  serve::WorkloadKind queries;
  std::size_t setup_reps;  ///< set-ups per run; setup_s is their median
};

constexpr Spec kSpecs[] = {
    {"hot-uniform", Family::kGnm, Order::kDegree, serve::WorkloadKind::kUniform, 7},
    {"gadget-far", Family::kGadget, Order::kDegree, serve::WorkloadKind::kFar, 5},
    {"road-build", Family::kRoad, Order::kBetweenness, serve::WorkloadKind::kNear, 3},
};

// The paper's G_{2,2}: b = 2 (side s = 4), ell = 2 (five levels).
constexpr lb::GadgetParams kGadget{2, 2};

struct Lemma22Pair {
  Vertex u;
  Vertex v;
  Dist predicted;
};

struct Input {
  Graph graph;
  std::string family;  ///< generator call, for provenance
  std::vector<Lemma22Pair> lemma22;  ///< gadget-far only
};

// Every Lemma 2.2 pair (v_{0,x}, v_{2l,z}) with all coordinate
// differences even, mapped into G_{b,l}.  Distances between original
// vertices at different levels are preserved exactly by the expansion.
std::vector<Lemma22Pair> lemma22_pairs(const lb::LayeredGadget& h, const lb::Degree3Gadget& g) {
  std::vector<Lemma22Pair> pairs;
  const std::uint64_t layer = h.params().layer_size();
  const std::uint64_t top = 2ULL * h.params().ell;
  for (std::uint64_t xi = 0; xi < layer; ++xi) {
    const lb::Coords x = h.index_to_coords(xi);
    for (std::uint64_t zi = 0; zi < layer; ++zi) {
      const lb::Coords z = h.index_to_coords(zi);
      if (!lb::LayeredGadget::all_diffs_even(x, z)) continue;
      pairs.push_back({g.image(h.vertex(0, xi)), g.image(h.vertex(top, zi)),
                       h.predicted_distance(x, z)});
    }
  }
  return pairs;
}

Input make_input(const Spec& spec, std::uint64_t seed) {
  Rng rng(seed);
  switch (spec.family) {
    case Family::kGnm:
      return {gen::connected_gnm(2000, 6000, rng), "connected_gnm(2000, 6000)", {}};
    case Family::kGadget: {
      const lb::LayeredGadget h(kGadget);
      const lb::Degree3Gadget g(h);
      return {g.graph(), "Degree3Gadget(b=2, l=2)", lemma22_pairs(h, g)};
    }
    case Family::kRoad:
      return {gen::road_like(200, 200, 0.2, 10, rng), "road_like(200, 200, 0.2, 10)", {}};
  }
  throw std::logic_error("unknown family");
}

std::vector<Vertex> vertex_order(const Spec& spec, const Graph& g, std::uint64_t seed) {
  if (spec.order == Order::kDegree) return make_vertex_order(g, VertexOrder::kDegreeDescending);
  Rng rng(seed);
  return betweenness_order(g, std::min<std::size_t>(64, g.num_vertices()), rng);
}

// Write a file's dirty pages to disk now, outside any timed interval, so
// the kernel's background writeback of tens of MB does not land in a later
// measurement.  Without it the first second of serving on gadget-far
// sometimes ran at 4x the p50 latency.
void flush_to_disk(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0 || ::fsync(fd) != 0) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("cannot flush " + path);
  }
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Set-up: graph file -> first answer from the reloaded oracle.

std::optional<Tracer::Span> maybe_span(Tracer* tracer, const char* name) {
  if (tracer == nullptr) return std::nullopt;
  return tracer->span(name);
}

struct Labels {
  std::size_t total_hubs = 0;
  double avg_label = 0.0;
  std::size_t max_label = 0;
};

struct Deployment {
  Graph graph;
  std::optional<FlatHubLabelOracle> oracle;
  double setup_s = 0.0;
  Labels labels;
  std::uint64_t file_bytes = 0;
};

Deployment set_up(const Spec& spec, std::uint64_t seed, const std::string& graph_path,
                  const std::string& label_path, Tracer* tracer) {
  Deployment d;
  const auto start = Clock::now();
  auto root = maybe_span(tracer, "setup");
  {
    auto s = maybe_span(tracer, "graph");
    d.graph = io::load_edge_list(graph_path);
  }
  std::vector<Vertex> order;
  {
    auto s = maybe_span(tracer, "order");
    order = vertex_order(spec, d.graph, seed);
  }
  {
    HubLabeling built;
    {
      auto s = maybe_span(tracer, "pll");
      PllConfig config;
      config.threads = kPllThreads;
      built = pruned_landmark_labeling(d.graph, order, config);
    }
    d.labels = {built.total_hubs(), built.average_label_size(), built.max_label_size()};
    auto s = maybe_span(tracer, "serialize.save");
    save_labeling_file(built, label_path);
  }
  {
    HubLabeling loaded;
    {
      auto s = maybe_span(tracer, "serialize.load");
      loaded = load_labeling_file(label_path);
    }
    auto s = maybe_span(tracer, "flat");
    d.oracle.emplace(FlatHubLabeling(loaded));
  }
  Dist first = kInfDist;
  {
    auto s = maybe_span(tracer, "first-query");
    first = d.oracle->distance(0, static_cast<Vertex>(d.graph.num_vertices() - 1));
  }
  root.reset();
  d.setup_s = seconds_since(start);
  if (first == kInfDist) throw std::runtime_error("first query found no path");
  d.file_bytes = std::filesystem::file_size(label_path);
  flush_to_disk(label_path);
  return d;
}

// ---------------------------------------------------------------------------
// Serving, with the correctness replay.

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t unanswered = 0;
  std::uint64_t wrong = 0;
  std::uint64_t exceptions = 0;
  [[nodiscard]] std::uint64_t failed() const { return unanswered + wrong + exceptions; }
};

struct Segment {
  serve::ServerResult result;
  double gen_s = 0.0;  ///< WorkloadGenerator time for the replay pairs
  std::vector<std::pair<Vertex, Vertex>> pairs;
};

// Serve `n` queries at `qps`, then replay the same pairs through the
// scalar merge: the served checksum and reachable count must match.  A
// segment whose aggregate disagrees counts every query in it as wrong,
// since the aggregate cannot say which answers differ.
std::optional<Segment> serve_segment(const Deployment& d, const Spec& spec, std::uint64_t seed,
                                     std::uint64_t n, double qps, Tracer* tracer, Tally& tally) {
  serve::ServerConfig config;
  config.workload = spec.queries;
  config.num_queries = n;
  config.seed = seed;
  config.workers = kServeWorkers;
  config.qps = qps;
  config.admission = serve::AdmissionPolicy::kBlock;
  config.batch = kServeBatch;
  config.window_ns = kWindowNs;
  tally.attempted += n;
  Segment seg;
  try {
    auto s = maybe_span(tracer, "serve");
    seg.result = serve::run_server_on(d.graph, *d.oracle, config, tracer);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: serve segment threw: " << e.what() << "\n";
    ++tally.exceptions;
    tally.unanswered += n - 1;
    return std::nullopt;
  }
  const auto gen_start = Clock::now();
  {
    auto s = maybe_span(tracer, "workload");
    serve::WorkloadGenerator workload(d.graph, spec.queries, seed);
    seg.pairs = workload.block(n);
  }
  seg.gen_s = seconds_since(gen_start);
  const FlatHubLabeling& flat = d.oracle->labeling();
  std::uint64_t checksum = 0;
  std::uint64_t reachable = 0;
  for (const auto& [u, v] : seg.pairs) {
    const Dist dist = flat.query_with_hub(u, v).dist;
    if (dist != kInfDist) {
      checksum += dist;
      ++reachable;
    }
  }
  const serve::ServerResult& r = seg.result;
  const std::uint64_t answered = std::min<std::uint64_t>(r.completed, n);
  tally.unanswered += n - answered;
  if (r.checksum != checksum || r.reachable != reachable) {
    std::cerr << "perfbench: served checksum " << r.checksum << "/" << r.reachable
              << " != scalar replay " << checksum << "/" << reachable << " (seed " << seed
              << ")\n";
    tally.wrong += answered;
  }
  return seg;
}

// A sample of workload pairs against bidirectional Dijkstra on the graph.
void check_against_bidij(const Deployment& d, const Spec& spec, std::uint64_t seed, Tally& tally) {
  const BidirectionalOracle bidij(d.graph);
  serve::WorkloadGenerator workload(d.graph, spec.queries, seed ^ 0xb1d1b1d1ULL);
  for (const auto& [u, v] : workload.block(kBidijSamples)) {
    ++tally.attempted;
    if (d.oracle->distance(u, v) != bidij.distance(u, v)) ++tally.wrong;
  }
}

// Lemma 2.2 on the reloaded labels: the served distance of every pair
// equals LayeredGadget::predicted_distance.
void check_lemma22(const Deployment& d, const std::vector<Lemma22Pair>& pairs, Tally& tally) {
  for (const Lemma22Pair& p : pairs) {
    ++tally.attempted;
    if (d.oracle->distance(p.u, p.v) != p.predicted) {
      std::cerr << "perfbench: Lemma 2.2 pair (" << p.u << ", " << p.v << ") gave "
                << d.oracle->distance(p.u, p.v) << ", predicted " << p.predicted << "\n";
      ++tally.wrong;
    }
  }
}

// ---------------------------------------------------------------------------
// Single-thread kernel timings over served pairs (traced run only).

struct KernelStats {
  double batch_ns = 0.0;
  double scalar_ns = 0.0;
  double scanned_per_query = 0.0;
  double match_ratio = 0.0;
  double source_groups_per_pair = 0.0;
};

template <typename Fn>
double ns_per_query(std::size_t pairs, Fn&& pass) {
  const auto start = Clock::now();
  std::size_t passes = 0;
  do {
    pass();
    ++passes;
  } while (seconds_since(start) < 0.3);
  return seconds_since(start) * 1e9 / static_cast<double>(passes * pairs);
}

KernelStats measure_kernel(const FlatHubLabeling& flat,
                           const std::vector<std::pair<Vertex, Vertex>>& pairs, Tally& tally) {
  KernelStats k;
  std::vector<HubQueryResult> batched(pairs.size());
  metrics::Registry& reg = metrics::registry();
  const std::uint64_t pairs0 = reg.counter("query.batch.pairs").value();
  const std::uint64_t groups0 = reg.counter("query.batch.source_groups").value();
  k.batch_ns = ns_per_query(pairs.size(), [&] {
    for (std::size_t i = 0; i < pairs.size(); i += kServeBatch) {
      const std::size_t len = std::min(kServeBatch, pairs.size() - i);
      flat.query_batch({pairs.data() + i, len}, {batched.data() + i, len});
    }
  });
  const auto batch_pairs = static_cast<double>(reg.counter("query.batch.pairs").value() - pairs0);
  const auto groups = static_cast<double>(reg.counter("query.batch.source_groups").value() - groups0);
  k.source_groups_per_pair = batch_pairs > 0 ? groups / batch_pairs : 0.0;

  std::uint64_t mismatches = 0;
  k.scalar_ns = ns_per_query(pairs.size(), [&] {
    mismatches = 0;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (flat.query_with_hub(pairs[i].first, pairs[i].second).dist != batched[i].dist) {
        ++mismatches;
      }
    }
  });
  tally.attempted += pairs.size();
  tally.wrong += mismatches;

  std::uint64_t scanned = 0;
  std::uint64_t matched = 0;
  const std::size_t sample = std::min(kStatsSamples, pairs.size());
  for (std::size_t i = 0; i < sample; ++i) {
    metrics::QueryStats stats;
    (void)flat.query_with_stats(pairs[i].first, pairs[i].second, stats);
    scanned += stats.hubs_scanned();
    matched += stats.hubs_matched();
  }
  k.scanned_per_query = sample > 0 ? static_cast<double>(scanned) / static_cast<double>(sample) : 0;
  k.match_ratio = scanned > 0 ? static_cast<double>(matched) / static_cast<double>(scanned) : 0.0;
  return k;
}

// ---------------------------------------------------------------------------
// Output.

using Metrics = std::map<std::string, double>;

void write_object(std::ostream& out, const Metrics& m) {
  out << "{";
  bool first = true;
  for (const auto& [name, value] : m) {
    out << (first ? "" : ", ") << "\"" << name << "\": ";
    if (std::isfinite(value)) {
      out << value;
    } else {
      out << "null";  // a zero divisor after failed segments
    }
    first = false;
  }
  out << "}";
}

std::string quoted(const std::string& s) {
  std::string q = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') q += '\\';
    q += c;
  }
  return q + "\"";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;
  std::string out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--dir") {
      a.dir = value;
    } else if (key == "--out") {
      a.out = value;
    } else {
      return std::nullopt;
    }
  }
  if (a.workload.empty() || a.dir.empty() || a.out.empty() || !(a.seconds > 0)) {
    return std::nullopt;
  }
  return a;
}

// Per-layer span medians over the traced set-ups, by span name.
std::map<std::string, double> span_medians(const Tracer& tracer) {
  std::map<std::string, std::vector<double>> by_name;
  for (const Tracer::Record& r : tracer.records()) by_name[r.name].push_back(r.dur_s);
  std::map<std::string, double> out;
  for (auto& [name, durations] : by_name) out[name] = median(std::move(durations));
  return out;
}

// Counter deltas of the last span with this name.
std::uint64_t span_counter(const Tracer& tracer, const std::string& span,
                           const std::string& counter) {
  const auto& records = tracer.records();
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    if (it->name != span) continue;
    for (const metrics::CounterSnapshot& c : it->counter_deltas) {
      if (c.name == counter) return c.value;
    }
    return 0;
  }
  return 0;
}

int run(const Args& args) {
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::cerr << "perfbench: unknown workload " << args.workload << "\n";
    return 2;
  }
  std::filesystem::create_directories(args.dir);
  const std::string graph_path = args.dir + "/graph.txt";
  const std::string label_path = args.dir + "/labels.hlab";

  // Inputs are generated and written before any timing starts.
  std::vector<Lemma22Pair> lemma22;
  std::string family;
  std::size_t n = 0;
  std::size_t m = 0;
  {
    Input input = make_input(*spec, args.seed);
    io::save_edge_list(input.graph, graph_path);
    flush_to_disk(graph_path);
    lemma22 = std::move(input.lemma22);
    family = input.family;
    n = input.graph.num_vertices();
    m = input.graph.num_edges();
  }

  const bool perf_available = perf::available();
  if (args.trace && perf_available) perf::set_enabled(true);

  Tally tally;
  Metrics e2e;
  Metrics layers;
  Tracer tracer;
  Tracer* traced = args.trace ? &tracer : nullptr;

  // Set-ups.  The traced run alternates untraced and traced set-ups so
  // the trace overhead is measured under the same conditions.
  std::vector<double> setup_untraced;
  std::vector<double> setup_traced;
  Deployment d;
  for (std::size_t rep = 0; rep < spec->setup_reps; ++rep) {
    d = Deployment{};  // free the previous deployment before the next one
    d = set_up(*spec, args.seed, graph_path, label_path, nullptr);
    setup_untraced.push_back(d.setup_s);
    if (traced != nullptr) {
      d = Deployment{};
      d = set_up(*spec, args.seed, graph_path, label_path, traced);
      setup_traced.push_back(d.setup_s);
    }
  }
  const FlatHubLabeling& flat = d.oracle->labeling();

  check_against_bidij(d, *spec, args.seed, tally);
  check_lemma22(d, lemma22, tally);

  // Serve phase, in segments of a fixed number of queries so the serve
  // buffers (16 B per query in the server, 8 B in the replay) stay small
  // beside the labels in peak RSS: per second of --seconds, 1.2 segments
  // at the fixed rate, each preceded by two at saturation, so both rates
  // sample the host over the whole phase.  One short saturation segment
  // first warms the serve path; it is checked but not reported.
  //
  // Fixed rate: latency percentiles are taken per 10 ms window of
  // arrivals and the reported value is the median over windows: a stall
  // of the host (another tenant's thread, a stolen vCPU) then moves the
  // windows it hits, not the statistic.
  //
  // Saturation: sat_qps is the upper quartile of the segments.  A segment
  // runs slower when the host takes a vCPU, so a low quantile follows host
  // load, while the best segment follows the one segment whose pairs
  // happened to be cheapest.
  const auto segments = static_cast<std::size_t>(std::max(3.0, std::round(1.2 * args.seconds)));
  constexpr std::size_t kSaturationPerFixed = 2;
  std::uint64_t seg_seed = args.seed * 1000;
  (void)serve_segment(d, *spec, ++seg_seed, kWarmupQueries, kSaturationQps, nullptr, tally);

  std::vector<double> window_p50;
  std::vector<double> window_p99;
  std::vector<double> p99_whole;
  std::vector<double> rank_error_pct;
  std::vector<double> loop_s;
  std::vector<double> utilization;
  std::vector<double> depth_p50;
  std::vector<double> depth_p99;
  std::vector<double> gen_s;
  std::uint64_t latency_samples = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t completed = 0;
  perf::HwCounters hw;
  std::vector<std::pair<Vertex, Vertex>> kernel_pairs;
  std::vector<double> sat_untraced;
  std::vector<double> sat_traced;
  for (std::size_t i = 0; i < segments; ++i) {
    for (std::size_t j = 0; j < kSaturationPerFixed; ++j) {
      auto seg = serve_segment(d, *spec, ++seg_seed, kSaturationSegmentQueries, kSaturationQps,
                               nullptr, tally);
      sat_untraced.push_back(seg ? seg->result.achieved_qps : 0.0);
      if (traced == nullptr) continue;
      seg = serve_segment(d, *spec, ++seg_seed, kSaturationSegmentQueries, kSaturationQps, traced,
                          tally);
      sat_traced.push_back(seg ? seg->result.achieved_qps : 0.0);
    }
    auto seg = serve_segment(d, *spec, ++seg_seed, kFixedSegmentQueries, kFixedQps, traced, tally);
    if (!seg) continue;
    const serve::ServerResult& r = seg->result;
    for (const serve::WindowStats& w : r.windows) {
      if (w.queries < kMinWindowQueries) continue;
      window_p50.push_back(static_cast<double>(w.p50_ns) / 1e3);
      window_p99.push_back(static_cast<double>(w.p99_ns) / 1e3);
    }
    const auto count = static_cast<double>(std::max<std::uint64_t>(1, r.latency_ns.count()));
    p99_whole.push_back(static_cast<double>(r.latency_ns.quantile(0.99)) / 1e3);
    rank_error_pct.push_back(100.0 * static_cast<double>(r.latency_ns.rank_error_bound()) / count);
    latency_samples += r.latency_ns.count();
    loop_s.push_back(r.serve_loop_s);
    utilization.push_back(r.worker_utilization_pct);
    depth_p50.push_back(static_cast<double>(r.queue_depth.quantile(0.50)));
    depth_p99.push_back(static_cast<double>(r.queue_depth.quantile(0.99)));
    gen_s.push_back(seg->gen_s);
    for (const std::uint64_t b : r.worker_busy_ns) busy_ns += b;
    completed += r.completed;
    if (r.hw.valid) hw += r.hw;
    if (kernel_pairs.empty()) kernel_pairs = std::move(seg->pairs);
  }
  const double sat_qps = quantile(sat_untraced, 0.75);
  const double sat_qps_traced = quantile(sat_traced, 0.75);

  if (!args.trace) {
    e2e["setup_s"] = median(setup_untraced);
    e2e["peak_rss_mb"] = static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0);
    e2e["label_bytes_per_vertex"] =
        static_cast<double>(flat.memory_bytes()) / static_cast<double>(n);
    e2e["sat_qps"] = sat_qps;
    e2e["p50_us"] = median(window_p50);
  } else {
    const KernelStats k = measure_kernel(flat, kernel_pairs, tally);
    const std::map<std::string, double> spans = span_medians(tracer);
    const auto at = [&](const std::string& name) {
      const auto it = spans.find(name);
      return it == spans.end() ? 0.0 : it->second;
    };
    const auto pll_counter = [&](const char* name) {
      return static_cast<double>(span_counter(tracer, "pll", name));
    };
    metrics::Registry& reg = metrics::registry();
    layers["graph.load_s"] = at("graph");
    layers["order.s"] = at("order");
    layers["pll.build_s"] = at("pll");
    layers["pll.visited"] = pll_counter("pll.visited");
    layers["pll.pruned"] = pll_counter("pll.pruned");
    layers["pll.label_pushes"] = pll_counter("pll.label_pushes");
    layers["pll.prune_ratio"] =
        layers["pll.visited"] > 0 ? layers["pll.pruned"] / layers["pll.visited"] : 0.0;
    layers["pll.bp_visited"] = pll_counter("pll.bp_visited");
    layers["pll.bp_dist_prunes"] = pll_counter("pll.bp_dist_prunes");
    layers["pll.bp_mask_prunes"] = pll_counter("pll.bp_mask_prunes");
    layers["pll.bp_table_bytes"] = static_cast<double>(reg.gauge("pll.bp_table_bytes").value());
    layers["pll.total_hubs"] = static_cast<double>(d.labels.total_hubs);
    layers["pll.avg_label"] = d.labels.avg_label;
    layers["pll.max_label"] = static_cast<double>(d.labels.max_label);
    layers["serialize.save_s"] = at("serialize.save");
    layers["serialize.load_s"] = at("serialize.load");
    layers["serialize.file_bytes"] = static_cast<double>(d.file_bytes);
    layers["flat.convert_s"] = at("flat");
    layers["flat.bytes"] = static_cast<double>(flat.memory_bytes());
    layers["kernel.batch_ns_per_query"] = k.batch_ns;
    layers["kernel.scalar_ns_per_query"] = k.scalar_ns;
    layers["kernel.scanned_per_query"] = k.scanned_per_query;
    layers["kernel.match_ratio"] = k.match_ratio;
    layers["kernel.source_groups_per_pair"] = k.source_groups_per_pair;
    layers["workload.gen_s"] = median(gen_s);
    layers["server.loop_s"] = median(loop_s);
    layers["server.worker_utilization_pct"] = median(utilization);
    layers["server.busy_ns_per_query"] =
        completed > 0 ? static_cast<double>(busy_ns) / static_cast<double>(completed) : 0.0;
    layers["server.queue_depth_p50"] = median(depth_p50);
    layers["server.queue_depth_p99"] = median(depth_p99);
    layers["server.latency_rank_error_pct"] = median(rank_error_pct);
    layers["server.p99_us"] = median(window_p99);
    layers["trace_overhead_pct.setup_s"] =
        100.0 * (median(setup_traced) - median(setup_untraced)) / median(setup_untraced);
    layers["trace_overhead_pct.sat_qps"] = 100.0 * (sat_qps_traced - sat_qps) / sat_qps;
    if (hw.valid) {
      layers["server.hw.ipc"] = hw.ipc();
      layers["server.hw.llc_miss_rate"] = hw.llc_miss_rate();
    }
    std::ofstream chrome(args.dir + "/trace.json");
    tracer.write_chrome_trace(chrome);
  }

  // Shown beside the latency percentiles in every run.
  Metrics info;
  info["latency_samples"] = static_cast<double>(latency_samples);
  info["latency_rank_error_pct"] = median(rank_error_pct);
  info["latency_windows"] = static_cast<double>(window_p99.size());
  info["p99_us"] = median(window_p99);
  info["p99_whole_us"] = median(p99_whole);
  info["fail_rate"] = tally.attempted > 0 ? static_cast<double>(tally.failed()) /
                                                static_cast<double>(tally.attempted)
                                          : 1.0;

  std::ofstream out(args.out);
  out << std::setprecision(10);
  out << "{\"workload\": " << quoted(spec->name) << ", \"seed\": " << args.seed
      << ", \"trace\": " << (args.trace ? 1 : 0) << ",\n \"attempted\": " << tally.attempted
      << ", \"failed\": " << tally.failed() << ", \"unanswered\": " << tally.unanswered
      << ", \"wrong\": " << tally.wrong << ", \"exceptions\": " << tally.exceptions
      << ",\n \"end_to_end\": ";
  write_object(out, e2e);
  out << ",\n \"per_layer\": ";
  write_object(out, layers);
  out << ",\n \"info\": ";
  write_object(out, info);
  out << ",\n \"provenance\": {\"seed\": " << args.seed << ", \"graph\": " << quoted(family)
      << ", \"n\": " << n << ", \"m\": " << m
      << ", \"simd_tier\": " << quoted(simd::tier_name(simd::active_tier()))
      << ", \"force_scalar\": " << (simd::force_scalar() ? "true" : "false")
      << ", \"pll_threads\": " << kPllThreads << ", \"serve_workers\": " << kServeWorkers
      << ", \"generator_threads\": 1, \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"perf_counters\": " << (perf_available ? "true" : "false")
      << ", \"perf_describe\": " << quoted(perf::describe()) << ", \"compiler\": "
      << quoted(__VERSION__) << "}}\n";
  out.close();
  if (!out) {
    std::cerr << "perfbench: cannot write " << args.out << "\n";
    return 2;
  }
  return tally.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::cerr << "usage: perfbench_pipeline --workload NAME --seed N --seconds S --trace 0|1 "
                 "--dir WORKDIR --out RESULT.json\n";
    return 2;
  }
  try {
    return run(*args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
