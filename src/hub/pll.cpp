#include "hub/pll.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <utility>

#include "hub/simd_kernel.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/qsketch.hpp"
#include "util/rng.hpp"

namespace hublab {

std::vector<Vertex> make_vertex_order(const Graph& g, VertexOrder order, std::uint64_t seed) {
  const auto n = static_cast<Vertex>(g.num_vertices());
  std::vector<Vertex> result(n);
  for (Vertex v = 0; v < n; ++v) result[v] = v;
  switch (order) {
    case VertexOrder::kNatural:
      break;
    case VertexOrder::kRandom: {
      Rng rng(seed);
      shuffle(result, rng);
      break;
    }
    case VertexOrder::kDegreeDescending:
      std::stable_sort(result.begin(), result.end(),
                       [&g](Vertex a, Vertex b) { return g.degree(a) > g.degree(b); });
      break;
    default:
      HUBLAB_UNREACHABLE();
  }
  return result;
}

BitParallelRoots::BitParallelRoots(const Graph& g, const std::vector<Vertex>& order,
                                   std::size_t bp_roots, std::size_t threads) {
  const std::size_t n = g.num_vertices();
  // 16-bit distance rows: any finite BFS distance is < n, so n <= 65535
  // guarantees the tables never truncate (kUnreachable is the only
  // sentinel).  Weighted graphs use Dijkstra and never consult the tables.
  if (g.is_weighted() || n == 0 || n > 0xFFFF || bp_roots == 0) return;
  num_roots_ = std::min(bp_roots, n);
  const std::size_t stride = num_roots_;
  dist_.assign(n * stride, kUnreachable);
  sm1_.assign(n * stride, 0);
  s0_.assign(n * stride, 0);
  peaks_.assign(num_roots_, 0);

  metrics::Counter& c_visited = metrics::registry().counter("pll.bp_visited");
  // One mask-propagating BFS per root.  Each BFS runs in contiguous
  // per-root scratch (the strided table rows would cost a cache line per
  // arc) and scatters into its column once at the end; roots write
  // disjoint columns, so the fan-out over the pool is race-free and
  // thread-count invariant.
  par::parallel_for(0, num_roots_, threads, [&](const par::ChunkRange& chunk) {
    std::vector<Vertex> frontier;
    std::vector<Vertex> next;
    std::vector<std::uint16_t> dist;
    std::vector<std::uint64_t> sm1;
    std::vector<std::uint64_t> s0;
    std::uint64_t visited = 0;
    for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
      const Vertex root = order[i];
      dist.assign(n, kUnreachable);
      sm1.assign(n, 0);
      s0.assign(n, 0);
      dist[root] = 0;
      ++visited;
      frontier.assign(1, root);
      std::uint16_t level = 0;
      bool seeded = false;
      while (!frontier.empty()) {
        peaks_[i] = std::max(peaks_[i], static_cast<std::uint64_t>(frontier.size()));
        // Pass 1 — same-level edges: dist(s, v) == dist(root, v) exactly
        // when a selected neighbor's S_{-1} mask crosses a level-parallel
        // edge.  Runs before expansion so S_0 of this level is complete
        // before it propagates to the next level.
        for (const Vertex u : frontier) {
          const std::uint64_t mask = sm1[u];
          if (mask == 0) continue;
          for (const Arc& a : g.arcs(u)) {
            if (dist[a.to] == level) s0[a.to] |= mask;
          }
        }
        // Pass 2 — expansion: discover the next level and push both masks
        // down tree/cross edges into it.
        for (const Vertex u : frontier) {
          const std::uint64_t sm1_u = sm1[u];
          const std::uint64_t s0_u = s0[u];
          for (const Arc& a : g.arcs(u)) {
            std::uint16_t& dv = dist[a.to];
            if (dv == kUnreachable) {
              dv = static_cast<std::uint16_t>(level + 1);
              ++visited;
              next.push_back(a.to);
            }
            if (dv == level + 1) {
              sm1[a.to] |= sm1_u;
              s0[a.to] |= s0_u;
            }
          }
        }
        if (!seeded) {
          // The 64-bit batch: the root's first <= 64 neighbors, seeded
          // after discovery (dist(s, s) == 0 == dist(root, s) - 1 puts
          // each s in its own S_{-1}).
          std::uint64_t bit = 1;
          for (const Arc& a : g.arcs(root)) {
            sm1[a.to] |= bit;
            if (bit == (1ULL << 63)) break;
            bit <<= 1;
          }
          seeded = true;
        }
        ++level;
        frontier.swap(next);
        next.clear();
      }
      for (std::size_t v = 0; v < n; ++v) {
        dist_[v * stride + i] = dist[v];
        sm1_[v * stride + i] = sm1[v];
        s0_[v * stride + i] = s0[v];
      }
    }
    c_visited.add(visited);
  });
}

Dist BitParallelRoots::estimate(Vertex u, Vertex v, std::size_t i) const {
  HUBLAB_ASSERT_RANGE(i, num_roots_);
  const std::uint16_t du = dist_row(u)[i];
  const std::uint16_t dv = dist_row(v)[i];
  if (du == kUnreachable || dv == kUnreachable) return kInfDist;
  Dist d = static_cast<Dist>(du) + static_cast<Dist>(dv);
  if ((sm1_row(u)[i] & sm1_row(v)[i]) != 0) {
    d -= 2;
  } else if (((sm1_row(u)[i] & s0_row(v)[i]) | (s0_row(u)[i] & sm1_row(v)[i])) != 0) {
    d -= 1;
  }
  return d;
}

Dist BitParallelRoots::estimate(Vertex u, Vertex v) const {
  Dist best = kInfDist;
  for (std::size_t i = 0; i < num_roots_; ++i) best = std::min(best, estimate(u, v, i));
  return best;
}

namespace {

/// True when every shortest-path distance of `g` is provably below
/// kInfDist32: a shortest path has at most n - 1 edges of at most
/// max_weight() each.  Unweighted graphs always qualify.
bool distances_fit_u32(const Graph& g) {
  const std::size_t n = g.num_vertices();
  const std::uint64_t w = g.max_weight();
  return n <= 1 || w == 0 || static_cast<std::uint64_t>(n - 1) <= (kInfDist32 - 1ULL) / w;
}

/// Internal label entry keyed by hub *rank* so that labels built in rank
/// order are automatically sorted and query merges need no lookup table.
/// `D` is the distance width the builder took for the graph: Dist32 when
/// distances_fit_u32() (8 bytes per entry), Dist otherwise (16 bytes).
template <typename D>
struct RankEntry {
  Vertex rank;
  D dist;
};

/// Per-vertex label storage of the builder.  A vertex's entries live in a
/// chain of blocks linked in append order, of capacity 4 or 8 doubling to
/// 64, so iteration walks O(log(label size)) blocks.  Blocks are carved
/// from fixed-size pages that are never reallocated: growing the arena
/// allocates a page and never moves an entry, and a block never straddles
/// two pages.
///
/// The vertices are split into contiguous ranges, one *shard* each.  A
/// shard owns the pages and blocks of its vertices' labels and their
/// slices of the head and tail arrays, so shards can be written
/// concurrently.  A block reference carries its shard in the low bits.
/// A one-shard arena allocates pages as pushes need them; a sharded one
/// only in reserve(), on the calling thread, after count() and plan() have
/// sized each shard's next writes (a page allocated in a pool worker would
/// return to that worker's malloc arena when freed).
template <typename D>
class LabelArena {
 public:
  using Entry = RankEntry<D>;
  static constexpr std::uint32_t kNoBlock = 0xFFFFFFFFu;

  /// A resumable scan position (see cursor()/scan_from()).
  struct Cursor {
    std::uint32_t block = kNoBlock;
    std::uint32_t offset = 0;
  };

  /// `g` supplies degree hints: vertices above twice the average degree
  /// rank early under the degree heuristic and keep short labels, so they
  /// start with a smaller first block.
  LabelArena(const Graph& g, std::size_t shards)
      : g_(g),
        big_degree_(2.0 * g.average_degree()),
        head_(g.num_vertices(), kNoBlock),
        tail_(head_) {
    const std::size_t n = g.num_vertices();
    const std::vector<par::ChunkRange> ranges = par::static_chunks(0, n, std::max<std::size_t>(shards, 1));
    shards_.resize(std::max<std::size_t>(ranges.size(), 1));
    while ((std::size_t{1} << shard_bits_) < shards_.size()) ++shard_bits_;
    // About 8 entries per vertex of a shard, between 1 Ki and 64 Ki.
    page_shift_ = std::clamp<unsigned>(
        static_cast<unsigned>(std::bit_width(n / shards_.size())) + 3, 10, 16);
    for (std::size_t s = 0; s < ranges.size(); ++s) {
      Shard& sh = shards_[s];
      sh.begin = static_cast<Vertex>(ranges[s].begin);
      sh.end = static_cast<Vertex>(ranges[s].end);
      const std::size_t size = sh.end - sh.begin;
      sh.blocks.reserve(size + size / 2);
      if (shards_.size() > 1) {
        sh.pending.assign(size, 0);
        sh.touched.reserve(size);
      }
    }
  }

  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }

  /// The vertex range [first, second) that shard `s` owns.
  [[nodiscard]] std::pair<Vertex, Vertex> range(std::size_t s) const {
    return {shards_[s].begin, shards_[s].end};
  }

  /// Append e to v's label; v must belong to shard s.
  void push(std::size_t s, Vertex v, Entry e) {
    Shard& sh = shards_[s];
    const std::uint32_t tail = tail_[v];
    Block* b = tail == kNoBlock ? nullptr : &sh.blocks[tail >> shard_bits_];
    if (b == nullptr || b->count == b->capacity) b = &grow(s, v, b);
    sh.pages[b->first >> page_shift_][(b->first & page_mask()) + b->count] = e;
    ++b->count;
    ++sh.entries;
    sh.max_dist = std::max(sh.max_dist, e.dist);
  }

  /// Note one push that shard s will make to v (first half of a sharded
  /// write; see plan()).
  void count(std::size_t s, Vertex v) {
    Shard& sh = shards_[s];
    if (sh.pending[v - sh.begin]++ == 0) sh.touched.push_back(v);
  }

  /// Turn shard s's counts into the slots and blocks its pushes will take,
  /// and clear the counts.  Runs on the executor writing shard s.
  void plan(std::size_t s) {
    Shard& sh = shards_[s];
    std::size_t slots = 0;
    std::size_t blocks = 0;
    for (const Vertex v : sh.touched) {
      std::uint32_t k = std::exchange(sh.pending[v - sh.begin], 0);
      std::uint32_t cap = 0;
      std::uint32_t room = 0;
      if (tail_[v] != kNoBlock) {
        const Block& b = sh.blocks[tail_[v] >> shard_bits_];
        cap = b.capacity;
        room = b.capacity - b.count;
      }
      while (k > room) {
        k -= room;
        cap = cap == 0 ? first_capacity(v) : std::min(2 * cap, kMaxBlockCap);
        room = cap;
        slots += cap;
        ++blocks;
      }
    }
    sh.touched.clear();
    sh.planned_slots = slots;
    sh.planned_blocks = blocks;
  }

  /// Allocate, on the calling thread, the pages and block records every
  /// shard's plan() asked for, so the pushes that follow never allocate.
  /// A page places at least (page size - kMaxBlockCap) slots of blocks
  /// before the next block no longer fits, which bounds the pages needed.
  void reserve() {
    const std::size_t page = page_mask() + 1;
    for (Shard& sh : shards_) {
      const std::size_t current = sh.used >> page_shift_;
      std::size_t fits = 0;
      if (current < sh.pages.size()) {
        const std::size_t room = page - (sh.used & page_mask());
        fits = (room > kMaxBlockCap ? room - kMaxBlockCap : 0) +
               (sh.pages.size() - current - 1) * (page - kMaxBlockCap);
      }
      for (; fits < sh.planned_slots; fits += page - kMaxBlockCap) sh.pages.push_back(new_page());
      const std::size_t blocks = sh.blocks.size() + sh.planned_blocks;
      if (blocks > sh.blocks.capacity()) {
        sh.blocks.reserve(std::max(blocks, 2 * sh.blocks.capacity()));
      }
    }
  }

  /// Largest distance pushed so far (0 for an empty arena).
  [[nodiscard]] Dist max_dist() const {
    D best = 0;
    for (const Shard& sh : shards_) best = std::max(best, sh.max_dist);
    return best;
  }

  /// Entries pushed so far.
  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& sh : shards_) total += sh.entries;
    return total;
  }

  [[nodiscard]] std::size_t size(Vertex v) const {
    std::size_t total = 0;
    for (std::uint32_t b = head_[v]; b != kNoBlock;) {
      const Block& blk = block(b);
      total += blk.count;
      b = blk.next;
    }
    return total;
  }

  [[nodiscard]] std::size_t num_pages() const {
    std::size_t total = 0;
    for (const Shard& sh : shards_) total += sh.pages.size();
    return total;
  }

  /// Heap bytes: pages, block records, heads and tails, and the sharded
  /// write's per-vertex plan buffers.  The arena never shrinks, so at the
  /// end of a build this is its peak.
  [[nodiscard]] std::size_t memory_bytes() const {
    std::size_t bytes = (head_.capacity() + tail_.capacity()) * sizeof(std::uint32_t);
    for (const Shard& sh : shards_) {
      bytes += sh.pages.size() * (page_mask() + 1) * sizeof(Entry) +
               sh.pages.capacity() * sizeof(sh.pages[0]) + sh.blocks.capacity() * sizeof(Block) +
               sh.pending.capacity() * sizeof(std::uint32_t) +
               sh.touched.capacity() * sizeof(Vertex);
    }
    return bytes;
  }

  /// Current end of v's label; scan_from() started here visits exactly the
  /// entries pushed after this call.
  [[nodiscard]] Cursor cursor(Vertex v) const {
    const std::uint32_t tail = tail_[v];
    if (tail == kNoBlock) return Cursor{};
    return Cursor{tail, block(tail).count};
  }

  template <typename Fn>
  void for_each(Vertex v, Fn&& fn) const {
    static_cast<void>(scan_from(v, Cursor{}, [&](const Entry& e) {
      fn(e);
      return false;
    }));
  }

  /// Visit entries from `c` (a cursor taken for v, or a default cursor for
  /// the whole label) until `fn` returns true; returns whether it did.
  /// The page is resolved once per block.
  template <typename Fn>
  [[nodiscard]] bool scan_from(Vertex v, Cursor c, Fn&& fn) const {
    std::uint32_t b = c.block == kNoBlock ? head_[v] : c.block;
    std::uint32_t offset = c.block == kNoBlock ? 0 : c.offset;
    if (b == kNoBlock) return false;
    const Shard& sh = shards_[b & shard_mask()];
    for (; b != kNoBlock; offset = 0) {
      const Block& blk = sh.blocks[b >> shard_bits_];
      const Entry* entries = sh.pages[blk.first >> page_shift_].get() + (blk.first & page_mask());
      for (std::uint32_t i = offset; i < blk.count; ++i) {
        if (fn(entries[i])) return true;
      }
      b = blk.next;
    }
    return false;
  }

 private:
  struct Block {
    std::uint32_t first;  ///< shard slot of the first entry: page << page_shift_ | offset
    std::uint32_t next;   ///< reference of the next block, kNoBlock at the chain tail
    std::uint16_t count;
    std::uint16_t capacity;
  };

  /// Cache-line aligned: executors update their shards' counters side by
  /// side.
  struct alignas(64) Shard {
    Vertex begin = 0;  ///< owned vertex range [begin, end)
    Vertex end = 0;
    std::vector<std::unique_ptr<Entry[]>> pages;
    std::vector<Block> blocks;
    std::size_t used = 0;  ///< slots handed out to blocks, page padding included
    std::size_t entries = 0;
    D max_dist = 0;
    std::vector<std::uint32_t> pending;  ///< counted pushes per owned vertex
    std::vector<Vertex> touched;         ///< owned vertices with pending pushes
    std::size_t planned_slots = 0;
    std::size_t planned_blocks = 0;
  };

  static constexpr std::uint32_t kMaxBlockCap = 64;

  [[nodiscard]] std::size_t page_mask() const { return (std::size_t{1} << page_shift_) - 1; }
  [[nodiscard]] std::uint32_t shard_mask() const { return (1U << shard_bits_) - 1; }

  [[nodiscard]] const Block& block(std::uint32_t ref) const {
    return shards_[ref & shard_mask()].blocks[ref >> shard_bits_];
  }

  [[nodiscard]] std::uint32_t first_capacity(Vertex v) const {
    return static_cast<double>(g_.degree(v)) >= big_degree_ ? 4 : 8;
  }

  [[nodiscard]] std::unique_ptr<Entry[]> new_page() const {
    return std::make_unique_for_overwrite<Entry[]>(page_mask() + 1);
  }

  /// Open a new tail block for v in shard s, after `tail` (null for an
  /// empty label).
  Block& grow(std::size_t s, Vertex v, Block* tail) {
    Shard& sh = shards_[s];
    const std::uint32_t cap =
        tail == nullptr ? first_capacity(v) : std::min<std::uint32_t>(tail->capacity * 2, kMaxBlockCap);
    if ((sh.used & page_mask()) + cap > page_mask() + 1) sh.used = (sh.used | page_mask()) + 1;
    if ((sh.used >> page_shift_) == sh.pages.size()) {
      HUBLAB_ASSERT_MSG(shards_.size() == 1, "a sharded arena allocates pages only in reserve()");
      sh.pages.push_back(new_page());
    }
    HUBLAB_ASSERT_MSG(shards_.size() == 1 || sh.blocks.size() < sh.blocks.capacity(),
                      "a sharded arena grows its block records only in reserve()");
    HUBLAB_ASSERT_MSG(sh.used + cap <= kNoBlock && sh.blocks.size() < (kNoBlock >> shard_bits_),
                      "label arena shard exceeds 32-bit addressing");
    const auto ref = static_cast<std::uint32_t>(sh.blocks.size() << shard_bits_ | s);
    if (tail == nullptr) {
      head_[v] = ref;
    } else {
      tail->next = ref;  // before push_back, which may move the records
    }
    tail_[v] = ref;
    sh.blocks.push_back(Block{static_cast<std::uint32_t>(sh.used), kNoBlock, 0,
                              static_cast<std::uint16_t>(cap)});
    sh.used += cap;
    return sh.blocks.back();
  }

  const Graph& g_;
  double big_degree_;
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> tail_;
  std::vector<Shard> shards_;
  unsigned shard_bits_ = 0;
  unsigned page_shift_ = 10;
};

/// Cover-test outcomes, kept apart so the per-kind prune counters can be
/// reported.
enum class Prune : std::uint8_t { kNone = 0, kBpDist, kBpMask, kLabel };

/// A vertex a root's pruned search reached without pruning, at its exact
/// distance from the root: a label entry of that root unless the clean
/// step finds an earlier root of the same batch on a shortest path.
struct Candidate {
  Vertex v;
  Dist dist;
};

/// One root's search result within a batch.  Each root owns its slot, so
/// the searches and the clean step write disjoint memory, and the commit
/// reads the slots in rank order whatever executor filled them.
struct RootSlot {
  /// Empty the slot for a new root, keeping at least `capacity` entries.
  void reset(std::size_t capacity) {
    candidates.clear();
    candidates.reserve(capacity);
    visited = pruned = bp_dist_prunes = bp_mask_prunes = peak_frontier = cleaned = 0;
  }

  std::vector<Candidate> candidates;
  std::uint64_t visited = 0;
  std::uint64_t pruned = 0;
  std::uint64_t bp_dist_prunes = 0;
  std::uint64_t bp_mask_prunes = 0;
  std::uint64_t peak_frontier = 0;
  std::uint64_t cleaned = 0;
};

/// Per-executor search state, reused across the roots that executor runs.
struct SearchScratch {
  explicit SearchScratch(std::size_t n) : dist(n, kInfDist), root_dist(n, kInfDist) {}

  std::vector<Dist> dist;       ///< tentative distances of the current search
  std::vector<Dist> root_dist;  ///< rank-indexed distances of the current root
  std::vector<std::uint32_t> bp_root_dist;  ///< current root's table column
  std::vector<std::uint64_t> bp_root_sm1;   ///< current root's S_{-1} column
  std::vector<Vertex> frontier;
  std::vector<Vertex> next;
  std::vector<Vertex> touched;
  std::vector<std::pair<Dist, Vertex>> heap;
};

/// A batch candidate as the clean step looks it up by vertex: the root's
/// position within the batch and the distance.
struct BatchEntry {
  std::uint32_t slot;
  Dist dist;
};

/// The builder over an arena of `D` distances (see RankEntry).
template <typename D>
class PllBuilder {
 public:
  PllBuilder(const Graph& g, const std::vector<Vertex>& order, const PllConfig& config)
      : g_(g),
        order_(order),
        threads_(par::resolve_threads(config.threads)),
        batched_(threads_ > 1 && !par::in_parallel_region()),
        bp_(g, order, config.bp_roots, threads_),
        arena_(g, batched_ ? threads_ : 1) {
    HUBLAB_ASSERT_MSG(order.size() == g.num_vertices(), "order must be a permutation");
    // Ranks are stored as 32-bit values next to the kInvalidVertex
    // sentinel, and the rank loop compares a size_t bound, so the vertex
    // count must stay strictly below the Vertex maximum.
    HUBLAB_ASSERT_MSG(g.num_vertices() < static_cast<std::size_t>(kInvalidVertex),
                      "graph too large: vertex count must stay below kInvalidVertex");
    metrics::Registry& reg = metrics::registry();
    reg.gauge("pll.bp_roots").set(static_cast<std::int64_t>(bp_.num_roots()));
    reg.gauge("pll.bp_table_bytes").set(static_cast<std::int64_t>(bp_.memory_bytes()));
    reg.gauge("pll.arena_entry_bytes").set(static_cast<std::int64_t>(sizeof(Entry)));
  }

  HubLabeling run() {
    build_labels();
    // Rank-keyed arena entries to hub-sorted public rows.  The rows are
    // allocated here, on the calling thread (a row allocated in a pool
    // worker would return to that worker's malloc arena when freed); the
    // pool only fills and sorts them, and rows are disjoint.  Sorted rows
    // take finalize()'s no-sort path.
    const std::size_t n = g_.num_vertices();
    const std::vector<std::size_t> sizes = record_label_sizes();
    std::vector<std::vector<HubEntry>> labels(n);
    for (Vertex v = 0; v < n; ++v) labels[v].resize(sizes[v]);
    par::parallel_for(0, n, threads_, [&](const par::ChunkRange& chunk) {
      for (std::size_t v = chunk.begin; v < chunk.end; ++v) {
        fill_sorted_row(static_cast<Vertex>(v), labels[v].data());
      }
    });
    HubLabeling out(std::move(labels));
    out.finalize();
    return out;
  }

  FlatHubLabeling run_flat() {
    build_labels();
    // The distance column's width is fixed here, before any row is
    // written, so no u64 column of the full size exists when every
    // distance fits the narrow one.
    if (arena_.max_dist() < kInfDist32) return flatten<Dist32>(kInfDist32);
    return flatten<Dist>(kInfDist);
  }

 private:
  using Entry = RankEntry<D>;
  using Arena = LabelArena<D>;

  /// Largest batch of roots searched against the same arena state.
  static constexpr std::size_t kMaxBatch = 64;

  /// Straight into the SoA layout with a `Column` distance column: row offsets
  /// from a prefix sum of the label sizes (plus one sentinel per row), then
  /// each row mapped to hub ids, hub-sorted and written on the pool.
  /// Matches FlatHubLabeling(HubLabeling) on the finalized labeling bit for
  /// bit.
  template <typename Column>
  FlatHubLabeling flatten(Column inf) const {
    const std::size_t n = g_.num_vertices();
    const std::vector<std::size_t> sizes = record_label_sizes();
    std::vector<std::size_t> offsets(n + 1, 0);
    for (Vertex v = 0; v < n; ++v) offsets[v + 1] = offsets[v] + sizes[v] + 1;
    std::vector<Vertex> hubs(offsets[n]);
    std::vector<Column> dists(offsets[n]);
    par::parallel_for(0, n, threads_, [&](const par::ChunkRange& chunk) {
      std::vector<HubEntry> row;
      for (std::size_t v = chunk.begin; v < chunk.end; ++v) {
        row.resize(sizes[v]);
        fill_sorted_row(static_cast<Vertex>(v), row.data());
        std::size_t at = offsets[v];
        for (const HubEntry& e : row) {
          hubs[at] = e.hub;
          dists[at] = static_cast<Column>(e.dist);
          ++at;
        }
        hubs[at] = kInvalidVertex;
        dists[at] = inf;
      }
    });
    return FlatHubLabeling(n, std::move(offsets), std::move(hubs), std::move(dists));
  }

  /// Per-vertex label sizes, recorded into the pll.label_size histogram.
  [[nodiscard]] std::vector<std::size_t> record_label_sizes() const {
    const std::size_t n = g_.num_vertices();
    metrics::Histogram& hist = metrics::registry().histogram("pll.label_size");
    std::vector<std::size_t> sizes(n);
    for (Vertex v = 0; v < n; ++v) {
      sizes[v] = arena_.size(v);
      hist.record(sizes[v]);
    }
    return sizes;
  }

  /// Write v's label into row[0, size(v)) as hub ids, sorted by hub (ranks
  /// are unique, so a row has no duplicate hubs).
  void fill_sorted_row(Vertex v, HubEntry* row) const {
    std::size_t i = 0;
    arena_.for_each(v, [&](const Entry& e) { row[i++] = HubEntry{order_[e.rank], e.dist}; });
    std::sort(row, row + i, [](const HubEntry& a, const HubEntry& b) { return a.hub < b.hub; });
  }

  /// The pruned searches, as one loop over root batches [s, e): search
  /// every root of the batch against the arena as it stands (ranks < s),
  /// clean the candidates only ranks in [s, e) could cover, commit the
  /// survivors shard by shard, each vertex's in rank order
  /// (docs/performance.md, "Parallel root batches").  A batch of one root is the classic sequential builder;
  /// batches grow only when they can run concurrently.
  void build_labels() {
    const std::size_t n = g_.num_vertices();
    const std::size_t num_ranks = order_.size();
    std::size_t s = 0;
    if (bp_.active()) {
      synthesize_table_ranks();
      for (std::size_t i = 0; i < bp_.num_roots(); ++i) {
        frontier_sizes_.record(bp_.peak_frontier(i));
      }
      snapshot_cursors();
      s = bp_.num_roots();
    }
    const bool batched = batched_;
    // The batch buffers are allocated and reserved here, on the calling
    // thread, and reused across batches: a buffer grown in a pool worker
    // would stay in that worker's malloc arena after it is freed.
    std::vector<SearchScratch> scratch;
    const std::size_t executors = batched ? threads_ : 1;
    scratch.reserve(executors);
    for (std::size_t i = 0; i < executors; ++i) scratch.emplace_back(n);
    slots_.resize(batched ? kMaxBatch : 1);
    if (batched) {
      csr_count_.assign(n, 0);
      csr_start_.resize(n);
    }
    std::size_t batch = 1;
    std::uint64_t per_root = n;  // candidates per root of the previous batch
    while (s < num_ranks) {
      const std::size_t e = std::min(num_ranks, s + batch);
      for (std::size_t j = 0; j < e - s; ++j) {
        slots_[j].reset(std::min<std::uint64_t>(n, 2 * per_root + 16));
      }
      search_batch(s, e, scratch);
      std::uint64_t candidates = 0;
      for (std::size_t j = 0; j < e - s; ++j) candidates += slots_[j].candidates.size();
      if (e - s > 1) clean_batch(s, e);
      commit_batch(s, e);
      // The schedule depends on n and on the work of the previous batch,
      // never on the thread count, so every count >= 2 searches the same
      // batches.  About 2n candidates per batch bounds the slot memory:
      // large early searches get small batches, short late ones large.
      per_root = std::max<std::uint64_t>(1, candidates / (e - s));
      if (batched) batch = std::clamp<std::uint64_t>(2 * n / per_root, 1, kMaxBatch);
      s = e;
    }
    slots_ = {};
    csr_count_ = {};
    csr_start_ = {};
    csr_entries_ = {};
    csr_touched_ = {};
    metrics::Registry& reg = metrics::registry();
    reg.sketch("pll.frontier_size").merge(frontier_sizes_);
    reg.counter("pll.visited").add(c_visited_);
    reg.counter("pll.pruned").add(c_pruned_);
    reg.counter("pll.label_pushes").add(arena_.size());
    reg.counter("pll.bp_dist_prunes").add(c_bp_dist_prunes_);
    reg.counter("pll.bp_mask_prunes").add(c_bp_mask_prunes_);
    if (batched) reg.counter("pll.cleaned").add(c_cleaned_);
    reg.gauge("pll.arena_bytes").set(static_cast<std::int64_t>(arena_.memory_bytes()));
    reg.gauge("pll.arena_pages").set(static_cast<std::int64_t>(arena_.num_pages()));
  }

  /// Every arena write goes through here.  `walk(shard, emit)` must call
  /// emit(v, entry) for the entries of the shard's vertices, each vertex's
  /// in rank order.  One shard pushes straight away; with several, every
  /// shard walks twice on the pool — once counting, then, after the
  /// calling thread allocated the pages the counts need, pushing — so the
  /// shards write in parallel and no pool worker allocates.
  template <typename Walk>
  void write_arena(const Walk& walk) {
    const std::size_t shards = arena_.num_shards();
    if (shards == 1) {
      walk(0, [&](Vertex v, const Entry& e) { arena_.push(0, v, e); });
      return;
    }
    const std::vector<par::ChunkRange> chunks = par::static_chunks(0, shards, shards);
    par::run_chunks(chunks, shards, [&](const par::ChunkRange& c) {
      walk(c.index, [&](Vertex v, const Entry&) { arena_.count(c.index, v); });
      arena_.plan(c.index);
    });
    arena_.reserve();
    par::run_chunks(chunks, shards, [&](const par::ChunkRange& c) {
      walk(c.index, [&](Vertex v, const Entry& e) { arena_.push(c.index, v, e); });
    });
  }

  /// Emit the labels of every table rank without running a pruned search.
  /// The scalar builder produces exactly the *canonical* labeling: rank k
  /// labels u iff no i < k has d(r_i, u) + d(r_i, r_k) <= d(r_k, u) (a
  /// pruned BFS reaches u at d(r_k, u) precisely when the pair is not
  /// already covered — see docs/performance.md for the argument).  For
  /// k < bp_.num_roots() every distance in that test sits in the tables,
  /// so the entries are computed directly: the k most expensive pruned
  /// searches (the early ranks prune the least) collapse into a rank-major
  /// scan of the distance rows, vertex-major within each shard; every
  /// vertex tests its ranks in ascending order, so its arena entries are
  /// sorted by rank, exactly as the searches would have left them.
  void synthesize_table_ranks() {
    const std::size_t num_roots = bp_.num_roots();
    // root_root[k * num_roots + i] = d(r_i, r_k), gathered once so the
    // inner loop touches two contiguous rows.
    std::vector<std::uint32_t> root_root(num_roots * num_roots);
    for (std::size_t k = 0; k < num_roots; ++k) {
      const std::uint16_t* row = bp_.dist_row(order_[k]);
      for (std::size_t i = 0; i < num_roots; ++i) root_root[k * num_roots + i] = row[i];
    }
    write_arena([&](std::size_t shard, const auto& emit) {
      const auto [begin, end] = arena_.range(shard);
      for (Vertex v = begin; v < end; ++v) {
        const std::uint16_t* row = bp_.dist_row(v);
        for (std::size_t k = 0; k < num_roots; ++k) {
          const std::uint32_t d = row[k];
          // Unreachable pairs get no entry; unreachable candidates below
          // never cover (kUnreachable summands keep t > d).
          if (d == BitParallelRoots::kUnreachable) continue;
          const std::uint32_t* to_root = root_root.data() + k * num_roots;
          bool covered = false;
          for (std::size_t i = 0; i < k; ++i) {
            if (row[i] + to_root[i] <= d) {
              covered = true;
              break;
            }
          }
          if (!covered) emit(v, Entry{static_cast<Vertex>(k), static_cast<D>(d)});
        }
      }
    });
  }

  /// Record, per vertex, where entries of rank >= bp_.num_roots() will
  /// start: the bit-parallel tables subsume every lower rank, so later
  /// prune scans resume from here instead of rescanning the dense prefix
  /// the highest-ranked hubs put into almost every label.
  void snapshot_cursors() {
    const std::size_t n = g_.num_vertices();
    cursors_.resize(n);
    for (Vertex v = 0; v < n; ++v) cursors_[v] = arena_.cursor(v);
  }

  /// Run the pruned search of every root in [s, e), each into its own
  /// slot.  On the pool, executors take one root per atomic ticket; the
  /// arena is read-only until the commit, so each search sees ranks < s
  /// whichever executor runs it and whenever.
  void search_batch(std::size_t s, std::size_t e, std::vector<SearchScratch>& scratch) {
    const std::size_t roots = e - s;
    const auto search = [&](std::size_t j, SearchScratch& sc) {
      if (g_.is_weighted()) {
        pruned_dijkstra(s + j, sc, slots_[j]);
      } else {
        pruned_bfs(s + j, s, sc, slots_[j]);
      }
    };
    if (roots == 1) {
      search(0, scratch.front());
      return;
    }
    std::atomic<std::size_t> ticket{0};
    const std::size_t executors = std::min(scratch.size(), roots);
    par::run_chunks(par::static_chunks(0, executors, executors), executors,
                    [&](const par::ChunkRange& chunk) {
                      SearchScratch& sc = scratch[chunk.index];
                      for (;;) {
                        const std::size_t j = ticket.fetch_add(1, std::memory_order_relaxed);
                        if (j >= roots) break;
                        search(j, sc);
                      }
                    });
  }

  /// Drop candidate (u, r_k, d) exactly when some root r_i of the batch
  /// with i < k has candidates (u, a) and (r_k, b) with a + b <= d: the
  /// canonical cover test, restricted to the ranks the searches could not
  /// see.  The candidates are grouped by vertex first (a CSR over the
  /// vertices the batch touched, each group in rank order); the test is
  /// then read-only and runs on the pool, one root per ticket.
  void clean_batch(std::size_t s, std::size_t e) {
    const std::size_t roots = e - s;
    csr_touched_.clear();
    for (std::size_t j = 0; j < roots; ++j) {
      for (const Candidate& c : slots_[j].candidates) {
        if (csr_count_[c.v]++ == 0) csr_touched_.push_back(c.v);
      }
    }
    std::size_t total = 0;
    for (const Vertex u : csr_touched_) {
      csr_start_[u] = total;
      total += csr_count_[u];
      csr_count_[u] = 0;
    }
    csr_entries_.resize(total);
    for (std::size_t j = 0; j < roots; ++j) {
      for (const Candidate& c : slots_[j].candidates) {
        csr_entries_[csr_start_[c.v] + csr_count_[c.v]++] =
            BatchEntry{static_cast<std::uint32_t>(j), c.dist};
      }
    }
    // The first root of a batch has nothing to clean.
    par::run_chunks(par::static_chunks(1, roots, roots - 1), threads_,
                    [&](const par::ChunkRange& chunk) { clean_root(s, chunk.begin); });
    for (const Vertex u : csr_touched_) csr_count_[u] = 0;
  }

  void clean_root(std::size_t s, std::size_t j) {
    RootSlot& slot = slots_[j];
    const Vertex root = order_[s + j];
    // The root reaches itself, so its group is never empty.
    const std::size_t root_begin = csr_start_[root];
    const std::size_t root_end = root_begin + csr_count_[root];
    std::size_t kept = 0;
    for (const Candidate& c : slot.candidates) {
      // Both groups are in slot order; merge them over slots below j.
      bool covered = false;
      std::size_t a = csr_start_[c.v];
      const std::size_t a_end = a + csr_count_[c.v];
      std::size_t b = root_begin;
      while (a < a_end && b < root_end && csr_entries_[a].slot < j && csr_entries_[b].slot < j) {
        const BatchEntry& ea = csr_entries_[a];
        const BatchEntry& eb = csr_entries_[b];
        if (ea.slot < eb.slot) {
          ++a;
        } else if (ea.slot > eb.slot) {
          ++b;
        } else {
          if (ea.dist + eb.dist <= c.dist) {
            covered = true;
            break;
          }
          ++a;
          ++b;
        }
      }
      if (covered) {
        ++slot.cleaned;
      } else {
        slot.candidates[kept++] = c;
      }
    }
    slot.candidates.resize(kept);
  }

  /// Push the survivors of [s, e) into the arena, one shard per executor:
  /// each walks the slots in rank order and pushes its own vertices'
  /// survivors, so every vertex's entries stay sorted by rank.  The
  /// per-root counters fold here, on the calling thread, in rank order.
  void commit_batch(std::size_t s, std::size_t e) {
    write_arena([&](std::size_t shard, const auto& emit) {
      const auto [begin, end] = arena_.range(shard);
      for (std::size_t j = 0; j < e - s; ++j) {
        const auto rank = static_cast<Vertex>(s + j);
        for (const Candidate& c : slots_[j].candidates) {
          if (c.v >= begin && c.v < end) emit(c.v, Entry{rank, static_cast<D>(c.dist)});
        }
      }
    });
    for (std::size_t j = 0; j < e - s; ++j) {
      const RootSlot& slot = slots_[j];
      c_visited_ += slot.visited;
      c_pruned_ += slot.pruned;
      c_bp_dist_prunes_ += slot.bp_dist_prunes;
      c_bp_mask_prunes_ += slot.bp_mask_prunes;
      c_cleaned_ += slot.cleaned;
      frontier_sizes_.record(slot.peak_frontier);
    }
  }

  /// Covered test for u at candidate distance d from the current root:
  /// true exactly when some hub already in the arena answers (u, root)
  /// within d.  Consults the bit-parallel tables first; `scan_labels`
  /// callers guarantee sc.root_dist holds the root's label (ranks >=
  /// bp_.num_roots() suffice — lower ranks are the tables' job).
  [[nodiscard]] Prune covered_by(Vertex u, Dist d, const SearchScratch& sc,
                                 bool scan_labels) const {
    const std::size_t bp_limit = sc.bp_root_dist.size();
    if (bp_limit > 0) {
      // Branchless minimum over the table columns: unreachable rows hold
      // kUnreachable, so their sums stay above any finite candidate and
      // need no special case.  The loop vectorizes, which beats an early
      // exit even when the first root would have pruned.
      const std::uint16_t* du = bp_.dist_row(u);
      std::uint32_t best = 0xFFFFFFFFu;
      for (std::size_t i = 0; i < bp_limit; ++i) {
        best = std::min(best, du[i] + sc.bp_root_dist[i]);
      }
      // best is the exact distance through the best table root — the same
      // candidate the scalar pruning minimum contains.
      if (best <= d) return Prune::kBpDist;
      if (best == d + 1) {
        // Mask shortcut: an S_{-1} intersection certifies a path of
        // length best - 2 through a shared neighbor.  That neighbor is
        // not a pruning candidate itself, but best - 2 < d proves the
        // true distance is below the BFS level, and any vertex reached
        // above its true distance is covered by an earlier hub (see
        // docs/performance.md), so the scalar builder prunes here too.
        const std::uint64_t* mu = bp_.sm1_row(u);
        for (std::size_t i = 0; i < bp_limit; ++i) {
          if (du[i] + sc.bp_root_dist[i] == best && (mu[i] & sc.bp_root_sm1[i]) != 0) {
            return Prune::kBpMask;
          }
        }
      }
    }
    if (scan_labels) {
      const typename Arena::Cursor from = cursors_.empty() ? typename Arena::Cursor{} : cursors_[u];
      const bool hit = arena_.scan_from(u, from, [&](const Entry& e) {
        const Dist rd = sc.root_dist[e.rank];
        return rd != kInfDist && Dist{e.dist} + rd <= d;
      });
      if (hit) return Prune::kLabel;
    }
    return Prune::kNone;
  }

  static void count_prune(Prune kind, RootSlot& slot) {
    ++slot.pruned;
    if (kind == Prune::kBpDist) {
      ++slot.bp_dist_prunes;
    } else if (kind == Prune::kBpMask) {
      ++slot.bp_mask_prunes;
    }
  }

  void scatter_root_label(Vertex root, std::size_t min_rank, std::vector<Dist>& root_dist) const {
    arena_.for_each(root, [&](const Entry& e) {
      if (e.rank >= min_rank) root_dist[e.rank] = e.dist;
    });
  }

  void clear_root_label(Vertex root, std::size_t min_rank, std::vector<Dist>& root_dist) const {
    arena_.for_each(root, [&](const Entry& e) {
      if (e.rank >= min_rank) root_dist[e.rank] = kInfDist;
    });
  }

  /// Pruned BFS from rank k against the arena's ranks < s.
  void pruned_bfs(std::size_t k, std::size_t s, SearchScratch& sc, RootSlot& slot) const {
    const Vertex root = order_[k];
    const std::size_t num_roots = bp_.num_roots();
    // Ranks below num_roots are answered exactly by the tables; label
    // scans (and the root_dist scatter feeding them) only matter once the
    // arena holds ranks beyond the tables.
    const bool scan_labels = s > num_roots;
    if (scan_labels) scatter_root_label(root, num_roots, sc.root_dist);
    const std::uint16_t* rd = bp_.dist_row(root);
    const std::uint64_t* rm = bp_.sm1_row(root);
    sc.bp_root_dist.assign(rd, rd + num_roots);
    sc.bp_root_sm1.assign(rm, rm + num_roots);
    sc.frontier.assign(1, root);
    sc.touched.assign(1, root);
    sc.dist[root] = 0;
    Dist level = 0;
    while (!sc.frontier.empty()) {
      slot.peak_frontier = std::max(slot.peak_frontier, static_cast<std::uint64_t>(sc.frontier.size()));
      for (const Vertex u : sc.frontier) {
        ++slot.visited;
        const Prune kind = covered_by(u, level, sc, scan_labels);
        if (kind != Prune::kNone) {
          count_prune(kind, slot);
          continue;
        }
        slot.candidates.push_back(Candidate{u, level});
        for (const Arc& a : g_.arcs(u)) {
          if (sc.dist[a.to] == kInfDist) {
            sc.dist[a.to] = level + 1;
            sc.touched.push_back(a.to);
            sc.next.push_back(a.to);
          }
        }
      }
      ++level;
      sc.frontier.swap(sc.next);
      sc.next.clear();
    }
    for (const Vertex v : sc.touched) sc.dist[v] = kInfDist;
    if (scan_labels) clear_root_label(root, num_roots, sc.root_dist);
  }

  /// Pruned Dijkstra from rank k against the arena as it stands.
  void pruned_dijkstra(std::size_t k, SearchScratch& sc, RootSlot& slot) const {
    const Vertex root = order_[k];
    scatter_root_label(root, 0, sc.root_dist);
    using Item = std::pair<Dist, Vertex>;
    // push_heap / pop_heap over a reused buffer are exactly what
    // priority_queue runs underneath.
    sc.heap.clear();
    sc.touched.assign(1, root);
    sc.dist[root] = 0;
    sc.heap.emplace_back(0, root);
    const auto cmp = [](const Item& a, const Item& b) { return a > b; };
    while (!sc.heap.empty()) {
      slot.peak_frontier = std::max(slot.peak_frontier, static_cast<std::uint64_t>(sc.heap.size()));
      const auto [d, u] = sc.heap.front();
      std::pop_heap(sc.heap.begin(), sc.heap.end(), cmp);
      sc.heap.pop_back();
      if (d != sc.dist[u]) continue;
      ++slot.visited;
      const Prune kind = covered_by(u, d, sc, true);
      if (kind != Prune::kNone) {
        count_prune(kind, slot);
        continue;
      }
      slot.candidates.push_back(Candidate{u, d});
      for (const Arc& a : g_.arcs(u)) {
        const Dist nd = d + a.weight;
        if (nd < sc.dist[a.to]) {
          if (sc.dist[a.to] == kInfDist) sc.touched.push_back(a.to);
          sc.dist[a.to] = nd;
          sc.heap.emplace_back(nd, a.to);
          std::push_heap(sc.heap.begin(), sc.heap.end(), cmp);
        }
      }
    }
    for (const Vertex v : sc.touched) sc.dist[v] = kInfDist;
    clear_root_label(root, 0, sc.root_dist);
  }

  const Graph& g_;
  const std::vector<Vertex>& order_;
  std::size_t threads_;
  bool batched_;  ///< parallel root batches and a sharded arena
  BitParallelRoots bp_;
  Arena arena_;
  std::vector<typename Arena::Cursor> cursors_;  ///< per-vertex scan start (rank >= bp roots)
  std::vector<RootSlot> slots_;              ///< one per root of the current batch
  std::vector<std::uint32_t> csr_count_;     ///< batch candidates per vertex
  std::vector<std::size_t> csr_start_;       ///< group start in csr_entries_
  std::vector<BatchEntry> csr_entries_;      ///< batch candidates grouped by vertex
  std::vector<Vertex> csr_touched_;          ///< vertices with a batch candidate
  QuantileSketch frontier_sizes_;  ///< peak frontier / heap size per root
  std::uint64_t c_visited_ = 0;
  std::uint64_t c_pruned_ = 0;
  std::uint64_t c_bp_dist_prunes_ = 0;
  std::uint64_t c_bp_mask_prunes_ = 0;
  std::uint64_t c_cleaned_ = 0;
};

}  // namespace

HubLabeling pruned_landmark_labeling(const Graph& g, const std::vector<Vertex>& order,
                                     const PllConfig& config) {
  if (distances_fit_u32(g)) return PllBuilder<Dist32>(g, order, config).run();
  return PllBuilder<Dist>(g, order, config).run();
}

HubLabeling pruned_landmark_labeling(const Graph& g, VertexOrder order, std::uint64_t seed,
                                     const PllConfig& config) {
  return pruned_landmark_labeling(g, make_vertex_order(g, order, seed), config);
}

FlatHubLabeling pruned_landmark_labeling_flat(const Graph& g, const std::vector<Vertex>& order,
                                              const PllConfig& config) {
  if (distances_fit_u32(g)) return PllBuilder<Dist32>(g, order, config).run_flat();
  return PllBuilder<Dist>(g, order, config).run_flat();
}

}  // namespace hublab
