#include "src/core/lower_bound.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/thread_pool.hpp"
#include "src/core/overlap.hpp"

namespace rtlb {

namespace {

/// Target number of (t1, t2) pairs per scan unit without pruning. Rows are
/// grouped into units by pair count (row l of an n-point block holds n-1-l
/// pairs) so the units are load-balanced.
constexpr std::uint64_t kPairsPerUnit = 4096;

/// Target number of SURVIVING pairs per scan unit with pruning on. The
/// nominal pair count wildly overstates a pruned unit's real work: the
/// probe-seeded floor breaks out of most rows after a few pairs, so units
/// sized by nominal pairs degenerate into a few units holding nearly all of
/// the surviving work -- the pool idles and parallel+prune used to run no
/// faster than serial+prune. Pruned units are therefore sized by the number
/// of pairs that survive the probe floor (see plan_block_units), which
/// spreads the real work evenly. The grain is smaller than kPairsPerUnit
/// because surviving pairs all pay a full Theta evaluation, where nominal
/// pairs are mostly a single pruned comparison.
constexpr std::uint64_t kSurvivingPairsPerUnit = 256;

/// What one unit (or a block's probe pass) reports back; merged in
/// deterministic order afterwards. Public as BlockScanResult so the cached
/// query path can store folded per-block copies.
using UnitResult = BlockScanResult;

/// Accumulate `r` into `acc` with the engine's reduction rule: work adds up,
/// the peak is the maximum, and the witness is the FIRST result (in fold
/// order) that attains the peak -- a strictly-greater test, so later ties
/// never displace an earlier witness. Folding a block's units into one
/// UnitResult and absorbing that is therefore equivalent to absorbing the
/// units one by one, which is what makes per-block caching exact.
void fold_unit(UnitResult& acc, const UnitResult& r) {
  acc.evaluated += r.evaluated;
  if (r.has_witness && r.peak > acc.peak) {
    acc.peak = r.peak;
    acc.witness_t1 = r.witness_t1;
    acc.witness_t2 = r.witness_t2;
    acc.witness_demand = r.witness_demand;
    acc.has_witness = true;
  }
}

/// One block prepared for scanning: its index in the driver's block list,
/// the sorted unique candidate endpoints {E_i, L_i}, the block's total
/// computation time (an upper bound on Theta over ANY interval), and --
/// when pruning is on -- the probe result that seeds every unit's prune
/// floor. Only blocks that are actually scanned (cache misses) get one.
struct BlockScan {
  std::size_t slot = 0;
  std::vector<Time> points;
  Time total_demand = 0;
  UnitResult probe;
  /// The scan loop's working set, flattened: Psi reads (comp, E, L,
  /// preemptive) per task and nothing else, so the scan walks four
  /// contiguous arrays instead of pointer-chasing Task structs and separate
  /// window vectors. The block's given task order (the overflow path
  /// iterates it to keep the historical first-overflow behaviour exactly).
  std::vector<Time> comp, est, lct;
  std::vector<char> preemptive;
  /// Whether rows may be swept as clipped ramps (see RowSweep): the total
  /// did not saturate, and every task has C_i >= 0 and L_i - E_i >= C_i.
  /// Otherwise every pair is summed directly by demand_flat.
  bool ramps = true;
};

/// Theta over a block from its flat arrays; value-identical to
/// demand(app, windows, tasks, ...) over the block's tasks -- the same
/// multiset of Psi terms in the same order, with the same overflow rejection
/// (with C_i >= 0 the check is dead unless total_demand saturated, since
/// every Psi_i <= C_i).
Time demand_flat(const BlockScan& block, Time t1, Time t2) {
  Time sum = 0;
  for (std::size_t i = 0; i < block.comp.size(); ++i) {
    const Time psi = block.preemptive[i]
                         ? overlap_preemptive(block.comp[i], block.est[i], block.lct[i], t1, t2)
                         : overlap_nonpreemptive(block.comp[i], block.est[i], block.lct[i], t1, t2);
    if (__builtin_add_overflow(sum, psi, &sum)) {
      throw ModelError("demand: accumulated Theta overflows Time");
    }
  }
  return sum;
}

/// Theta(t1, t2) for one fixed t1 and ascending t2, in O(n log n) for the
/// whole row instead of O(n) per pair. For t2 > t1 every Psi_i (Theorems
/// 3-4) of a task with L_i - E_i >= C_i is a clipped ramp in t2: with
/// d = max(0, t1 - E_i) and cap_i = C_i - d,
///
///   Psi_i(t2) = min(cap_i, max(0, t2 - s_i)),
///   s_i = L_i - C_i + d            (preemptive; then s_i + cap_i = L_i)
///   s_i = max(L_i - C_i, t1)       (non-preemptive),
///
/// and Psi_i == 0 for all t2 when L_i <= t1 or cap_i <= 0. So Theta(t1, .)
/// is piecewise linear with slope +1 from each s_i and -1 from each
/// s_i + cap_i; every such point lies in [t1, L_i], and Theta(t1, t1) = 0.
/// docs/ALGORITHMS.md (Step 3) has the derivation.
class RowSweep {
 public:
  explicit RowSweep(std::size_t tasks) {
    up_.reserve(tasks);
    down_.reserve(tasks);
  }

  /// Collect and sort the ramp endpoints of row t1. Requires block.ramps.
  void start(const BlockScan& block, Time t1) {
    up_.clear();
    down_.clear();
    for (std::size_t i = 0; i < block.comp.size(); ++i) {
      const Time c = block.comp[i];
      const Time e = block.est[i];
      const Time l = block.lct[i];
      // cap_i <= 0: nothing of the task has to fall after t1. C_i >= 0 and
      // E_i + C_i <= L_i, so neither sum nor difference below can overflow.
      if (l <= t1 || t1 >= e + c) continue;
      const Time d = t1 > e ? t1 - e : 0;
      const Time s = block.preemptive[i] ? l - c + d : std::max(l - c, t1);
      up_.push_back(s);
      down_.push_back(s + (c - d));
    }
    std::sort(up_.begin(), up_.end());
    std::sort(down_.begin(), down_.end());
    prev_ = t1;
    theta_ = 0;
    slope_ = 0;
    next_up_ = 0;
    next_down_ = 0;
  }

  /// Theta(t1, t2) for the next t2 of the row; t2 never decreases.
  /// Exact: theta_ is Theta at prev_, a sum of Psi terms <= total_demand,
  /// and the 128-bit steps cannot overflow on the way there.
  Time advance(Time t2) {
    theta_ += static_cast<__int128>(slope_) * (t2 - prev_);
    for (; next_up_ < up_.size() && up_[next_up_] < t2; ++next_up_, ++slope_) {
      theta_ += t2 - up_[next_up_];
    }
    for (; next_down_ < down_.size() && down_[next_down_] < t2; ++next_down_, --slope_) {
      theta_ -= t2 - down_[next_down_];
    }
    prev_ = t2;
    return static_cast<Time>(theta_);
  }

 private:
  std::vector<Time> up_, down_;  ///< ramp starts s_i and ends s_i + cap_i
  Time prev_ = 0;
  __int128 theta_ = 0;
  std::int64_t slope_ = 0;
  std::size_t next_up_ = 0;
  std::size_t next_down_ = 0;
};

/// A chunk of consecutive left endpoints [l_begin, l_end) of one scanned
/// block (an index into the driver's list of BlockScans).
struct ScanUnit {
  std::size_t scan = 0;
  std::size_t l_begin = 0;
  std::size_t l_end = 0;
};

/// The pruning probe: evaluate each task's own [E_i, L_i] window (these are
/// genuine candidate intervals, and a stacked burst of tasks shows its full
/// density over any member's window). The result is a lower bound on the
/// block's true peak that every unit can prune against from its first row --
/// crucial because units scan with fresh incumbents. Runs once per block,
/// deterministically, so results stay thread-count independent.
UnitResult probe_block(const BlockScan& block) {
  UnitResult res;
  for (std::size_t k = 0; k < block.comp.size(); ++k) {
    const Time t1 = block.est[k];
    const Time t2 = block.lct[k];
    if (t1 >= t2) continue;
    const Time theta = demand_flat(block, t1, t2);
    ++res.evaluated;
    if (Ratio{theta, t2 - t1} > res.peak) {
      res.peak = Ratio{theta, t2 - t1};
      res.witness_t1 = t1;
      res.witness_t2 = t2;
      res.witness_demand = theta;
      res.has_witness = true;
    }
  }
  return res;
}

/// Flatten block `slot` (its tasks in the given order) for scanning. The
/// probe and the scan units come later: pruned units are sized by how much
/// work survives the probe floor.
BlockScan make_block_scan(const Application& app, const TaskWindows& windows,
                          std::span<const TaskId> tasks, std::size_t slot) {
  BlockScan block;
  block.slot = slot;
  block.points.reserve(tasks.size() * 2);
  block.comp.reserve(tasks.size());
  block.est.reserve(tasks.size());
  block.lct.reserve(tasks.size());
  block.preemptive.reserve(tasks.size());
  for (TaskId i : tasks) {
    const Task& t = app.task(i);
    block.points.push_back(windows.est[i]);
    block.points.push_back(windows.lct[i]);
    block.comp.push_back(t.comp);
    block.est.push_back(windows.est[i]);
    block.lct.push_back(windows.lct[i]);
    block.preemptive.push_back(t.preemptive ? 1 : 0);
    // L_i - E_i >= C_i, compared without overflow: RowSweep's ramp form
    // needs it. Under negative slack (lint RTLB-E101) Psi_i jumps at E_i,
    // so such a block is summed pair by pair instead.
    if (t.comp < 0 || static_cast<__int128>(windows.lct[i]) - windows.est[i] < t.comp) {
      block.ramps = false;
    }
    // Saturating sum: an overflowed total would only weaken pruning, never
    // the bound, but keep it a valid upper bound on Theta anyway.
    if (__builtin_add_overflow(block.total_demand, t.comp, &block.total_demand)) {
      block.total_demand = std::numeric_limits<Time>::max();
    }
  }
  if (block.total_demand == std::numeric_limits<Time>::max()) block.ramps = false;
  std::sort(block.points.begin(), block.points.end());
  block.points.erase(std::unique(block.points.begin(), block.points.end()),
                     block.points.end());
  return block;
}

/// Append the scan units of `block` (the `scan`-th BlockScan) to `units`.
///
/// Without pruning, rows are grouped by nominal pair count. With pruning the
/// nominal count is the wrong currency: the floor check in scan_unit breaks
/// out of row l at the first k whose best-possible density
/// Ratio{total_demand, points[k] - points[l]} cannot strictly beat the probe
/// floor, and since the width grows monotonically along the row, the pairs
/// that survive the probe floor form a prefix whose length one binary search
/// finds exactly. Pruned rows are therefore grouped by SURVIVING pair count
/// (the unit's own incumbent can only break earlier, so this is a true upper
/// bound on the unit's Theta evaluations), which spreads the post-pruning
/// work evenly across units where nominal grouping collapsed it into one or
/// two. Rows with zero survivors still join a unit -- they cost one floor
/// comparison each.
///
/// The grouping depends only on the block geometry and the (deterministic)
/// probe, never on the thread count, so the unit list -- and therefore the
/// reduced result -- is identical between serial and parallel execution.
/// MUST run after the block's probe when pruning is on.
void plan_block_units(const BlockScan& block, std::size_t scan, bool pruning,
                      std::vector<ScanUnit>& units) {
  const std::size_t n = block.points.size();
  const Ratio floor = block.probe.peak;
  const auto surviving_pairs = [&](std::size_t l) -> std::uint64_t {
    if (!pruning) return static_cast<std::uint64_t>(n - 1 - l);
    // First k > l whose pair fails the scan_unit floor test; survivors are
    // the prefix [l + 1, k).
    std::size_t lo = l + 1;
    std::size_t hi = n;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      const Time width = block.points[mid] - block.points[l];
      const bool survives = static_cast<__int128>(block.total_demand) * floor.den >
                            static_cast<__int128>(floor.num) * width;
      if (survives) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return static_cast<std::uint64_t>(lo - (l + 1));
  };
  const std::uint64_t grain = pruning ? kSurvivingPairsPerUnit : kPairsPerUnit;
  std::size_t l = 0;
  while (l + 1 < n) {
    std::uint64_t pairs = 0;
    const std::size_t begin = l;
    while (l + 1 < n && pairs < grain) {
      pairs += surviving_pairs(l);
      ++l;
    }
    units.push_back({scan, begin, l});
  }
}

UnitResult scan_unit(const BlockScan& block, const ScanUnit& unit, bool prune) {
  UnitResult res;
  RowSweep row(block.ramps ? block.comp.size() : 0);
  for (std::size_t l = unit.l_begin; l < unit.l_end; ++l) {
    const Time t1 = block.points[l];
    bool row_started = false;
    for (std::size_t k = l + 1; k < block.points.size(); ++k) {
      const Time t2 = block.points[k];
      // Theta <= total_demand, and the width only grows with k, so once the
      // best-possible density cannot strictly beat the prune floor neither
      // this pair nor the rest of the row can change the result. The floor
      // is the better of the unit's own incumbent and the block probe --
      // a pair that only TIES the floor is skippable because a witness at
      // that density is already recorded (by the probe or by this unit).
      if (prune) {
        const Ratio& floor =
            block.probe.peak > res.peak ? block.probe.peak : res.peak;
        if (!(Ratio{block.total_demand, t2 - t1} > floor)) break;
      }
      Time theta = 0;
      if (block.ramps) {
        // Built on the row's first surviving pair: a fully pruned row costs
        // one comparison, as before.
        if (!row_started) {
          row.start(block, t1);
          row_started = true;
        }
        theta = row.advance(t2);
      } else {
        theta = demand_flat(block, t1, t2);
      }
      ++res.evaluated;
      if (Ratio{theta, t2 - t1} > res.peak) {
        res.peak = Ratio{theta, t2 - t1};
        res.witness_t1 = t1;
        res.witness_t2 = t2;
        res.witness_demand = theta;
        res.has_witness = true;
      }
    }
  }
  return res;
}

/// Reduce blocks [begin, end) in the one canonical order -- every block's
/// probe first (in block order), then every block's folded units. Units are
/// planned grouped by block in block order and fold_unit keeps the first
/// attainment, so this equals folding every unit result in unit order: peak
/// = max, witness = the first result that attains the peak, work = sum. A
/// tie across units therefore keeps a witness whose density EQUALS the
/// reported peak -- never a stale witness from a lower-density block. With
/// pruning off every probe is empty.
ResourceBound merge_blocks(const Application& app, const TaskWindows& windows,
                           std::span<const std::span<const TaskId>> blocks,
                           std::span<const UnitResult> probes,
                           std::span<const UnitResult> scans) {
  UnitResult acc;
  std::size_t winner = blocks.size();
  const auto absorb = [&](const UnitResult& r, std::size_t b) {
    if (r.has_witness && r.peak > acc.peak) winner = b;
    fold_unit(acc, r);
  };
  for (std::size_t b = 0; b < blocks.size(); ++b) absorb(probes[b], b);
  for (std::size_t b = 0; b < blocks.size(); ++b) absorb(scans[b], b);

  ResourceBound out;
  out.peak_density = acc.peak;
  out.witness_t1 = acc.witness_t1;
  out.witness_t2 = acc.witness_t2;
  out.witness_demand = acc.witness_demand;
  out.intervals_evaluated = acc.evaluated;
  out.bound = acc.peak.ceil();
#ifndef NDEBUG
  if (winner < blocks.size()) {
    const Time check = demand(app, windows, blocks[winner], out.witness_t1, out.witness_t2);
    RTLB_CHECK(check == out.witness_demand, "witness demand inconsistent with its interval");
    RTLB_CHECK((Ratio{check, out.witness_t2 - out.witness_t1} == out.peak_density),
               "witness density disagrees with peak_density");
  }
#else
  (void)winner;
  (void)app;
  (void)windows;
#endif
  return out;
}

}  // namespace

std::vector<ResourceBound> partition_bounds(const Application& app, const TaskWindows& windows,
                                            std::span<const ResourcePartition> partitions,
                                            const LowerBoundOptions& opts,
                                            BlockScanCache* cache) {
  // Plan, part 1: the blocks of every entry, flattened in entry order.
  // Without partitioning an entry is ST_r as one block, in tasks_using
  // order; `whole` owns those lists.
  std::vector<std::vector<TaskId>> whole;
  std::vector<std::span<const TaskId>> blocks;
  std::vector<std::size_t> first;
  first.reserve(partitions.size() + 1);
  if (!opts.use_partitioning) whole.reserve(partitions.size());
  for (const ResourcePartition& partition : partitions) {
    first.push_back(blocks.size());
    if (opts.use_partitioning) {
      for (const PartitionBlock& block : partition.blocks) {
        if (!block.tasks.empty()) blocks.emplace_back(block.tasks);
      }
    } else {
      whole.push_back(app.tasks_using(partition.resource));
      if (!whole.back().empty()) blocks.emplace_back(whole.back());
    }
  }
  first.push_back(blocks.size());

  // Plan, part 2: resolve each block. A cache hit builds its exact key and
  // replays the stored probe and folded scan -- nothing else. A miss (every
  // block when there is no cache) is flattened, probed, and split into
  // scan units; its key is kept for the insert after the scan. All lookups
  // precede all inserts, so a block repeated within one call misses twice.
  std::vector<UnitResult> probes(blocks.size());
  std::vector<UnitResult> scans(blocks.size());
  std::vector<BlockScan> missed;
  std::vector<BlockScanCache::Key> miss_keys;
  std::vector<ScanUnit> units;
  BlockScanCache::Key key;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    if (cache != nullptr) {
      key.clear();
      key.reserve(2 + 4 * blocks[b].size());
      key.push_back(opts.enable_pruning ? 1 : 0);
      key.push_back(static_cast<std::int64_t>(blocks[b].size()));
      for (TaskId t : blocks[b]) {
        const Task& task = app.task(t);
        key.insert(key.end(), {windows.est[t], windows.lct[t], task.comp, task.preemptive ? 1 : 0});
      }
      const auto it = cache->map_.find(key);
      if (it != cache->map_.end()) {
        ++cache->hits_;
        probes[b] = it->second.probe;
        scans[b] = it->second.scan;
        continue;
      }
      ++cache->misses_;
      miss_keys.push_back(std::exchange(key, {}));
    }
    BlockScan& scan = missed.emplace_back(make_block_scan(app, windows, blocks[b], b));
    if (opts.enable_pruning) scan.probe = probe_block(scan);
    probes[b] = scan.probe;
    plan_block_units(scan, missed.size() - 1, opts.enable_pruning, units);
  }

  // Execute: the units of every missed block of every entry form one flat
  // work list over one pool, so an entry with one big block does not
  // serialize the rest. Each unit writes its own slot, so execution order
  // is irrelevant to the merged result.
  std::vector<UnitResult> results(units.size());
  const auto run_one = [&](std::size_t i) {
    results[i] = scan_unit(missed[units[i].scan], units[i], opts.enable_pruning);
  };
  const unsigned workers =
      opts.num_threads == 1 ? 1 : ThreadPool::resolve_threads(opts.num_threads);
  if (workers <= 1 || units.size() <= 1) {
    for (std::size_t i = 0; i < units.size(); ++i) run_one(i);
  } else {
    ThreadPool pool(workers);
    pool.parallel_for(units.size(), run_one);
  }
  // Units are in (block, unit) order, so this folds each block's units in
  // unit order.
  for (std::size_t i = 0; i < units.size(); ++i) {
    fold_unit(scans[missed[units[i].scan].slot], results[i]);
  }

  // Record the misses. The occasional wholesale clear (safety valve against
  // unbounded growth) only costs future hits.
  if (cache != nullptr) {
    for (std::size_t m = 0; m < missed.size(); ++m) {
      if (cache->map_.size() >= BlockScanCache::kMaxEntries) cache->map_.clear();
      const std::size_t b = missed[m].slot;
      cache->map_.emplace(std::move(miss_keys[m]), BlockScanCache::Entry{probes[b], scans[b]});
    }
  }

  // Merge each entry over its own run of blocks.
  std::vector<ResourceBound> out;
  out.reserve(partitions.size());
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    const std::size_t begin = first[p];
    const std::size_t count = first[p + 1] - begin;
    out.push_back(merge_blocks(app, windows, std::span(blocks).subspan(begin, count),
                               std::span(probes).subspan(begin, count),
                               std::span(scans).subspan(begin, count)));
    out.back().resource = partitions[p].resource;
  }
  return out;
}

ResourceBound resource_lower_bound(const Application& app, const TaskWindows& windows,
                                   ResourceId r, const LowerBoundOptions& opts) {
  const ResourcePartition partition = opts.use_partitioning
                                          ? partition_tasks(app, windows, r)
                                          : ResourcePartition{r, {}};
  return partition_bounds(app, windows, std::span(&partition, 1), opts).front();
}

std::vector<ResourceBound> all_resource_bounds(const Application& app,
                                               const TaskWindows& windows,
                                               const LowerBoundOptions& opts) {
  return partition_bounds(app, windows, partition_all(app, windows), opts);
}

std::vector<ResourceBound> all_resource_bounds_cached(const Application& app,
                                                      const TaskWindows& windows,
                                                      const LowerBoundOptions& opts,
                                                      BlockScanCache& cache) {
  return partition_bounds(app, windows, partition_all(app, windows), opts, &cache);
}

ResourceBound density_bound_over(const Application& app, const TaskWindows& windows,
                                 std::vector<TaskId> tasks, const LowerBoundOptions& opts) {
  // Figure-4 blocks over the given set (same rule as partition_tasks, which
  // is tied to a ResourceId and so not reusable directly).
  std::sort(tasks.begin(), tasks.end(), [&](TaskId a, TaskId b) {
    if (windows.est[a] != windows.est[b]) return windows.est[a] < windows.est[b];
    return a < b;
  });
  ResourcePartition partition;
  Time block_finish = kTimeMin;
  for (TaskId i : tasks) {
    if (partition.blocks.empty() || windows.est[i] >= block_finish) {
      partition.blocks.emplace_back();
    }
    partition.blocks.back().tasks.push_back(i);
    block_finish = std::max(block_finish, windows.lct[i]);
  }
  LowerBoundOptions partitioned = opts;
  partitioned.use_partitioning = true;
  return partition_bounds(app, windows, std::span(&partition, 1), partitioned).front();
}

}  // namespace rtlb
