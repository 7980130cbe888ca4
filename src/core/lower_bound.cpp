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

/// One partition block prepared for scanning: its task set, the sorted
/// unique candidate endpoints {E_i, L_i}, the block's total computation
/// time (an upper bound on Theta over ANY interval), and -- when pruning is
/// on -- the probe result that seeds every unit's prune floor.
struct BlockScan {
  std::vector<TaskId> tasks;
  std::vector<Time> points;
  Time total_demand = 0;
  UnitResult probe;
  /// The scan loop's working set, flattened: Psi reads (comp, E, L,
  /// preemptive) per task and nothing else, so the scan walks four
  /// contiguous arrays instead of pointer-chasing Task structs and separate
  /// window vectors. Original block.tasks order (the overflow path iterates
  /// it to keep the historical first-overflow behaviour exactly).
  std::vector<Time> comp, est, lct;
  std::vector<char> preemptive;
  /// Whether rows may be swept as clipped ramps (see RowSweep): the total
  /// did not saturate, and every task has C_i >= 0 and L_i - E_i >= C_i.
  /// Otherwise every pair is summed directly by demand_flat.
  bool ramps = true;
};

/// Theta over a block from its flat arrays; value-identical to
/// demand(app, windows, block.tasks, ...) -- the same multiset of Psi terms
/// in the same order, with the same overflow rejection (with C_i >= 0 the
/// check is dead unless total_demand saturated, since every Psi_i <= C_i).
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

/// A chunk of consecutive left endpoints [l_begin, l_end) of one block.
struct ScanUnit {
  std::size_t block = 0;
  std::size_t l_begin = 0;
  std::size_t l_end = 0;
};

/// The full decomposition of one density maximization.
struct ScanPlan {
  std::vector<BlockScan> blocks;
  std::vector<ScanUnit> units;
};

/// The pruning probe: evaluate each task's own [E_i, L_i] window (these are
/// genuine candidate intervals, and a stacked burst of tasks shows its full
/// density over any member's window). The result is a lower bound on the
/// block's true peak that every unit can prune against from its first row --
/// crucial because units scan with fresh incumbents. Runs once per block,
/// deterministically, so results stay thread-count independent.
UnitResult probe_block(const Application& app, const TaskWindows& windows,
                       const BlockScan& block) {
  (void)app;
  (void)windows;
  UnitResult res;
  for (std::size_t k = 0; k < block.tasks.size(); ++k) {
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

/// Append one block (geometry only) to the plan. Scan units are built later
/// by plan_block_units, AFTER the pruning probe has run, because pruned
/// units are sized by how much work survives the probe floor. The probe is
/// not run here either -- callers that scan the block run it themselves (the
/// cached query path skips it entirely on a cache hit).
void add_block(ScanPlan& plan, const Application& app, const TaskWindows& windows,
               std::vector<TaskId> tasks) {
  if (tasks.empty()) return;
  BlockScan block;
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
  block.tasks = std::move(tasks);
  plan.blocks.push_back(std::move(block));
}

/// Build the scan units of block `block_index` and append them to the plan.
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
/// MUST run after the block's probe when pruning is on; with an empty probe
/// (Ratio 0/1) every positive-demand pair "survives" and the grouping
/// quietly degenerates to nominal.
void plan_block_units(ScanPlan& plan, std::size_t block_index, bool pruning) {
  const BlockScan& block = plan.blocks[block_index];
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
    plan.units.push_back({block_index, begin, l});
  }
}

/// plan_block_units over every block, in block order (merge_blocks relies on
/// units being grouped by block in block order).
void plan_all_units(ScanPlan& plan, bool pruning) {
  for (std::size_t b = 0; b < plan.blocks.size(); ++b) plan_block_units(plan, b, pruning);
}

/// Run the pruning probe of every block in `plan` (cold-path behaviour; the
/// cached path probes only its cache misses).
void probe_all_blocks(ScanPlan& plan, const Application& app, const TaskWindows& windows) {
  for (BlockScan& block : plan.blocks) block.probe = probe_block(app, windows, block);
}

ScanPlan make_plan(const Application& app, const TaskWindows& windows, ResourceId r,
                   const LowerBoundOptions& opts, bool run_probes) {
  ScanPlan plan;
  std::vector<TaskId> st = app.tasks_using(r);
  if (st.empty()) return plan;
  if (opts.use_partitioning) {
    ResourcePartition partition = partition_tasks(app, windows, r);
    for (PartitionBlock& block : partition.blocks) {
      add_block(plan, app, windows, std::move(block.tasks));
    }
  } else {
    add_block(plan, app, windows, std::move(st));
  }
  if (run_probes) {
    if (opts.enable_pruning) probe_all_blocks(plan, app, windows);
    plan_all_units(plan, opts.enable_pruning);
  }
  // run_probes=false (the cached query path): units are NOT built here --
  // the caller builds them after it has resolved probes for its cache
  // misses, so pruned unit sizing sees the same floors as the cold path.
  return plan;
}

UnitResult scan_unit(const Application& app, const TaskWindows& windows,
                     const BlockScan& block, const ScanUnit& unit, bool prune) {
  (void)app;
  (void)windows;
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

/// Execute every unit of `plan`, serially or across a pool. Each unit writes
/// its own slot, so execution order is irrelevant to the merged result.
std::vector<UnitResult> execute_plan(const Application& app, const TaskWindows& windows,
                                     const ScanPlan& plan, const LowerBoundOptions& opts) {
  std::vector<UnitResult> results(plan.units.size());
  auto run_one = [&](std::size_t i) {
    results[i] = scan_unit(app, windows, plan.blocks[plan.units[i].block], plan.units[i],
                           opts.enable_pruning);
  };
  const unsigned workers =
      opts.num_threads == 1 ? 1 : ThreadPool::resolve_threads(opts.num_threads);
  if (workers <= 1 || plan.units.size() <= 1) {
    for (std::size_t i = 0; i < plan.units.size(); ++i) run_one(i);
  } else {
    ThreadPool pool(workers);
    pool.parallel_for(plan.units.size(), run_one);
  }
  return results;
}

/// Reduce results in a fixed deterministic order -- block probes first (in
/// block order), then unit results (in unit order): peak = max, witness =
/// the first result that attains the peak, work = sum. A tie across units
/// therefore keeps a witness whose density EQUALS the reported peak -- never
/// a stale witness from a lower-density block. With pruning off every probe
/// is empty, so the reduction degenerates to the plain unit-order merge.
ResourceBound merge_units(const Application& app, const TaskWindows& windows,
                          const ScanPlan& plan, const std::vector<UnitResult>& results) {
  ResourceBound out;
  const BlockScan* winner_block = nullptr;
  auto absorb = [&](const UnitResult& r, const BlockScan& block) {
    out.intervals_evaluated += r.evaluated;
    if (r.has_witness && r.peak > out.peak_density) {
      out.peak_density = r.peak;
      out.witness_t1 = r.witness_t1;
      out.witness_t2 = r.witness_t2;
      out.witness_demand = r.witness_demand;
      winner_block = &block;
    }
  };
  for (const BlockScan& block : plan.blocks) absorb(block.probe, block);
  for (std::size_t i = 0; i < results.size(); ++i) {
    absorb(results[i], plan.blocks[plan.units[i].block]);
  }
  out.bound = out.peak_density.ceil();
#ifndef NDEBUG
  if (winner_block != nullptr) {
    const Time check =
        demand(app, windows, winner_block->tasks, out.witness_t1, out.witness_t2);
    RTLB_CHECK(check == out.witness_demand, "witness demand inconsistent with its interval");
    RTLB_CHECK((Ratio{check, out.witness_t2 - out.witness_t1} == out.peak_density),
               "witness density disagrees with peak_density");
  }
#else
  (void)winner_block;
  (void)app;
  (void)windows;
  (void)plan;
#endif
  return out;
}

}  // namespace

ResourceBound resource_lower_bound(const Application& app, const TaskWindows& windows,
                                   ResourceId r, const LowerBoundOptions& opts) {
  const ScanPlan plan = make_plan(app, windows, r, opts, /*run_probes=*/true);
  ResourceBound out = merge_units(app, windows, plan, execute_plan(app, windows, plan, opts));
  out.resource = r;
  return out;
}

ResourceBound density_bound_over(const Application& app, const TaskWindows& windows,
                                 std::vector<TaskId> tasks, const LowerBoundOptions& opts) {
  ScanPlan plan;
  if (tasks.empty()) return ResourceBound{};
  // Figure-4 blocks over the given set (same rule as partition_tasks, which
  // is tied to a ResourceId and so not reusable directly).
  std::sort(tasks.begin(), tasks.end(), [&](TaskId a, TaskId b) {
    if (windows.est[a] != windows.est[b]) return windows.est[a] < windows.est[b];
    return a < b;
  });
  std::vector<TaskId> block;
  Time block_finish = kTimeMin;
  for (TaskId i : tasks) {
    if (!block.empty() && windows.est[i] >= block_finish) {
      add_block(plan, app, windows, std::move(block));
      block.clear();
    }
    block.push_back(i);
    block_finish = std::max(block_finish, windows.lct[i]);
  }
  add_block(plan, app, windows, std::move(block));
  if (opts.enable_pruning) probe_all_blocks(plan, app, windows);
  plan_all_units(plan, opts.enable_pruning);
  return merge_units(app, windows, plan, execute_plan(app, windows, plan, opts));
}

std::vector<ResourceBound> all_resource_bounds(const Application& app,
                                               const TaskWindows& windows,
                                               const LowerBoundOptions& opts) {
  const std::vector<ResourceId> resources = app.resource_set();
  std::vector<ScanPlan> plans;
  plans.reserve(resources.size());
  for (ResourceId r : resources) {
    plans.push_back(make_plan(app, windows, r, opts, /*run_probes=*/true));
  }

  // Pool the scan units of every resource into one flat work list so a
  // resource with one big block does not serialize the whole sweep.
  struct GlobalUnit {
    std::size_t plan;
    std::size_t unit;
  };
  std::vector<GlobalUnit> work;
  for (std::size_t p = 0; p < plans.size(); ++p) {
    for (std::size_t u = 0; u < plans[p].units.size(); ++u) work.push_back({p, u});
  }

  std::vector<UnitResult> results(work.size());
  auto run_one = [&](std::size_t i) {
    const ScanPlan& plan = plans[work[i].plan];
    const ScanUnit& unit = plan.units[work[i].unit];
    results[i] = scan_unit(app, windows, plan.blocks[unit.block], unit, opts.enable_pruning);
  };
  const unsigned workers =
      opts.num_threads == 1 ? 1 : ThreadPool::resolve_threads(opts.num_threads);
  if (workers <= 1 || work.size() <= 1) {
    for (std::size_t i = 0; i < work.size(); ++i) run_one(i);
  } else {
    ThreadPool pool(workers);
    pool.parallel_for(work.size(), run_one);
  }

  // Re-slice the flat result list back into per-resource runs (work is
  // ordered by plan, then unit) and reduce each run in unit order.
  std::vector<ResourceBound> out;
  out.reserve(resources.size());
  std::size_t cursor = 0;
  for (std::size_t p = 0; p < plans.size(); ++p) {
    std::vector<UnitResult> slice(results.begin() + static_cast<std::ptrdiff_t>(cursor),
                                  results.begin() + static_cast<std::ptrdiff_t>(
                                                        cursor + plans[p].units.size()));
    cursor += plans[p].units.size();
    ResourceBound b = merge_units(app, windows, plans[p], slice);
    b.resource = resources[p];
    out.push_back(b);
  }
  return out;
}

namespace {

/// Reduce one resource from per-block folded results, replicating
/// merge_units' canonical order exactly: every block's probe first (in block
/// order), then every block's folded units (units are created grouped by
/// block in block order, and fold_unit preserves first-attainment, so this
/// equals the flat unit-order merge of the uncached path bit for bit).
ResourceBound merge_blocks(const Application& app, const TaskWindows& windows,
                           const ScanPlan& plan, const std::vector<UnitResult>& probes,
                           const std::vector<UnitResult>& scans) {
  UnitResult acc;
  const BlockScan* winner_block = nullptr;
  auto absorb = [&](const UnitResult& r, const BlockScan& block) {
    if (r.has_witness && r.peak > acc.peak) winner_block = &block;
    fold_unit(acc, r);
  };
  for (std::size_t b = 0; b < plan.blocks.size(); ++b) absorb(probes[b], plan.blocks[b]);
  for (std::size_t b = 0; b < plan.blocks.size(); ++b) absorb(scans[b], plan.blocks[b]);

  ResourceBound out;
  out.peak_density = acc.peak;
  out.witness_t1 = acc.witness_t1;
  out.witness_t2 = acc.witness_t2;
  out.witness_demand = acc.witness_demand;
  out.intervals_evaluated = acc.evaluated;
  out.bound = acc.peak.ceil();
#ifndef NDEBUG
  if (winner_block != nullptr) {
    const Time check =
        demand(app, windows, winner_block->tasks, out.witness_t1, out.witness_t2);
    RTLB_CHECK(check == out.witness_demand, "witness demand inconsistent with its interval");
    RTLB_CHECK((Ratio{check, out.witness_t2 - out.witness_t1} == out.peak_density),
               "witness density disagrees with peak_density");
  }
#else
  (void)winner_block;
  (void)app;
  (void)windows;
#endif
  return out;
}

}  // namespace

std::vector<ResourceBound> all_resource_bounds_cached(const Application& app,
                                                      const TaskWindows& windows,
                                                      const LowerBoundOptions& opts,
                                                      BlockScanCache& cache) {
  const std::vector<ResourceId> resources = app.resource_set();
  std::vector<ScanPlan> plans;
  plans.reserve(resources.size());
  for (ResourceId r : resources) {
    plans.push_back(make_plan(app, windows, r, opts, /*run_probes=*/false));
  }

  // Resolve every block against the cache. Misses get their pruning probe
  // computed here (the cold path runs it inside make_plan) and their scan
  // units queued; hits are materialized as values so later cache maintenance
  // can never invalidate them.
  struct GlobalUnit {
    std::size_t plan;
    std::size_t unit;
  };
  struct BlockRef {
    std::size_t plan;
    std::size_t block;
  };
  std::vector<std::vector<BlockScanCache::Key>> keys(plans.size());
  std::vector<std::vector<UnitResult>> probes(plans.size());
  std::vector<std::vector<UnitResult>> scans(plans.size());
  std::vector<std::vector<char>> missed(plans.size());
  std::vector<BlockRef> miss_list;
  std::vector<GlobalUnit> work;
  for (std::size_t p = 0; p < plans.size(); ++p) {
    const std::size_t num_blocks = plans[p].blocks.size();
    keys[p].resize(num_blocks);
    probes[p].resize(num_blocks);
    scans[p].resize(num_blocks);
    missed[p].assign(num_blocks, 0);
    for (std::size_t b = 0; b < num_blocks; ++b) {
      BlockScan& block = plans[p].blocks[b];
      BlockScanCache::Key& key = keys[p][b];
      key.reserve(2 + 4 * block.tasks.size());
      key.push_back(opts.enable_pruning ? 1 : 0);
      key.push_back(static_cast<std::int64_t>(block.tasks.size()));
      for (TaskId t : block.tasks) {
        key.push_back(windows.est[t]);
        key.push_back(windows.lct[t]);
        key.push_back(app.task(t).comp);
        key.push_back(app.task(t).preemptive ? 1 : 0);
      }
      const auto it = cache.map_.find(key);
      if (it != cache.map_.end()) {
        ++cache.hits_;
        probes[p][b] = it->second.probe;
        scans[p][b] = it->second.scan;
      } else {
        ++cache.misses_;
        missed[p][b] = 1;
        miss_list.push_back({p, b});
        if (opts.enable_pruning) block.probe = probe_block(app, windows, block);
        probes[p][b] = block.probe;
      }
    }
    // Units are built only now, so the missed blocks' pruned unit sizing
    // sees the probes resolved above -- identical floors, therefore
    // identical unit boundaries, to the cold path. Hit blocks get nominal
    // units (their probe slot is empty) but those are filtered out below
    // and merge_blocks never reads them.
    plan_all_units(plans[p], opts.enable_pruning);
    for (std::size_t u = 0; u < plans[p].units.size(); ++u) {
      if (missed[p][plans[p].units[u].block]) work.push_back({p, u});
    }
  }

  // Execute the missed units exactly like the uncached path (flat list over
  // one pool, own slot per unit, deterministic fold afterwards).
  std::vector<UnitResult> results(work.size());
  auto run_one = [&](std::size_t i) {
    const ScanPlan& plan = plans[work[i].plan];
    const ScanUnit& unit = plan.units[work[i].unit];
    results[i] = scan_unit(app, windows, plan.blocks[unit.block], unit, opts.enable_pruning);
  };
  const unsigned workers =
      opts.num_threads == 1 ? 1 : ThreadPool::resolve_threads(opts.num_threads);
  if (workers <= 1 || work.size() <= 1) {
    for (std::size_t i = 0; i < work.size(); ++i) run_one(i);
  } else {
    ThreadPool pool(workers);
    pool.parallel_for(work.size(), run_one);
  }
  // `work` is ordered (plan, unit) ascending, so this folds each missed
  // block's units in unit order.
  for (std::size_t i = 0; i < work.size(); ++i) {
    fold_unit(scans[work[i].plan][plans[work[i].plan].units[work[i].unit].block], results[i]);
  }

  // Record the misses. The occasional wholesale clear (safety valve against
  // unbounded growth) only costs future hits; the values merged below were
  // copied out already.
  for (const BlockRef& m : miss_list) {
    if (cache.map_.size() >= BlockScanCache::kMaxEntries) cache.map_.clear();
    cache.map_.emplace(std::move(keys[m.plan][m.block]),
                       BlockScanCache::Entry{probes[m.plan][m.block], scans[m.plan][m.block]});
  }

  std::vector<ResourceBound> out;
  out.reserve(resources.size());
  for (std::size_t p = 0; p < plans.size(); ++p) {
    ResourceBound b = merge_blocks(app, windows, plans[p], probes[p], scans[p]);
    b.resource = resources[p];
    out.push_back(b);
  }
  return out;
}

}  // namespace rtlb
