#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/core/analysis.hpp"
#include "src/core/lower_bound.hpp"
#include "src/core/overlap.hpp"
#include "src/workload/taskset_gen.hpp"

namespace rtlb {
namespace {

class LowerBoundTest : public ::testing::Test {
 protected:
  LowerBoundTest() : app_(cat_) { p_ = cat_.add_processor_type("P", 1); }

  TaskId add(Time comp, Time rel, Time deadline, bool preemptive = false) {
    Task t;
    t.name = "t" + std::to_string(app_.num_tasks());
    t.comp = comp;
    t.release = rel;
    t.deadline = deadline;
    t.proc = p_;
    t.preemptive = preemptive;
    return app_.add_task(std::move(t));
  }

  ResourceBound bound(bool partitioned = true) {
    SharedMergeOracle oracle;
    const TaskWindows w = compute_windows(app_, oracle);
    LowerBoundOptions opts;
    opts.use_partitioning = partitioned;
    return resource_lower_bound(app_, w, p_, opts);
  }

  ResourceCatalog cat_;
  Application app_;
  ResourceId p_;
};

TEST_F(LowerBoundTest, SingleTaskNeedsOneUnit) {
  add(3, 0, 10);
  const ResourceBound b = bound();
  EXPECT_EQ(b.bound, 1);
}

TEST_F(LowerBoundTest, UnusedResourceBoundsToZero) {
  const ResourceId unused = cat_.add_resource("unused");
  add(3, 0, 10);
  SharedMergeOracle oracle;
  const TaskWindows w = compute_windows(app_, oracle);
  EXPECT_EQ(resource_lower_bound(app_, w, unused).bound, 0);
}

TEST_F(LowerBoundTest, ParallelDeadlinesForceParallelUnits) {
  // Three tasks each filling [0, 4] completely: no single CPU can do 12
  // ticks of work in 4 ticks.
  add(4, 0, 4);
  add(4, 0, 4);
  add(4, 0, 4);
  const ResourceBound b = bound();
  EXPECT_EQ(b.bound, 3);
  EXPECT_EQ(b.witness_t1, 0);
  EXPECT_EQ(b.witness_t2, 4);
  EXPECT_EQ(b.witness_demand, 12);
}

TEST_F(LowerBoundTest, SlackAllowsSequencing) {
  // Same three tasks but with deadline 12: one CPU suffices and the density
  // never exceeds 1.
  add(4, 0, 12);
  add(4, 0, 12);
  add(4, 0, 12);
  EXPECT_EQ(bound().bound, 1);
}

TEST_F(LowerBoundTest, PreemptiveTasksCanDodgeNarrowIntervals) {
  // Windows [0, 12], C = 8 each, two tasks. Non-preemptive: any [4, 8]
  // placement overlaps [4, 8] by >= 4, demand 8 over width 4 -> bound 2.
  // Preemptive: both can split around the middle, and the peak density over
  // the whole window is 16/12 -> bound 2 as well... use distinct geometry:
  const TaskId a = add(8, 0, 12, /*preemptive=*/true);
  const TaskId b = add(8, 0, 12, /*preemptive=*/true);
  (void)a;
  (void)b;
  const ResourceBound pre = bound();
  EXPECT_EQ(pre.bound, 2);  // 16 ticks of work in a 12-tick window

  Application app2(cat_);
  Task t;
  t.comp = 8;
  t.release = 0;
  t.deadline = 12;
  t.proc = p_;
  t.preemptive = false;
  t.name = "x";
  app2.add_task(t);
  t.name = "y";
  app2.add_task(t);
  SharedMergeOracle oracle;
  const TaskWindows w2 = compute_windows(app2, oracle);
  const ResourceBound non = resource_lower_bound(app2, w2, p_);
  // Non-preemptive demand in any sub-interval is at least as large.
  EXPECT_GE(non.bound, pre.bound);
}

TEST_F(LowerBoundTest, PartitionedEqualsNaive) {
  add(4, 0, 4);
  add(3, 0, 9);
  add(5, 10, 18);
  add(2, 12, 15);
  add(6, 20, 30);
  const ResourceBound with = bound(true);
  const ResourceBound without = bound(false);
  EXPECT_EQ(with.bound, without.bound);
  EXPECT_TRUE(with.peak_density == without.peak_density);
  // Theorem 5's point: fewer intervals evaluated.
  EXPECT_LT(with.intervals_evaluated, without.intervals_evaluated);
}

TEST_F(LowerBoundTest, WitnessIntervalIsConsistent) {
  add(4, 0, 4);
  add(4, 0, 4);
  const ResourceBound b = bound();
  SharedMergeOracle oracle;
  const TaskWindows w = compute_windows(app_, oracle);
  const std::vector<TaskId> st = app_.tasks_using(p_);
  EXPECT_EQ(demand(app_, w, st, b.witness_t1, b.witness_t2), b.witness_demand);
  EXPECT_TRUE((Ratio{b.witness_demand, b.witness_t2 - b.witness_t1}) == b.peak_density);
  EXPECT_EQ(ceil_div(b.witness_demand, b.witness_t2 - b.witness_t1), b.bound);
}

TEST(LowerBoundTheorem5, PartitionedEqualsNaiveOnRandomWorkloads) {
  // Theorem 5 on generated workloads: per-block evaluation must give exactly
  // the same bound as scanning the whole range of ST_r.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    WorkloadParams params;
    params.seed = seed;
    params.num_tasks = 24;
    params.laxity = 1.3 + 0.3 * static_cast<double>(seed % 4);
    params.release_spread = (seed % 2 == 0) ? 0.5 : 0.0;
    params.preemptive_prob = (seed % 3 == 0) ? 0.5 : 0.0;
    ProblemInstance inst = generate_workload(params);
    SharedMergeOracle oracle;
    const TaskWindows w = compute_windows(*inst.app, oracle);
    for (ResourceId r : inst.app->resource_set()) {
      LowerBoundOptions part, naive;
      part.use_partitioning = true;
      naive.use_partitioning = false;
      const ResourceBound a = resource_lower_bound(*inst.app, w, r, part);
      const ResourceBound b = resource_lower_bound(*inst.app, w, r, naive);
      EXPECT_EQ(a.bound, b.bound) << "seed " << seed << " r " << r;
      EXPECT_TRUE(a.peak_density == b.peak_density) << "seed " << seed << " r " << r;
      EXPECT_LE(a.intervals_evaluated, b.intervals_evaluated);
    }
  }
}

TEST(LowerBoundOverSets, DensityBoundOverMatchesResourceBound) {
  // density_bound_over on exactly ST_r must reproduce resource_lower_bound.
  WorkloadParams params;
  params.seed = 41;
  params.num_tasks = 24;
  params.laxity = 1.4;
  ProblemInstance inst = generate_workload(params);
  SharedMergeOracle oracle;
  const TaskWindows w = compute_windows(*inst.app, oracle);
  for (ResourceId r : inst.app->resource_set()) {
    const ResourceBound direct = resource_lower_bound(*inst.app, w, r);
    const ResourceBound over = density_bound_over(*inst.app, w, inst.app->tasks_using(r));
    EXPECT_EQ(direct.bound, over.bound);
    EXPECT_TRUE(direct.peak_density == over.peak_density);
  }
  // And on a subset it can only be <= (fewer contributors pointwise, though
  // candidate points shift, the empty-vs-full sanity holds):
  const ResourceId p = inst.catalog->find("P1");
  std::vector<TaskId> st = inst.app->tasks_using(p);
  ASSERT_GT(st.size(), 2u);
  st.resize(st.size() / 2);
  const ResourceBound half = density_bound_over(*inst.app, w, st);
  EXPECT_GE(half.bound, 0);
  EXPECT_EQ(density_bound_over(*inst.app, w, {}).bound, 0);
}

TEST(LowerBoundAnalysis, BoundNeverBelowWorkDensity) {
  // LB_r >= the single-interval work bound by construction (the work bound
  // is one of the candidate intervals).
  WorkloadParams params;
  params.seed = 77;
  params.num_tasks = 30;
  ProblemInstance inst = generate_workload(params);
  const AnalysisResult res = analyze(*inst.app);
  for (const ResourceBound& b : res.bounds) {
    const std::vector<TaskId> st = inst.app->tasks_using(b.resource);
    if (st.empty()) continue;
    Time work = 0, lo = kTimeMax, hi = kTimeMin;
    for (TaskId i : st) {
      work += inst.app->task(i).comp;
      lo = std::min(lo, res.windows.est[i]);
      hi = std::max(hi, res.windows.lct[i]);
    }
    EXPECT_GE(b.bound, ceil_div(work, hi - lo));
  }
}

// ---------------------------------------------------------------------------
// Differential check of the engine's row sweep against a direct-sum scan.

/// One scan's running maximum with the engine's strict-greater witness rule.
struct RefBest {
  Ratio peak{0, 1};
  Time t1 = 0, t2 = 0, theta = 0;
  std::uint64_t evaluated = 0;

  void consider(Time a, Time b, Time theta_ab) {
    ++evaluated;
    if (Ratio{theta_ab, b - a} > peak) {
      peak = Ratio{theta_ab, b - a};
      t1 = a;
      t2 = b;
      theta = theta_ab;
    }
  }
};

/// Test-local reference for the Theorem-5 scan: every (t1, t2) pair of each
/// block's candidate points, Theta through the public demand(). With
/// pruning it replays the probe (each task's own window) and the prune
/// break; it assumes one scan unit per block, which holds for blocks of at
/// most 11 tasks (22 points, fewer pairs than a pruned unit's grain).
ResourceBound reference_scan(const Application& app, const TaskWindows& w,
                             const std::vector<PartitionBlock>& blocks, bool prune) {
  ResourceBound out;
  const auto absorb = [&](const RefBest& b) {
    out.intervals_evaluated += b.evaluated;
    if (b.peak > out.peak_density) {
      out.peak_density = b.peak;
      out.witness_t1 = b.t1;
      out.witness_t2 = b.t2;
      out.witness_demand = b.theta;
    }
  };
  std::vector<RefBest> probes(blocks.size());
  if (prune) {
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      for (TaskId i : blocks[b].tasks) {
        if (w.est[i] >= w.lct[i]) continue;
        probes[b].consider(w.est[i], w.lct[i],
                           demand(app, w, blocks[b].tasks, w.est[i], w.lct[i]));
      }
      absorb(probes[b]);
    }
  }
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const std::vector<TaskId>& tasks = blocks[b].tasks;
    std::vector<Time> points;
    Time total = 0;
    for (TaskId i : tasks) {
      points.push_back(w.est[i]);
      points.push_back(w.lct[i]);
      total += app.task(i).comp;
    }
    std::sort(points.begin(), points.end());
    points.erase(std::unique(points.begin(), points.end()), points.end());
    RefBest unit;
    for (std::size_t l = 0; l < points.size(); ++l) {
      for (std::size_t k = l + 1; k < points.size(); ++k) {
        const Ratio floor = probes[b].peak > unit.peak ? probes[b].peak : unit.peak;
        if (prune && !(Ratio{total, points[k] - points[l]} > floor)) break;
        unit.consider(points[l], points[k], demand(app, w, tasks, points[l], points[k]));
      }
    }
    absorb(unit);
  }
  out.bound = out.peak_density.ceil();
  return out;
}

void expect_same_scan(const ResourceBound& got, const ResourceBound& want,
                      const std::string& context) {
  EXPECT_EQ(got.bound, want.bound) << context;
  EXPECT_EQ(got.peak_density.num, want.peak_density.num) << context;
  EXPECT_EQ(got.peak_density.den, want.peak_density.den) << context;
  EXPECT_EQ(got.witness_t1, want.witness_t1) << context;
  EXPECT_EQ(got.witness_t2, want.witness_t2) << context;
  EXPECT_EQ(got.witness_demand, want.witness_demand) << context;
  EXPECT_EQ(got.intervals_evaluated, want.intervals_evaluated) << context;
}

/// Every engine entry point against reference_scan, pruning off and on, at
/// 1 and 4 threads: the wrappers, and partition_bounds itself fed
/// partition_all's blocks with no cache, a cold cache and a warm one, and
/// with partitioning off. `exact_pruned` is false when some block is too
/// wide for the reference's one-unit replay of pruning; pruned results then
/// only have to match the bound and peak density and carry a valid witness.
void expect_engine_matches_reference(const Application& app, const TaskWindows& w,
                                     bool exact_pruned, const std::string& context) {
  const std::vector<ResourcePartition> partitions = partition_all(app, w);
  for (bool prune : {false, true}) {
    for (int threads : {1, 4}) {
      LowerBoundOptions opts;
      opts.enable_pruning = prune;
      opts.num_threads = threads;
      LowerBoundOptions whole = opts;
      whole.use_partitioning = false;
      const std::string ctx = context + " prune=" + std::to_string(prune) +
                              " threads=" + std::to_string(threads);
      const std::vector<ResourceId> resources = app.resource_set();
      BlockScanCache cache;
      const std::vector<ResourceBound> runs[] = {
          all_resource_bounds(app, w, opts),
          partition_bounds(app, w, partitions, opts),
          partition_bounds(app, w, partitions, opts, &cache),
          partition_bounds(app, w, partitions, opts, &cache),
          all_resource_bounds_cached(app, w, opts, cache),
      };
      // The second and third cached calls are all hits.
      EXPECT_EQ(cache.misses() * 3, cache.hits() + cache.misses()) << ctx;
      const std::vector<ResourceBound> unpartitioned = partition_bounds(app, w, partitions, whole);
      ASSERT_EQ(unpartitioned.size(), resources.size()) << ctx;
      for (const std::vector<ResourceBound>& run : runs) {
        ASSERT_EQ(run.size(), resources.size()) << ctx;
      }
      for (std::size_t k = 0; k < resources.size(); ++k) {
        const ResourceId r = resources[k];
        const std::string rctx = ctx + " r=" + std::to_string(r);
        const ResourceBound want =
            reference_scan(app, w, partition_tasks(app, w, r).blocks, prune);
        std::vector<ResourceBound> engine = {
            resource_lower_bound(app, w, r, opts),
            density_bound_over(app, w, app.tasks_using(r), opts)};
        for (const std::vector<ResourceBound>& run : runs) {
          EXPECT_EQ(run[k].resource, r) << rctx;
          engine.push_back(run[k]);
        }
        for (const ResourceBound& got : engine) {
          if (!prune || exact_pruned) {
            expect_same_scan(got, want, rctx);
            continue;
          }
          EXPECT_EQ(got.bound, want.bound) << rctx;
          EXPECT_TRUE(got.peak_density == want.peak_density) << rctx;
          EXPECT_EQ(demand(app, w, app.tasks_using(r), got.witness_t1, got.witness_t2),
                    got.witness_demand)
              << rctx;
          EXPECT_TRUE((Ratio{got.witness_demand, got.witness_t2 - got.witness_t1}) ==
                      got.peak_density)
              << rctx;
        }

        // Partitioning off scans ST_r as one block: the same bound and
        // peak (Theorem 5), exactly the one-block reference, and the same
        // answer as the single-resource wrapper.
        const ResourceBound& one = unpartitioned[k];
        EXPECT_EQ(one.resource, r) << rctx;
        EXPECT_EQ(one.bound, want.bound) << rctx;
        EXPECT_TRUE(one.peak_density == want.peak_density) << rctx;
        expect_same_scan(one, resource_lower_bound(app, w, r, whole), rctx + " unpartitioned");
        if (!prune || exact_pruned) {
          PartitionBlock all;
          all.tasks = app.tasks_using(r);
          expect_same_scan(one, reference_scan(app, w, {all}, prune), rctx + " unpartitioned");
        }
      }
    }
  }
}

TEST(ScanSweepDifferential, GeneratedWorkloadsMatchDirectSum) {
  // Mixed preemptive/non-preemptive tasks; zero release spread makes many
  // E_i coincide, integer comps make E_i/L_i collide across tasks. Ten-task
  // instances keep every block within the reference's pruning replay.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (std::size_t num_tasks : {std::size_t{10}, std::size_t{48}}) {
      WorkloadParams params;
      params.seed = seed;
      params.num_tasks = num_tasks;
      params.laxity = 1.2 + 0.4 * static_cast<double>(seed % 4);
      params.release_spread = (seed % 2 == 0) ? 0.5 : 0.0;
      params.preemptive_prob = (seed % 3 == 0) ? 1.0 : 0.5;
      params.resource_prob = 0.6;
      ProblemInstance inst = generate_workload(params);
      SharedMergeOracle oracle;
      const TaskWindows w = compute_windows(*inst.app, oracle);
      expect_engine_matches_reference(*inst.app, w, num_tasks <= 11,
                                      "seed " + std::to_string(seed) + " n " +
                                          std::to_string(num_tasks));
    }
  }
}

TEST(ScanSweepDifferential, RandomSmallBlocksMatchDirectSum) {
  // Independent tasks with random windows on small integer times: the peak
  // lands on every kind of pair (t1 inside a window, t2 past an L_i, ...),
  // so a wrong ramp for either Psi kind shows in some bound or witness.
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto next = [&](Time range) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<Time>((state >> 33) % static_cast<std::uint64_t>(range));
  };
  for (int round = 0; round < 300; ++round) {
    ResourceCatalog cat;
    const ResourceId p = cat.add_processor_type("P", 1);
    Application app(cat);
    const Time tasks = 1 + next(6);
    for (Time k = 0; k < tasks; ++k) {
      Task t;
      t.name = "r" + std::to_string(k);
      t.comp = 1 + next(8);
      t.release = next(12);
      t.deadline = t.release + t.comp + next(7);
      t.proc = p;
      t.preemptive = next(2) == 1;
      app.add_task(std::move(t));
    }
    SharedMergeOracle oracle;
    const TaskWindows w = compute_windows(app, oracle);
    expect_engine_matches_reference(app, w, /*exact_pruned=*/true,
                                    "round " + std::to_string(round));
  }
}

TEST_F(LowerBoundTest, SweepMatchesDirectSumOnCoincidentEndpoints) {
  // Shared E and L values, an L of one task equal to the E of the next, a
  // zero-slack window, and both Psi kinds over the same points.
  add(4, 0, 4);
  add(4, 0, 4, /*preemptive=*/true);
  add(2, 4, 8);
  add(3, 4, 10, /*preemptive=*/true);
  add(5, 0, 10, /*preemptive=*/true);
  add(5, 0, 10);
  add(1, 8, 10);
  add(6, 4, 10);
  // A non-preemptive task whose window another task's E_i cuts on the
  // left: over [2, 4] it must overlap by 2, where a preemptive one need not.
  add(8, 0, 10);
  add(2, 2, 4);
  SharedMergeOracle oracle;
  const TaskWindows w = compute_windows(app_, oracle);
  expect_engine_matches_reference(app_, w, /*exact_pruned=*/true, "coincident");
}

TEST_F(LowerBoundTest, SweepMatchesDirectSumOnNegativeSlackWindows) {
  // Hand-built windows narrower than C_i (lint RTLB-E101; reachable through
  // the raw engine entry points): a too-tight window, an inverted one and a
  // point window share a block with ordinary tasks, and a second block is
  // ordinary throughout.
  add(5, 0, 3);
  add(3, 1, 9, /*preemptive=*/true);
  add(4, 6, 4);
  add(2, 2, 2, /*preemptive=*/true);
  add(2, 2, 5);
  add(3, 20, 26, /*preemptive=*/true);
  add(4, 21, 27);
  TaskWindows w;
  for (TaskId i = 0; i < app_.num_tasks(); ++i) {
    w.est.push_back(app_.task(i).release);
    w.lct.push_back(app_.task(i).deadline);
  }
  w.merged_pred.resize(app_.num_tasks());
  w.merged_succ.resize(app_.num_tasks());
  expect_engine_matches_reference(app_, w, /*exact_pruned=*/true, "negative slack");
}

}  // namespace
}  // namespace rtlb
