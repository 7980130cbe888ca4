// Golden CheckReport oracle: the independent checker's exact verdicts.
//
// A seeded set of field-level certificate mutations (the CertifyMutations
// kinds of test_verify.cpp, with seeded targets) is applied to the
// certificates of every shipped example instance and of a small generated
// corpus, under both system models, and each CheckReport::summary() is
// compared byte for byte with tests/golden/check_reports.txt. The checker
// may be rewritten for speed only if every failure keeps its order, stage,
// rule, subject and detail.
//
// Regenerate (only when a checker verdict is MEANT to change):
//   RTLB_UPDATE_GOLDEN=1 ./test_check_golden
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/analysis.hpp"
#include "src/model/io.hpp"
#include "src/verify/certificate.hpp"
#include "src/verify/checker.hpp"
#include "src/workload/taskset_gen.hpp"
#include "src/workload/workload.hpp"

namespace rtlb {
namespace {

const std::string kGoldenPath = std::string(RTLB_SOURCE_DIR) + "/tests/golden/check_reports.txt";

/// Seeded index picker: the mutation target of one case.
class Pick {
 public:
  explicit Pick(std::uint64_t seed) : rng_(seed) {}
  std::size_t operator()(std::size_t n) {
    ++calls_;
    return n == 0 ? 0 : rng_() % n;
  }
  /// Number of picks drawn: 0 means the mutation has a single target.
  std::size_t calls() const { return calls_; }

 private:
  std::mt19937_64 rng_;
  std::size_t calls_ = 0;
};

/// What a mutator works on. A mutator returns false when the certificate
/// has nothing to mutate (the case is then skipped). Every mutation keeps
/// the structural invariants parse_certificate enforces, so each one is a
/// certificate rtlb_check could actually be handed.
struct Subject {
  Certificate& cert;
  const Application& app;
  const DedicatedPlatform*& platform;
  Pick& pick;
  std::string note;  ///< chosen target, recorded in the golden label
};

using Mutator = std::function<bool(Subject&)>;

/// Index of a random window whose `list` member is non-empty, or npos.
template <typename Member>
std::size_t window_with(Subject& s, Member member) {
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < s.cert.windows.size(); ++i) {
    if (!(s.cert.windows[i].*member).empty()) candidates.push_back(i);
  }
  if (candidates.empty()) return std::string::npos;
  return candidates[s.pick(candidates.size())];
}

std::size_t any_window(Subject& s) {
  const std::size_t i = s.pick(s.cert.windows.size());
  s.note = "windows[" + std::to_string(i) + "]";
  return i;
}

/// A random bound (or joint) witness with at least one term.
IntervalWitness* bound_witness(Subject& s) {
  std::vector<std::size_t> candidates;
  for (std::size_t k = 0; k < s.cert.bounds.size(); ++k) {
    if (s.cert.bounds[k].witness && !s.cert.bounds[k].witness->terms.empty()) {
      candidates.push_back(k);
    }
  }
  if (candidates.empty()) return nullptr;
  const std::size_t k = candidates[s.pick(candidates.size())];
  s.note = "bounds[" + std::to_string(k) + "]";
  return &*s.cert.bounds[k].witness;
}

IntervalWitness* joint_witness(Subject& s) {
  std::vector<std::size_t> candidates;
  for (std::size_t k = 0; k < s.cert.joint.size(); ++k) {
    if (s.cert.joint[k].witness && !s.cert.joint[k].witness->terms.empty()) {
      candidates.push_back(k);
    }
  }
  if (candidates.empty()) return nullptr;
  const std::size_t k = candidates[s.pick(candidates.size())];
  s.note = "joint[" + std::to_string(k) + "]";
  return &*s.cert.joint[k].witness;
}

/// A random partition with at least `min_blocks` blocks.
PartitionCert* partition(Subject& s, std::size_t min_blocks) {
  std::vector<std::size_t> candidates;
  for (std::size_t k = 0; k < s.cert.partitions.size(); ++k) {
    if (s.cert.partitions[k].blocks.size() >= min_blocks) candidates.push_back(k);
  }
  if (candidates.empty()) return nullptr;
  const std::size_t k = candidates[s.pick(candidates.size())];
  s.note = "partitions[" + std::to_string(k) + "]";
  return &s.cert.partitions[k];
}

DedicatedCostCert* feasible_cost(Subject& s) {
  if (!s.cert.dedicated_cost || !s.cert.dedicated_cost->feasible) return nullptr;
  return &*s.cert.dedicated_cost;
}

TaskId random_task(Subject& s) { return static_cast<TaskId>(s.pick(s.app.num_tasks())); }

const std::vector<std::pair<std::string, Mutator>>& mutators() {
  static const std::vector<std::pair<std::string, Mutator>> table = {
      // ---- meta ----------------------------------------------------------
      {"num_tasks", [](Subject& s) { s.cert.num_tasks += 1; return true; }},
      {"window count", [](Subject& s) { s.cert.windows.pop_back(); return true; }},
      {"est out of range",
       [](Subject& s) { s.cert.windows[any_window(s)].est = kTimeMax * 2; return true; }},
      {"windows unsorted",
       [](Subject& s) {
         if (s.cert.windows.size() < 2) return false;
         const std::size_t i = s.pick(s.cert.windows.size() - 1);
         s.note = "windows[" + std::to_string(i) + "]";
         std::swap(s.cert.windows[i], s.cert.windows[i + 1]);
         return true;
       }},
      {"no platform", [](Subject& s) { s.platform = nullptr; return true; }},
      // ---- windows -------------------------------------------------------
      {"est bumped", [](Subject& s) { s.cert.windows[any_window(s)].est += 1; return true; }},
      {"est lowered", [](Subject& s) { s.cert.windows[any_window(s)].est -= 1; return true; }},
      {"lct bumped", [](Subject& s) { s.cert.windows[any_window(s)].lct += 1; return true; }},
      {"lct lowered", [](Subject& s) { s.cert.windows[any_window(s)].lct -= 1; return true; }},
      {"est shifted far",
       [](Subject& s) { s.cert.windows[any_window(s)].est += 1000; return true; }},
      {"bogus merge pred",
       [](Subject& s) {
         s.cert.windows[any_window(s)].merged_pred.push_back(random_task(s));
         return true;
       }},
      {"bogus merge succ",
       [](Subject& s) {
         s.cert.windows[any_window(s)].merged_succ.push_back(random_task(s));
         return true;
       }},
      {"dropped merge set",
       [](Subject& s) {
         const std::size_t i = window_with(s, &WindowFact::merged_pred);
         if (i == std::string::npos) return false;
         s.note = "windows[" + std::to_string(i) + "]";
         s.cert.windows[i].merged_pred.clear();
         return true;
       }},
      {"dropped merge succ set",
       [](Subject& s) {
         const std::size_t i = window_with(s, &WindowFact::merged_succ);
         if (i == std::string::npos) return false;
         s.note = "windows[" + std::to_string(i) + "]";
         s.cert.windows[i].merged_succ.clear();
         return true;
       }},
      {"duplicated merge pred",
       [](Subject& s) {
         const std::size_t i = window_with(s, &WindowFact::merged_pred);
         if (i == std::string::npos) return false;
         s.note = "windows[" + std::to_string(i) + "]";
         s.cert.windows[i].merged_pred.push_back(s.cert.windows[i].merged_pred[0]);
         return true;
       }},
      {"extra real pred merged",
       [](Subject& s) {
         const std::size_t i = any_window(s);
         const auto& pred = s.app.predecessors(static_cast<TaskId>(i));
         if (pred.empty()) return false;
         auto& merged = s.cert.windows[i].merged_pred;
         for (const TaskId j : pred) {
           if (std::find(merged.begin(), merged.end(), j) == merged.end()) {
             merged.push_back(j);
             return true;
           }
         }
         return false;
       }},
      {"extra real succ merged",
       [](Subject& s) {
         const std::size_t i = any_window(s);
         const auto& succ = s.app.successors(static_cast<TaskId>(i));
         if (succ.empty()) return false;
         auto& merged = s.cert.windows[i].merged_succ;
         for (const TaskId j : succ) {
           if (std::find(merged.begin(), merged.end(), j) == merged.end()) {
             merged.push_back(j);
             return true;
           }
         }
         return false;
       }},
      // ---- partitions ----------------------------------------------------
      {"task dropped from block",
       [](Subject& s) {
         PartitionCert* p = partition(s, 1);
         if (p == nullptr) return false;
         auto& block = p->blocks[s.pick(p->blocks.size())];
         block.erase(block.begin() + static_cast<std::ptrdiff_t>(s.pick(block.size())));
         return true;
       }},
      {"task duplicated across blocks",
       [](Subject& s) {
         PartitionCert* p = partition(s, 1);
         if (p == nullptr) return false;
         p->blocks.back().push_back(p->blocks[0][0]);
         return true;
       }},
      {"foreign task in block",
       [](Subject& s) {
         PartitionCert* p = partition(s, 1);
         if (p == nullptr) return false;
         p->blocks[s.pick(p->blocks.size())].push_back(random_task(s));
         return true;
       }},
      {"empty block",
       [](Subject& s) {
         PartitionCert* p = partition(s, 1);
         if (p == nullptr) return false;
         p->blocks.insert(p->blocks.begin(), std::vector<TaskId>{});
         p->separations.insert(p->separations.begin(), SeparationFact{0, 0});
         return true;
       }},
      {"blocks merged",
       [](Subject& s) {
         PartitionCert* p = partition(s, 2);
         if (p == nullptr) return false;
         const std::size_t b = s.pick(p->blocks.size() - 1);
         auto& into = p->blocks[b];
         into.insert(into.end(), p->blocks[b + 1].begin(), p->blocks[b + 1].end());
         p->blocks.erase(p->blocks.begin() + static_cast<std::ptrdiff_t>(b) + 1);
         p->separations.erase(p->separations.begin() + static_cast<std::ptrdiff_t>(b));
         return true;
       }},
      {"task moved between blocks",
       [](Subject& s) {
         PartitionCert* p = partition(s, 2);
         if (p == nullptr) return false;
         const std::size_t b = s.pick(p->blocks.size() - 1);
         p->blocks[b + 1].push_back(p->blocks[b].back());
         p->blocks[b].pop_back();
         return true;
       }},
      {"block split",
       [](Subject& s) {
         PartitionCert* p = partition(s, 1);
         if (p == nullptr) return false;
         const std::size_t b = s.pick(p->blocks.size());
         if (p->blocks[b].size() < 2) return false;
         std::vector<TaskId> tail(p->blocks[b].begin() + 1, p->blocks[b].end());
         p->blocks[b].resize(1);
         p->blocks.insert(p->blocks.begin() + static_cast<std::ptrdiff_t>(b) + 1, tail);
         p->separations.insert(p->separations.begin() + static_cast<std::ptrdiff_t>(b),
                               SeparationFact{0, 0});
         return true;
       }},
      {"separation later_start tampered",
       [](Subject& s) {
         PartitionCert* p = partition(s, 2);
         if (p == nullptr) return false;
         p->separations[s.pick(p->separations.size())].later_start -= 1;
         return true;
       }},
      {"separation earlier_finish tampered",
       [](Subject& s) {
         PartitionCert* p = partition(s, 2);
         if (p == nullptr) return false;
         p->separations[s.pick(p->separations.size())].earlier_finish += 1;
         return true;
       }},
      {"partition list tampered", [](Subject& s) { s.cert.partitions.pop_back(); return true; }},
      {"partition order tampered",
       [](Subject& s) {
         if (s.cert.partitions.size() < 2) return false;
         std::swap(s.cert.partitions[0], s.cert.partitions[1]);
         return true;
       }},
      // ---- bounds --------------------------------------------------------
      {"bound bumped",
       [](Subject& s) {
         const std::size_t k = s.pick(s.cert.bounds.size());
         s.note = "bounds[" + std::to_string(k) + "]";
         s.cert.bounds[k].bound += 1;
         return true;
       }},
      {"negative bound",
       [](Subject& s) {
         const std::size_t k = s.pick(s.cert.bounds.size());
         s.note = "bounds[" + std::to_string(k) + "]";
         s.cert.bounds[k].bound = -1;
         return true;
       }},
      {"bound zeroed",
       [](Subject& s) {
         const std::size_t k = s.pick(s.cert.bounds.size());
         s.note = "bounds[" + std::to_string(k) + "]";
         s.cert.bounds[k].bound = 0;
         return true;
       }},
      {"witness removed",
       [](Subject& s) {
         const std::size_t k = s.pick(s.cert.bounds.size());
         s.note = "bounds[" + std::to_string(k) + "]";
         s.cert.bounds[k].witness.reset();
         return true;
       }},
      {"bound list tampered", [](Subject& s) { s.cert.bounds.pop_back(); return true; }},
      {"bound order tampered",
       [](Subject& s) {
         if (s.cert.bounds.size() < 2) return false;
         std::swap(s.cert.bounds[0], s.cert.bounds[1]);
         return true;
       }},
      {"psi term inflated",
       [](Subject& s) {
         IntervalWitness* w = bound_witness(s);
         if (w == nullptr) return false;
         w->terms[s.pick(w->terms.size())].psi += 1;
         return true;
       }},
      {"demand inflated",
       [](Subject& s) {
         IntervalWitness* w = bound_witness(s);
         if (w == nullptr) return false;
         w->demand += 1;
         return true;
       }},
      {"duplicate term",
       [](Subject& s) {
         IntervalWitness* w = bound_witness(s);
         if (w == nullptr) return false;
         w->terms.push_back(w->terms[s.pick(w->terms.size())]);
         return true;
       }},
      {"term dropped",
       [](Subject& s) {
         IntervalWitness* w = bound_witness(s);
         if (w == nullptr) return false;
         w->terms.erase(w->terms.begin() + static_cast<std::ptrdiff_t>(s.pick(w->terms.size())));
         return true;
       }},
      {"term task replaced",
       [](Subject& s) {
         IntervalWitness* w = bound_witness(s);
         if (w == nullptr) return false;
         w->terms[s.pick(w->terms.size())].task = random_task(s);
         return true;
       }},
      {"term task out of range",
       [](Subject& s) {
         IntervalWitness* w = bound_witness(s);
         if (w == nullptr) return false;
         w->terms[s.pick(w->terms.size())].task = static_cast<TaskId>(s.app.num_tasks() + 3);
         return true;
       }},
      {"interval inverted",
       [](Subject& s) {
         IntervalWitness* w = bound_witness(s);
         if (w == nullptr) return false;
         std::swap(w->t1, w->t2);
         return true;
       }},
      {"interval widened",
       [](Subject& s) {
         IntervalWitness* w = bound_witness(s);
         if (w == nullptr) return false;
         w->t2 += 1;
         return true;
       }},
      {"interval start moved",
       [](Subject& s) {
         IntervalWitness* w = bound_witness(s);
         if (w == nullptr) return false;
         w->t1 -= 2;
         return true;
       }},
      // ---- joint ---------------------------------------------------------
      {"joint bound bumped",
       [](Subject& s) {
         if (s.cert.joint.empty()) return false;
         s.cert.joint[s.pick(s.cert.joint.size())].bound += 1;
         return true;
       }},
      {"joint pair inverted",
       [](Subject& s) {
         if (s.cert.joint.empty()) return false;
         JointCert& j = s.cert.joint[s.pick(s.cert.joint.size())];
         std::swap(j.a, j.b);
         return true;
       }},
      {"joint bound zeroed",
       [](Subject& s) {
         if (s.cert.joint.empty()) return false;
         s.cert.joint[s.pick(s.cert.joint.size())].bound = 0;
         return true;
       }},
      {"joint section dropped",
       [](Subject& s) {
         if (!s.cert.has_joint) return false;
         s.cert.has_joint = false;
         s.cert.joint.clear();
         return true;
       }},
      {"joint witness removed",
       [](Subject& s) {
         if (s.cert.joint.empty()) return false;
         s.cert.joint[s.pick(s.cert.joint.size())].witness.reset();
         return true;
       }},
      {"joint psi inflated",
       [](Subject& s) {
         IntervalWitness* w = joint_witness(s);
         if (w == nullptr) return false;
         w->terms[s.pick(w->terms.size())].psi += 1;
         return true;
       }},
      {"joint term task replaced",
       [](Subject& s) {
         IntervalWitness* w = joint_witness(s);
         if (w == nullptr) return false;
         w->terms[s.pick(w->terms.size())].task = random_task(s);
         return true;
       }},
      {"joint interval widened",
       [](Subject& s) {
         IntervalWitness* w = joint_witness(s);
         if (w == nullptr) return false;
         w->t2 += 3;
         return true;
       }},
      // ---- shared cost ---------------------------------------------------
      {"total inflated", [](Subject& s) { s.cert.shared_cost.total += 1; return true; }},
      {"units tampered",
       [](Subject& s) {
         s.cert.shared_cost.terms[s.pick(s.cert.shared_cost.terms.size())].units += 1;
         return true;
       }},
      {"unit cost tampered",
       [](Subject& s) {
         s.cert.shared_cost.terms[s.pick(s.cert.shared_cost.terms.size())].unit_cost += 1;
         return true;
       }},
      {"term list tampered", [](Subject& s) { s.cert.shared_cost.terms.pop_back(); return true; }},
      {"term resource swapped",
       [](Subject& s) {
         auto& terms = s.cert.shared_cost.terms;
         if (terms.size() < 2) return false;
         std::swap(terms[0].resource, terms[1].resource);
         return true;
       }},
      // ---- dedicated cost ------------------------------------------------
      {"dedicated total lowered",
       [](Subject& s) {
         DedicatedCostCert* d = feasible_cost(s);
         if (d == nullptr) return false;
         d->total -= 1;
         return true;
       }},
      {"assembly zeroed",
       [](Subject& s) {
         DedicatedCostCert* d = feasible_cost(s);
         if (d == nullptr || d->node_counts.empty()) return false;
         d->node_counts[s.pick(d->node_counts.size())] = 0;
         return true;
       }},
      {"assembly bumped",
       [](Subject& s) {
         DedicatedCostCert* d = feasible_cost(s);
         if (d == nullptr || d->node_counts.empty()) return false;
         d->node_counts[s.pick(d->node_counts.size())] += 1;
         return true;
       }},
      {"negative node count",
       [](Subject& s) {
         DedicatedCostCert* d = feasible_cost(s);
         if (d == nullptr || d->node_counts.empty()) return false;
         d->node_counts[s.pick(d->node_counts.size())] = -1;
         return true;
       }},
      {"assembly shape",
       [](Subject& s) {
         DedicatedCostCert* d = feasible_cost(s);
         if (d == nullptr) return false;
         d->node_counts.push_back(0);
         return true;
       }},
      {"dual inflated",
       [](Subject& s) {
         DedicatedCostCert* d = feasible_cost(s);
         if (d == nullptr || d->dual.empty()) return false;
         d->dual[s.pick(d->dual.size())] += 1000.0;
         return true;
       }},
      {"negative dual",
       [](Subject& s) {
         DedicatedCostCert* d = feasible_cost(s);
         if (d == nullptr || d->dual.empty()) return false;
         d->dual[s.pick(d->dual.size())] = -1.0;
         return true;
       }},
      {"dual shape",
       [](Subject& s) {
         DedicatedCostCert* d = feasible_cost(s);
         if (d == nullptr) return false;
         d->dual.push_back(0.0);
         return true;
       }},
      {"relaxation overstated",
       [](Subject& s) {
         DedicatedCostCert* d = feasible_cost(s);
         if (d == nullptr) return false;
         d->relaxation += 1.0;
         return true;
       }},
      {"joint rows flipped",
       [](Subject& s) {
         DedicatedCostCert* d = feasible_cost(s);
         if (d == nullptr) return false;
         d->joint_rows = !d->joint_rows;
         return true;
       }},
      {"uncertifiable infeasibility",
       [](Subject& s) {
         if (!s.cert.dedicated_cost) return false;
         s.cert.dedicated_cost->feasible = false;
         s.cert.dedicated_cost->infeasible_reason = "ilp-node-limit";
         return true;
       }},
      {"bogus unhostable claim",
       [](Subject& s) {
         if (!s.cert.dedicated_cost) return false;
         s.cert.dedicated_cost->feasible = false;
         s.cert.dedicated_cost->infeasible_reason = "task-unhostable";
         s.cert.dedicated_cost->detail_task = random_task(s);
         return true;
       }},
      {"bogus uncovered-resource claim",
       [](Subject& s) {
         if (!s.cert.dedicated_cost || s.cert.bounds.empty()) return false;
         s.cert.dedicated_cost->feasible = false;
         s.cert.dedicated_cost->infeasible_reason = "uncovered-resource";
         s.cert.dedicated_cost->detail_resource =
             s.cert.bounds[s.pick(s.cert.bounds.size())].resource;
         return true;
       }},
      {"bogus uncovered-pair claim",
       [](Subject& s) {
         if (!s.cert.dedicated_cost || s.cert.joint.empty()) return false;
         const JointCert& j = s.cert.joint[s.pick(s.cert.joint.size())];
         s.cert.dedicated_cost->feasible = false;
         s.cert.dedicated_cost->infeasible_reason = "uncovered-pair";
         s.cert.dedicated_cost->detail_resource = j.a;
         s.cert.dedicated_cost->detail_resource_b = j.b;
         return true;
       }},
      {"bogus empty-menu claim",
       [](Subject& s) {
         if (!s.cert.dedicated_cost) return false;
         s.cert.dedicated_cost->feasible = false;
         s.cert.dedicated_cost->infeasible_reason = "no-node-types";
         return true;
       }},
  };
  return table;
}

/// Seeds per (certificate, mutator): each mutator that picks a target runs
/// with this many independently seeded ones.
constexpr std::uint64_t kPicksPerMutator = 2;

struct CorpusEntry {
  std::string name;
  ProblemInstance inst;
};

ProblemInstance load_shipped(const std::string& file) {
  std::ifstream in(std::string(RTLB_SOURCE_DIR) + "/examples/instances/" + file);
  EXPECT_TRUE(in.good()) << file;
  ProblemInstance inst = parse_instance(in);
  if (!inst.workload.empty()) lower_instance(inst, LowerOptions{.chain_instances = true});
  return inst;
}

/// Each of task i's predecessors (and successors) is mergeable with i on
/// its own, but no node type hosts i with the A-user and the B-user
/// together: the dedicated mergeable-prefix scan must stop at that union.
/// Under the shared model the two-task prefix {j1, j2} is the unique
/// minimum of Eq. 4.5 (E_i = 8), so no prefix may be skipped.
constexpr const char* kPrefixBreak = R"(proctype P cost 5
resource A cost 3
resource B cost 4
task j1 comp 3 rel 0 deadline 60 proc P res A
task j2 comp 4 rel 0 deadline 60 proc P res B
task j3 comp 6 rel 1 deadline 60 proc P
task i comp 5 rel 0 deadline 60 proc P
task s1 comp 3 rel 0 deadline 40 proc P res A
task s2 comp 2 rel 0 deadline 42 proc P res B
edge j1 i msg 9
edge j2 i msg 8
edge j3 i msg 1
edge i s1 msg 9
edge i s2 msg 8
node NA cost 8 proc P res A:1
node NB cost 9 proc P res B:1
)";

std::vector<CorpusEntry> corpus() {
  std::vector<CorpusEntry> out;
  out.push_back({"prefix_break", parse_instance_string(kPrefixBreak)});
  for (const char* file : {"avionics.rtlb", "collision.rtlb", "paper.rtlb", "radar.rtlb"}) {
    out.push_back({file, load_shipped(file)});
  }
  for (const GraphShape shape :
       {GraphShape::Layered, GraphShape::ForkJoin, GraphShape::SeriesParallel}) {
    for (const std::uint64_t seed : {21u, 22u}) {
      WorkloadParams params;
      params.seed = seed;
      params.shape = shape;
      params.num_tasks = 14;
      params.preemptive_prob = 0.3;
      params.release_spread = 0.3;
      out.push_back({"generated shape " + std::to_string(static_cast<int>(shape)) + " seed " +
                         std::to_string(seed),
                     generate_workload(params)});
    }
  }
  return out;
}

std::string summarize(const CheckReport& report) {
  return report.valid ? "valid\n" : report.summary();
}

/// Every case of the oracle, rendered as the golden text.
std::string render_oracle() {
  std::ostringstream out;
  std::uint64_t case_seed = 0;
  for (CorpusEntry& entry : corpus()) {
    const bool has_platform = entry.inst.platform.num_node_types() > 0;
    for (const SystemModel model : {SystemModel::Shared, SystemModel::Dedicated}) {
      if (model == SystemModel::Dedicated && !has_platform) continue;
      AnalysisOptions options;
      options.model = model;
      options.joint_bounds = true;
      options.emit_certificates = true;
      const DedicatedPlatform* platform = has_platform ? &entry.inst.platform : nullptr;
      const AnalysisResult result = analyze(*entry.inst.app, options, platform);
      out << "## " << entry.name << (model == SystemModel::Dedicated ? " dedicated" : " shared")
          << "\n-- unmutated\n"
          << summarize(check_certificate(*result.certificate, *entry.inst.app, platform));
      for (const auto& [label, mutate] : mutators()) {
        for (std::uint64_t p = 0; p < kPicksPerMutator; ++p) {
          Certificate broken = *result.certificate;
          const DedicatedPlatform* check_platform = platform;
          Pick pick(++case_seed);
          Subject subject{broken, *entry.inst.app, check_platform, pick, {}};
          if (!mutate(subject)) continue;
          out << "-- " << label;
          if (!subject.note.empty()) out << " @ " << subject.note;
          out << "\n";
          try {
            out << summarize(check_certificate(broken, *entry.inst.app, check_platform));
          } catch (const std::exception& e) {
            out << "threw: " << e.what() << "\n";
          }
          if (pick.calls() == 0) break;
        }
      }
    }
  }
  return out.str();
}

TEST(CheckGolden, ReportsMatchTheRecordedOracle) {
  const std::string actual = render_oracle();
  if (const char* update = std::getenv("RTLB_UPDATE_GOLDEN"); update && *update == '1') {
    std::filesystem::create_directories(std::filesystem::path(kGoldenPath).parent_path());
    std::ofstream(kGoldenPath, std::ios::binary) << actual;
    GTEST_SKIP() << "rewrote " << kGoldenPath;
  }
  std::ifstream in(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing " << kGoldenPath;
  std::ostringstream expected;
  expected << in.rdbuf();
  if (actual == expected.str()) return;
  // Point at the first differing case rather than dumping both texts.
  std::istringstream a(actual), e(expected.str());
  std::string line_a, line_e, config, label;
  for (std::size_t line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(a, line_a));
    const bool more_e = static_cast<bool>(std::getline(e, line_e));
    if (!more_a && !more_e) break;
    if (more_e && line_e.rfind("## ", 0) == 0) config = line_e;
    if (more_e && line_e.rfind("-- ", 0) == 0) label = line_e;
    if (!more_a || !more_e || line_a != line_e) {
      FAIL() << "golden line " << line << " differs in [" << config << "] [" << label
             << "]\n  expected: "
             << (more_e ? line_e : "<end>") << "\n  actual:   " << (more_a ? line_a : "<end>");
    }
  }
}

/// The oracle must cover every rule family the checker can report, or a
/// rewrite could change an unexercised verdict unnoticed.
TEST(CheckGolden, OracleCoversEveryStage) {
  const std::string text = render_oracle();
  for (const char* rule :
       {"meta/meta.num-tasks", "meta/meta.windows", "meta/meta.range", "meta/meta.platform",
        "windows/T1.min-prefix", "windows/T1.merge-set", "windows/T1.attained",
        "windows/T2.min-prefix", "windows/T2.merge-set", "windows/T2.attained",
        "partition/T5.cover", "partition/T5.disjoint", "partition/T5.separation-fact",
        "partition/T5.resources", "bound/E6.3.ceil", "bound/E6.3.negative",
        "bound/E6.3.witness-missing", "bound/E6.3.theta-sum", "bound/E6.3.term-dup",
        "bound/E6.3.term-task", "bound/E6.3.interval", "bound/E6.3.resources", "bound/T3.psi",
        "bound/T4.psi", "joint/E6.3.pair", "joint/E6.3.negative", "joint/E6.3.ceil",
        "joint/E6.3.witness-missing", "joint/E6.3.term-task", "cost/E7.1.sum", "cost/E7.1.term",
        "cost/E7.1.cost", "cost/E7.2.primal-feasible", "cost/E7.2.primal-value",
        "cost/E7.2.primal-shape", "cost/E7.2.dual-sign", "cost/E7.2.dual-feasible",
        "cost/E7.2.dual-value", "cost/E7.2.dual-shape", "cost/E7.2.reason",
        "cost/E7.2.unhostable", "cost/E7.2.uncovered", "cost/E7.2.rows"}) {
    EXPECT_NE(text.find(rule), std::string::npos) << rule << " is never reported";
  }
  EXPECT_EQ(text.find("threw: "), std::string::npos) << "the checker threw on a mutation";
}

}  // namespace
}  // namespace rtlb
