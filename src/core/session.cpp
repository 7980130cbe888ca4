#include "src/core/session.hpp"

#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>

#include "src/core/pipeline.hpp"
#include "src/core/report.hpp"
#include "src/lint/recurrent.hpp"
#include "src/model/io.hpp"
#include "src/workload/workload.hpp"

namespace rtlb {

namespace {

/// Compile-time default (RTLB_SESSION_VERIFY, the ctest cross-check build)
/// or the environment variable of the same name.
bool default_verify() {
#ifdef RTLB_SESSION_VERIFY
  return true;
#else
  const char* env = std::getenv("RTLB_SESSION_VERIFY");
  return env != nullptr && *env != '\0' && std::string_view(env) != "0";
#endif
}

bool same_windows(const TaskWindows& a, const TaskWindows& b) {
  return a == b;  // TaskWindows::operator==: every field, exact values
}

/// The rows the Section-7 ILP reads from the bound stage: (resource, LB_r)
/// per resource. Witnesses and work counters do not feed the program.
bool same_bound_rows(const std::vector<ResourceBound>& a,
                     const std::vector<ResourceBound>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].resource != b[i].resource || a[i].bound != b[i].bound) return false;
  }
  return true;
}

/// The conjunctive rows the joint ILP reads: (a, b, LB_{a,b}).
bool same_joint_rows(const std::vector<JointBound>& a, const std::vector<JointBound>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].a != b[i].a || a[i].b != b[i].b || a[i].bound != b[i].bound) return false;
  }
  return true;
}

/// Exact joint comparison for the verify cross-check (the JSON report does
/// not serialize the joint rows, so they are compared field by field).
bool same_joint_exact(const std::vector<JointBound>& a, const std::vector<JointBound>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].a != b[i].a || a[i].b != b[i].b || a[i].bound != b[i].bound ||
        a[i].witness_t1 != b[i].witness_t1 || a[i].witness_t2 != b[i].witness_t2) {
      return false;
    }
  }
  return true;
}

/// Which lint passes a given dirty-flag state invalidates. Conservative by
/// pass NAME (unknown/custom passes are always dirty): the platform pass
/// reads task sets + menu only, so timing sweeps keep it clean; structural
/// and numeric read model scalars but never the platform; everything that
/// (directly or through the windows/absint context) depends on the merge
/// oracle is also platform-sensitive -- lint windows use the dedicated
/// oracle whenever a platform is PRESENT, regardless of options.model.
std::vector<bool> lint_dirty_mask(const Linter& linter, bool windows_dirty,
                                  bool demand_dirty, bool structure_dirty,
                                  bool platform_dirty) {
  std::vector<bool> dirty;
  dirty.reserve(linter.passes().size());
  for (const LintPass& pass : linter.passes()) {
    bool d = true;
    if (pass.name == "platform-coverage") {
      d = structure_dirty || platform_dirty;
    } else if (pass.name == "structural" || pass.name == "numeric-safety") {
      d = windows_dirty || demand_dirty || structure_dirty;
    } else if (pass.name == "temporal" || pass.name == "absint" ||
               pass.name == "dataflow" || pass.name == "hygiene") {
      d = windows_dirty || demand_dirty || structure_dirty || platform_dirty;
    }
    dirty.push_back(d);
  }
  return dirty;
}

/// The session's answers to the pipeline's per-stage reuse questions: dirty
/// FLAGS (what might have changed) plus value COMPARISON against the last
/// completed result (what actually did). Constructed per query, so it
/// captures the flags exactly as the mutators left them.
class SessionStageCache final : public StageCache {
 public:
  SessionStageCache(const AnalysisResult* prev, bool windows_dirty, bool demand_dirty,
                    bool structure_dirty, bool platform_dirty, BlockScanCache& blocks,
                    LintPassSlices& lint_slices, SessionStats& stats)
      : prev_(prev),
        windows_dirty_(windows_dirty),
        demand_dirty_(demand_dirty),
        structure_dirty_(structure_dirty),
        platform_dirty_(platform_dirty),
        blocks_(&blocks),
        lint_slices_(&lint_slices),
        stats_(&stats) {}

  std::optional<LintGateArtifact> serve_lint(const Application& app,
                                             const DedicatedPlatform* platform) override {
    // Always answered through the incremental driver: clean passes are
    // served from the stored slices, dirty ones re-run, and the slices are
    // recommitted -- so even a fully dirty gate run warms the next query.
    const Linter& linter = default_linter();
    const std::vector<bool> dirty = lint_dirty_mask(
        linter, windows_dirty_, demand_dirty_, structure_dirty_, platform_dirty_);
    LintGateArtifact gate;
    gate.lint = linter.run_with_reuse(app, platform, nullptr, *lint_slices_, dirty,
                                      &stats_->lint_pass_hits, &stats_->lint_pass_misses,
                                      {}, &gate.derived);
    return gate;
  }

  const TaskWindows* cached_windows() override {
    if (prev_ != nullptr && !windows_dirty_ && !structure_dirty_) return &prev_->windows;
    return nullptr;
  }

  bool revalidate_windows(const TaskWindows& fresh) override {
    // A delta that left every window value unchanged (a deadline already
    // clipped to the same tick, a message on a non-critical path)
    // revalidates everything downstream of the windows.
    return prev_ != nullptr && !structure_dirty_ && same_windows(fresh, prev_->windows);
  }

  const std::vector<ResourcePartition>* cached_partitions(bool windows_unchanged) override {
    if (windows_unchanged && prev_ != nullptr && !structure_dirty_) {
      return &prev_->partitions;
    }
    return nullptr;
  }

  const std::vector<ResourceBound>* cached_bounds(bool windows_unchanged) override {
    // Same windows and same Theta inputs mean the whole stage is a replay.
    if (windows_unchanged && prev_ != nullptr && !demand_dirty_ && !structure_dirty_) {
      return &prev_->bounds;
    }
    return nullptr;
  }

  const std::vector<JointBound>* cached_joint(bool windows_unchanged) override {
    if (windows_unchanged && prev_ != nullptr && !demand_dirty_ && !structure_dirty_) {
      return &prev_->joint;
    }
    return nullptr;
  }

  BlockScanCache* block_cache() override { return blocks_; }

  const DedicatedCostBound* cached_dedicated_cost(
      const std::vector<ResourceBound>& bounds,
      const std::vector<JointBound>& joint) override {
    // The ILP is only re-solved when a row it reads actually changed
    // (bounds plateau under many deltas, so synthesis/annealing loops skip
    // most solves).
    if (prev_ != nullptr && prev_->dedicated_cost.has_value() && !platform_dirty_ &&
        !structure_dirty_ && same_bound_rows(prev_->bounds, bounds) &&
        same_joint_rows(prev_->joint, joint)) {
      return &*prev_->dedicated_cost;
    }
    return nullptr;
  }

  void record(Stage stage, bool hit) override {
    switch (stage) {
      case Stage::kLintGate: ++stats_->gate_runs; break;
      case Stage::kWindows: ++(hit ? stats_->window_hits : stats_->window_misses); break;
      case Stage::kPartitions:
        ++(hit ? stats_->partition_hits : stats_->partition_misses);
        break;
      case Stage::kBounds: ++(hit ? stats_->bound_hits : stats_->bound_misses); break;
      case Stage::kCosts: ++(hit ? stats_->cost_hits : stats_->cost_misses); break;
    }
  }

  void record_joint(bool hit) override {
    ++(hit ? stats_->joint_hits : stats_->joint_misses);
  }

 private:
  const AnalysisResult* prev_;  ///< last completed result; null before the first
  bool windows_dirty_;
  bool demand_dirty_;
  bool structure_dirty_;
  bool platform_dirty_;
  BlockScanCache* blocks_;
  LintPassSlices* lint_slices_;  ///< the session's per-pass slice store
  SessionStats* stats_;
};

}  // namespace

AnalysisSession::AnalysisSession(Application app, AnalysisOptions options,
                                 const DedicatedPlatform* platform)
    : app_(std::move(app)),
      options_(options),
      platform_(platform ? std::optional<DedicatedPlatform>(*platform) : std::nullopt),
      verify_(default_verify()) {}

namespace {

/// The session's lowering path: template lint first (E5xx always refuses,
/// mirroring analyze(catalog, workload, ...)), then a validation-free
/// lowering of the now-known-clean templates.
Application lint_and_lower(const ResourceCatalog& catalog, const Workload& workload,
                           const DedicatedPlatform* platform) {
  LintResult wl = lint_workload(catalog, workload, platform);
  if (wl.has_errors()) throw LintGateError(std::move(wl));
  LowerOptions lower;
  lower.validate = false;
  Application app = lower_workload(catalog, workload, lower);
  app.validate();
  return app;
}

/// The no-op detector's currency: the lowered application's bytes (an empty
/// platform keeps the comparison app-only -- platform deltas have their own
/// mutator).
std::string lowered_fingerprint(const Application& app) {
  return serialize_instance(app, DedicatedPlatform{});
}

}  // namespace

AnalysisSession::AnalysisSession(const ResourceCatalog& catalog, Workload workload,
                                 AnalysisOptions options, const DedicatedPlatform* platform)
    : catalog_(std::make_unique<ResourceCatalog>(catalog)),
      workload_(std::move(workload)),
      app_(lint_and_lower(*catalog_, *workload_, platform)),
      options_(options),
      platform_(platform ? std::optional<DedicatedPlatform>(*platform) : std::nullopt),
      verify_(default_verify()) {
  lowered_bytes_ = lowered_fingerprint(app_);
}

Transaction& AnalysisSession::require_transaction(const std::string& name) {
  if (!workload_) {
    throw ModelError("template delta on a session over a flat Application");
  }
  for (Transaction& tr : workload_->transactions) {
    if (tr.name == name) return tr;
  }
  throw ModelError("unknown transaction '" + name + "'");
}

void AnalysisSession::relower_workload() {
  Application app = lint_and_lower(*catalog_, *workload_, platform());
  std::string bytes = lowered_fingerprint(app);
  if (bytes == lowered_bytes_) return;  // lowers identically: keep everything
  lowered_bytes_ = std::move(bytes);
  replace_application(std::move(app));
}

void AnalysisSession::set_transaction_period(const std::string& transaction, Time period) {
  Transaction& tr = require_transaction(transaction);
  if (tr.period == period) return;
  const Time previous = tr.period;
  tr.period = period;
  try {
    relower_workload();
  } catch (...) {
    tr.period = previous;  // keep the session consistent on refusal
    throw;
  }
}

void AnalysisSession::set_transaction_offset(const std::string& transaction, Time offset) {
  Transaction& tr = require_transaction(transaction);
  if (tr.offset == offset) return;
  const Time previous = tr.offset;
  tr.offset = offset;
  try {
    relower_workload();
  } catch (...) {
    tr.offset = previous;
    throw;
  }
}

void AnalysisSession::set_template_comp(const std::string& transaction, const std::string& task,
                                        Time comp) {
  Transaction& tr = require_transaction(transaction);
  TemplateTask* target = nullptr;
  for (TemplateTask& t : tr.tasks) {
    if (t.name == task) target = &t;
  }
  if (!target) {
    throw ModelError("unknown template task '" + task + "' in transaction '" + transaction +
                     "'");
  }
  if (target->comp == comp) return;
  const Time previous = target->comp;
  target->comp = comp;
  try {
    relower_workload();
  } catch (...) {
    target->comp = previous;
    throw;
  }
}

void AnalysisSession::require_valid_task(TaskId i) const {
  if (i >= app_.num_tasks()) {
    throw ModelError("AnalysisSession: task id out of range");
  }
}

void AnalysisSession::set_comp(TaskId i, Time comp) {
  require_valid_task(i);
  if (app_.task(i).comp == comp) return;
  app_.task(i).comp = comp;
  windows_dirty_ = true;  // C_i feeds the EST/LCT recurrences...
  demand_dirty_ = true;   // ...and Theta directly.
}

void AnalysisSession::set_release(TaskId i, Time release) {
  require_valid_task(i);
  if (app_.task(i).release == release) return;
  app_.task(i).release = release;
  windows_dirty_ = true;
}

void AnalysisSession::set_deadline(TaskId i, Time deadline) {
  require_valid_task(i);
  if (app_.task(i).deadline == deadline) return;
  app_.task(i).deadline = deadline;
  windows_dirty_ = true;
}

void AnalysisSession::set_preemptive(TaskId i, bool preemptive) {
  require_valid_task(i);
  if (app_.task(i).preemptive == preemptive) return;
  app_.task(i).preemptive = preemptive;
  demand_dirty_ = true;  // Theorem 3 vs 4 overlap; the windows never read it.
}

void AnalysisSession::set_message(TaskId from, TaskId to, Time msg_size) {
  require_valid_task(from);
  require_valid_task(to);
  bool exists = false;
  for (TaskId s : app_.successors(from)) exists |= s == to;
  if (!exists) {
    throw ModelError("set_message: no edge " + std::to_string(from) + " -> " +
                     std::to_string(to));
  }
  if (app_.message(from, to) == msg_size) return;
  app_.set_message(from, to, msg_size);
  windows_dirty_ = true;
}

void AnalysisSession::set_platform(const DedicatedPlatform* platform) {
  platform_ = platform ? std::optional<DedicatedPlatform>(*platform) : std::nullopt;
  platform_dirty_ = true;
  // Only the dedicated merge oracle consults the menu; under the shared
  // model a platform swap re-solves the ILP against unchanged bounds.
  if (options_.model == SystemModel::Dedicated) windows_dirty_ = true;
}

void AnalysisSession::replace_application(Application app) {
  app_ = std::move(app);
  windows_dirty_ = true;
  demand_dirty_ = true;
  structure_dirty_ = true;
}

const AnalysisResult& AnalysisSession::analyze() {
  const bool dedicated = options_.model == SystemModel::Dedicated;
  if (dedicated && !platform_) {
    throw ModelError("analyze: dedicated model requires a platform");
  }

  if (have_result_ && !windows_dirty_ && !demand_dirty_ && !structure_dirty_ &&
      !platform_dirty_) {
    ++stats_.queries;
    ++stats_.query_hits;
    // The tripwire covers served-from-cache queries too: re-judge the cached
    // certificate against the live model so a stale or corrupted cache entry
    // cannot be handed out as verified.
    if (options_.check_certificates && result_.certificate) {
      CheckReport report = check_certificate(*result_.certificate, app_, platform());
      if (!report.valid) throw CertificateCheckError(std::move(report));
      result_.certificate_check = std::move(report);
    }
    return result_;
  }

  // Everything else -- the pre-flight gate (which runs on every non-hit
  // query so refusals and their exception types match a cold call exactly),
  // stage sequencing, certificate emit/check -- is the shared pipeline; the
  // session only answers its reuse questions through SessionStageCache.
  // run_pipeline() builds a fresh result and throws before returning it on
  // any refusal, so `result_` stays untouched until the query completes and
  // a refused query leaves the session serving its last completed state.
  SessionStageCache cache(have_result_ ? &result_ : nullptr, windows_dirty_,
                          demand_dirty_, structure_dirty_, platform_dirty_,
                          block_cache_, lint_slices_, stats_);
  AnalysisResult next = run_pipeline(app_, options_, platform(), cache);

  if (verify_) {
    // The cross-check must not re-trace: a traced cold run would double
    // every span in the caller's Trace.
    AnalysisOptions cold_options = options_;
    cold_options.trace = nullptr;
    const AnalysisResult cold = rtlb::analyze(app_, cold_options, platform());
    RTLB_CHECK(report_string(app_, next) == report_string(app_, cold),
               "AnalysisSession result diverged from cold analyze()");
    RTLB_CHECK(same_joint_exact(next.joint, cold.joint),
               "AnalysisSession joint bounds diverged from cold analyze()");
    ++stats_.verified;
  }

  result_ = std::move(next);
  have_result_ = true;
  windows_dirty_ = demand_dirty_ = structure_dirty_ = platform_dirty_ = false;
  ++stats_.queries;
  return result_;
}

SessionStats AnalysisSession::stats() const {
  SessionStats s = stats_;
  s.block_hits = block_cache_.hits();
  s.block_misses = block_cache_.misses();
  return s;
}

}  // namespace rtlb
