#include "traced.hpp"

#include "src/common/thread_pool.hpp"
#include "src/core/pipeline.hpp"
#include "src/lint/recurrent.hpp"
#include "src/verify/emit.hpp"
#include "src/workload/workload.hpp"

namespace rtlbench {

int layer_of(const std::string& span_name) {
  for (int l = 0; l < kNumLayers; ++l) {
    if (span_name == kLayerNames[l]) return l;
  }
  return kNumLayers;
}

TracedOutcome run_cold_traced(const ColdItem& item, rtlb::Trace& trace, std::uint32_t request,
                              bool corrupt) {
  TracedOutcome out;
  LayerCounts& counts = out.counts;
  // The root closes before the untimed work counting below.
  std::optional<rtlb::ScopedSpan> root;
  root.emplace(&trace, kRootSpan);
  root->count("request", request);

  std::optional<rtlb::ProblemInstance> parsed;
  std::optional<rtlb::Application> lowered;
  std::optional<rtlb::LintResult> template_lint;
  const rtlb::Application* app = nullptr;
  bool dedicated = false;
  if (!item.recurrent) {
    {
      const rtlb::ScopedSpan span(&trace, kLayerNames[kParse]);
      parsed = rtlb::parse_instance_string(item.text);
    }
    {
      const rtlb::ScopedSpan span(&trace, kLayerNames[kLower]);
      rtlb::lower_instance(*parsed);
    }
    app = parsed->app.get();
    dedicated = parsed->platform.num_node_types() > 0;
    counts.input_kb = static_cast<double>(item.text.size()) / 1024.0;
  } else {
    // The steps analyze(catalog, workload) takes: lint the templates
    // (errors always refuse), lower without re-validating, validate.
    dedicated = item.inst.platform.num_node_types() > 0;
    const rtlb::DedicatedPlatform* platform = dedicated ? &item.inst.platform : nullptr;
    {
      const rtlb::ScopedSpan span(&trace, kLayerNames[kLint]);
      template_lint = rtlb::lint_workload(*item.inst.catalog, item.inst.workload, platform);
      if (template_lint->has_errors() ||
          rtlb::lint_gate_refuses(*template_lint, rtlb::LintLevel::kReport)) {
        throw rtlb::LintGateError(std::move(*template_lint));
      }
    }
    {
      const rtlb::ScopedSpan span(&trace, kLayerNames[kLower]);
      rtlb::LowerOptions lower;
      lower.validate = false;
      lowered = rtlb::lower_workload(*item.inst.catalog, item.inst.workload, lower);
      lowered->validate();
    }
    app = &*lowered;
  }
  const rtlb::DedicatedPlatform* platform =
      !dedicated ? nullptr : (parsed ? &parsed->platform : &item.inst.platform);
  const rtlb::AnalysisOptions options = engine_options(dedicated);
  out.dedicated = dedicated;
  counts.lowered_tasks = app->num_tasks();

  rtlb::AnalysisResult result;
  result.lb_options = options.lower_bound;
  {
    const rtlb::ScopedSpan span(&trace, kLayerNames[kLint]);
    result.lint = rtlb::run_lint_gate(*app, platform, options.lint_level).lint;
    if (template_lint) {
      result.lint = rtlb::merge_lint_results(std::move(*template_lint), std::move(*result.lint));
    }
  }
  counts.findings = result.lint->diagnostics.size();

  const std::uint64_t pool_before = rtlb::ThreadPool::tasks_dispatched();
  {
    const rtlb::ScopedSpan span(&trace, kLayerNames[kWindows]);
    if (dedicated) {
      const rtlb::DedicatedMergeOracle oracle(*platform);
      result.windows = rtlb::compute_windows(*app, oracle, options.lower_bound.num_threads);
    } else {
      const rtlb::SharedMergeOracle oracle;
      result.windows = rtlb::compute_windows(*app, oracle, options.lower_bound.num_threads);
    }
  }
  {
    const rtlb::ScopedSpan span(&trace, kLayerNames[kPartitions]);
    result.partitions = rtlb::partition_all(*app, result.windows);
  }
  {
    const rtlb::ScopedSpan span(&trace, kLayerNames[kBounds]);
    result.bounds = rtlb::all_resource_bounds(*app, result.windows, options.lower_bound);
  }
  counts.pool_tasks = rtlb::ThreadPool::tasks_dispatched() - pool_before;
  result.rebuild_bound_index();
  {
    const rtlb::ScopedSpan span(&trace, kLayerNames[kCost]);
    result.shared_cost = rtlb::shared_cost_bound(*app, result.bounds);
    if (platform != nullptr) {
      result.dedicated_cost = rtlb::dedicated_cost_bound(*app, *platform, result.bounds);
    }
  }
  {
    const rtlb::ScopedSpan span(&trace, kLayerNames[kEmit]);
    result.certificate = rtlb::build_certificate(*app, options, platform, result);
  }
  {
    const rtlb::ScopedSpan span(&trace, kLayerNames[kCheck]);
    out.check = check_independently(*result.certificate, *app, platform, corrupt);
  }
  root.reset();

  const BlockShape shape = block_shape(result);
  counts.blocks = shape.blocks;
  counts.block_tasks_max = shape.widest;
  counts.candidate_pairs = shape.candidate_pairs;
  for (const rtlb::ResourceBound& b : result.bounds) {
    counts.intervals_evaluated += b.intervals_evaluated;
  }
  if (result.dedicated_cost) counts.ilp_nodes = result.dedicated_cost->ilp_nodes;
  counts.cert_kb = static_cast<double>(out.check.json.size()) / 1024.0;
  out.digest = result_digest(result);
  return out;
}

}  // namespace rtlbench
