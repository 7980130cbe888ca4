// The standard lint passes, individually callable (Application::validate()
// runs structural_lint_pass alone; the Linter runs all of them in order).
// Each pass appends to the sink and never mutates the model.
#pragma once

#include "src/lint/linter.hpp"

namespace rtlb {

/// RTLB-E001..E009: per-task scalar checks (computation time, catalog ids,
/// release/deadline window), duplicate non-empty task names, precedence
/// cycles. Subsumes every check of the historical Application::validate();
/// the diagnostic wording is the single source of truth for both paths.
void structural_lint_pass(const LintContext& ctx, DiagnosticSink& sink);

/// RTLB-E101/W102: EST/LCT-derived window collapse (Theorems 1-2 certify
/// that a negative slack is infeasible on ANY system) and zero-slack
/// non-preemptive tasks. Requires ctx.windows.
void temporal_lint_pass(const LintContext& ctx, DiagnosticSink& sink);

/// RTLB-W201/E202/W203: catalog resources no task references; dedicated
/// model -- tasks no node type can host (Eq. 7.2 infeasible) and node types
/// that host nothing.
void platform_lint_pass(const LintContext& ctx, DiagnosticSink& sink);

/// RTLB-E301/W302: per-resource demand sums that overflow Time, and task
/// timings beyond kTimeMax.
void numeric_lint_pass(const LintContext& ctx, DiagnosticSink& sink);

/// RTLB-W401/N402/N403: isolated tasks (in a DAG that has edges), zero-size
/// messages, single-block partitions. Requires ctx.partitions for N403.
void hygiene_lint_pass(const LintContext& ctx, DiagnosticSink& sink);

}  // namespace rtlb
