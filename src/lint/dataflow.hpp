// DAG dataflow lint pass (layer 2 of the semantic lint engine): path-level
// diagnostics over the precedence graph, where the interesting real-time
// findings live (the window machinery of Figs. 2-3 is itself a dataflow
// computation, so the linter reasons the same way).
//
//   RTLB-N421  transitively redundant zero-message edge: the ordering is
//              already implied by the remaining edges (Dag::transitive_
//              reduction -- unique for DAGs) and deleting it is free.
//   RTLB-N422  a task whose derived window is fully inherited from a
//              dominating constraint chain: neither its release nor its
//              deadline binds. The chain is named via core/explain's binding
//              walkers, with the critical-chain slack profile (minimum slack
//              along the chain and the task attaining it).
//   RTLB-N423  dead latency constraint: an edge message that can never be
//              the binding term of either adjacent window -- on the EST side
//              its largest possible contribution is dominated by the other
//              constraints' floor, on the LCT side its smallest possible
//              send-deadline is dominated by the ceiling (proved from the
//              absint intervals, so it holds for every merge decision).
//
// N421 needs only the graph (ctx.topo, ctx.messages); N422/N423 need
// ctx.windows and ctx.absint and are skipped when the driver could not
// compute them.
#pragma once

#include "src/lint/linter.hpp"

namespace rtlb {

void dataflow_lint_pass(const LintContext& ctx, DiagnosticSink& sink);

}  // namespace rtlb
