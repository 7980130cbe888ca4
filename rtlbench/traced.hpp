// The traced replay: the same requests, composed from each module's public
// functions with a span of the benchmark's own around every call.
//
// A cold request becomes, in turn,
//   model.parse      parse_instance_string            (flat)
//   workload.lower   lower_instance / lower_workload
//   lint.gate        lint_workload (recurrent) + run_lint_gate
//   core.windows     compute_windows
//   core.partitions  partition_all
//   core.bounds      all_resource_bounds
//   lp.cost          shared_cost_bound + dedicated_cost_bound
//   verify.emit      build_certificate
//   verify.check     certificate JSON -> parse_certificate_text -> check_certificate
// under one "request" root span; a session request is session.delta +
// session.query + verify.check. The spans go on an rtlb::Trace: the root
// carries the request id as a counter and every layer span records the root
// as its parent. The trace stays in memory and is written once, at the end,
// as Chrome trace-event JSON (Trace::chrome_json).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "requests.hpp"
#include "src/obs/trace.hpp"

namespace rtlbench {

/// Every layer a span can name, in pipeline order (kLayerNames[Layer]).
enum Layer : int {
  kParse, kLower, kLint, kWindows, kPartitions, kBounds, kCost, kEmit, kCheck, kDelta, kQuery,
  kNumLayers,
};
inline constexpr const char* kLayerNames[kNumLayers] = {
    "model.parse",     "workload.lower", "lint.gate", "core.windows",
    "core.partitions", "core.bounds",    "lp.cost",   "verify.emit",
    "verify.check",    "session.delta",  "session.query",
};
/// Name of a request's root span; its "request" counter holds the request
/// id, and every layer span below it names the root as its parent.
inline constexpr const char* kRootSpan = "request";

/// The Layer a span name stands for; kNumLayers for the root.
int layer_of(const std::string& span_name);

/// Work counts of one traced cold request.
struct LayerCounts {
  double input_kb = 0;
  std::size_t lowered_tasks = 0;
  std::size_t findings = 0;
  std::size_t blocks = 0;
  std::size_t block_tasks_max = 0;
  std::uint64_t intervals_evaluated = 0;
  std::uint64_t candidate_pairs = 0;
  std::uint64_t pool_tasks = 0;
  std::int64_t ilp_nodes = 0;
  double cert_kb = 0;
};

struct TracedOutcome {
  std::uint64_t digest = 0;
  bool dedicated = false;
  CheckOutcome check;
  LayerCounts counts;
};

/// Compose one cold request from the module functions, spanned under a
/// kRootSpan root on `trace`. The composed result is what analyze() returns
/// for the same item; the caller compares the digests.
TracedOutcome run_cold_traced(const ColdItem& item, rtlb::Trace& trace, std::uint32_t request,
                              bool corrupt);

}  // namespace rtlbench
