// The benchmark's inputs and requests: seeded generation of the three
// workloads and one request of each kind, through the library's public
// entry points only.
//
//   many_small      cold analysis of 8-32-template-task instances (flat,
//                   periodic, sporadic; three DAG shapes; both models)
//   few_large       cold analysis of 200-600-task flat DAGs with wide windows
//                   and 3-4 contended resources
//   session_deltas  one move or revert + analyze() on AnalysisSessions over
//                   ~200-task instances, flat and recurrent
//
// Every request runs with the same engine configuration (engine_options).
// The seed is the only source of randomness: equal seeds give equal inputs,
// equal delta streams, and so equal result digests.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/random.hpp"
#include "src/core/analysis.hpp"
#include "src/core/session.hpp"
#include "src/model/io.hpp"

namespace rtlbench {

/// Worker threads of the bound and windows engines. One: on a 4-vCPU share
/// of a busy host, every parallel section waits for its slowest vCPU to be
/// scheduled, and runs with 2 or 4 threads measured the host (README.md).
inline constexpr int kEngineThreads = 1;

/// The one engine configuration of every request: 1 thread, pruning on,
/// lint gate at kReport, certificates emitted (the independent checker runs
/// separately, as a person running rtlb_check would). The dedicated model
/// when the instance has node types, the shared model otherwise.
rtlb::AnalysisOptions engine_options(bool dedicated);

/// Milliseconds on the steady clock.
double now_ms();

/// FNV-1a over `bytes`, continuing from `h`.
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = 1469598103934665603ULL);
/// Fold one 64-bit value into a running FNV-1a digest.
std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t value);

/// Digest of what one analysis proved: every LB_r with its peak density,
/// the Eq. 7.1 cost, and the Eq. 7.2 cost with its assembly.
std::uint64_t result_digest(const rtlb::AnalysisResult& result);

/// Theorem-5 block geometry of one result: block count, the widest block,
/// and the candidate (t1 < t2) pairs over each block's distinct E/L points.
struct BlockShape {
  std::size_t blocks = 0;
  std::size_t widest = 0;
  std::uint64_t candidate_pairs = 0;
};
BlockShape block_shape(const rtlb::AnalysisResult& result);

/// The independent checker's path on one certificate: serialize to JSON,
/// parse it back with parse_certificate_text, and check_certificate. With
/// `corrupt` set, a copy with one falsified bound is checked instead (the
/// self-test's planted fault).
struct CheckOutcome {
  bool valid = false;
  double ms = 0;
  std::string json;  ///< the certificate text the checker parsed
};
CheckOutcome check_independently(const rtlb::Certificate& cert, const rtlb::Application& app,
                                 const rtlb::DedicatedPlatform* platform, bool corrupt);

/// How large the generated inputs are. kSmall is the self-test size.
enum class Size { kFull, kSmall };

// -- Cold requests (many_small, few_large) ---------------------------------

/// One generated instance. Flat instances travel as .rtlb text and are
/// parsed in every request; recurrent ones (serialize_instance is
/// flat-only) keep their templates and go through analyze(catalog,
/// workload), so lowering happens inside the request. `inst.app` holds the
/// generator's lowering of a recurrent instance, which the checker is
/// given, as rtlb_check would lower the file itself.
struct ColdItem {
  bool recurrent = false;
  std::string text;
  rtlb::ProblemInstance inst;
};

std::vector<ColdItem> make_many_small(std::uint64_t seed, Size size);
std::vector<ColdItem> make_few_large(std::uint64_t seed, Size size);

/// The result of one cold request plus what it analyzed.
struct ColdRun {
  const ColdItem* item = nullptr;
  std::optional<rtlb::ProblemInstance> parsed;  ///< flat requests
  bool dedicated = false;
  rtlb::AnalysisResult result;

  const rtlb::Application& app() const { return parsed ? *parsed->app : *item->inst.app; }
  const rtlb::DedicatedPlatform* platform() const {
    if (!dedicated) return nullptr;
    return parsed ? &parsed->platform : &item->inst.platform;
  }
};

/// One untraced cold request: parse + lower_instance + analyze() for flat
/// items, analyze(catalog, workload) for recurrent ones.
ColdRun run_cold(const ColdItem& item);

// -- Session requests (session_deltas) -------------------------------------
//
// The stream follows the repo's own AnalysisSession callers. Every move is
// the delta sweep of bench/bench_session.cpp (the synthesis/annealing inner
// loop): one field moves 1..5 time units from its generated value, and the
// next query evaluates the move. A move is then reverted, as the session
// oracle of src/fleet/runner.cpp does (mutate, query, revert, query). One
// move in six is a step of 0, a no-op, which neither caller makes; it is
// there so the session's no-op detection is on the measured path.

enum class DeltaKind { kComp, kDeadline, kRelease, kMessage, kPeriod, kTemplateComp };

/// A field the stream moves away from its generated value and back.
struct HotField {
  DeltaKind kind = DeltaKind::kComp;
  std::size_t target = 0;   ///< task, or transaction index
  std::size_t target2 = 0;  ///< template task index (kTemplateComp)
  std::pair<rtlb::TaskId, rtlb::TaskId> edge{};  ///< kMessage
  rtlb::Time base = 0;  ///< the generated value
};

/// Fields per session the stream moves, and the steps a move can take
/// (0..kSteps-1). A session's moves run through every (field, step) pair in
/// a fixed cycle, so a session has at most 1 + kHotFields * (kSteps - 1)
/// states and its caches stop growing once the warm-up has visited them.
inline constexpr std::size_t kHotFields = 12;
inline constexpr std::size_t kSteps = 6;

/// The value of `field` after a move of `step` from its generated value.
/// Every move relaxes the instance -- a deadline later; a comp, release or
/// message smaller (clamped at 1 or 0); a period doubled -- so no move
/// makes it infeasible. A clamp can make a move a no-op.
rtlb::Time moved_value(const HotField& field, std::size_t step);

/// One seeded write: set hot field `field` of session `slot` to `value`.
struct Delta {
  std::size_t slot = 0;
  std::size_t field = 0;
  rtlb::Time value = 0;
  bool revert = false;  ///< restores the generated value a move replaced
};

/// A memoized session over one generated instance and the fields its
/// deltas write.
struct SessionSlot {
  bool recurrent = false;
  bool dedicated = false;
  ColdItem item;  ///< the instance as a cold request carries it
  std::unique_ptr<rtlb::ProblemInstance> parsed;  ///< flat: owns the session app's catalog
  std::unique_ptr<rtlb::AnalysisSession> session;
  std::uint64_t first_digest = 0;  ///< result_digest of the first (cold) answer
  std::uint64_t first_cert = 0;    ///< FNV-1a of the first answer's certificate JSON
  std::vector<HotField> hot;
  std::size_t moves = 0;                ///< moves made: the position in the cycle
  std::optional<std::size_t> pending;  ///< the moved field awaiting its revert
  std::vector<rtlb::Time> est, lct;     ///< windows of the previous answer

  /// Every (field, step) pair has been moved and reverted once.
  bool cycled() const { return moves >= hot.size() * kSteps && !pending; }
};

/// Build every session of the workload and serve each one's first cold
/// analyze() (the part of set-up the session workload pays).
std::vector<SessionSlot> make_sessions(std::uint64_t seed, Size size);

/// The delta of request `index`: sessions take turns; a session with a
/// pending move reverts it, otherwise it makes its next move.
Delta next_delta(std::size_t index, std::vector<SessionSlot>& slots);

/// The field's current value (a delta setting it again is a no-op).
rtlb::Time current_value(const SessionSlot& slot, std::size_t field);

/// Apply `delta` to its session (the timed write of a session request).
void apply_delta(SessionSlot& slot, const Delta& delta);

}  // namespace rtlbench
