#include "requests.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "src/verify/certificate.hpp"
#include "src/verify/checker.hpp"
#include "src/workload/taskset_gen.hpp"
#include "src/workload/workload.hpp"

namespace rtlbench {

using rtlb::Time;

rtlb::AnalysisOptions engine_options(bool dedicated) {
  rtlb::AnalysisOptions options;
  options.model = dedicated ? rtlb::SystemModel::Dedicated : rtlb::SystemModel::Shared;
  options.lower_bound.num_threads = kEngineThreads;
  options.lower_bound.enable_pruning = true;
  options.lint_level = rtlb::LintLevel::kReport;
  options.emit_certificates = true;
  return options;
}

double now_ms() {
  using namespace std::chrono;
  return duration<double, std::milli>(steady_clock::now().time_since_epoch()).count();
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (value >> (8 * byte)) & 0xffU;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t result_digest(const rtlb::AnalysisResult& result) {
  std::uint64_t h = fnv1a("");
  for (const rtlb::ResourceBound& b : result.bounds) {
    h = fnv_mix(h, b.resource);
    h = fnv_mix(h, static_cast<std::uint64_t>(b.bound));
    h = fnv_mix(h, static_cast<std::uint64_t>(b.peak_density.num));
    h = fnv_mix(h, static_cast<std::uint64_t>(b.peak_density.den));
  }
  h = fnv_mix(h, static_cast<std::uint64_t>(result.shared_cost.total));
  h = fnv_mix(h, result.dedicated_cost.has_value());
  if (result.dedicated_cost) {
    h = fnv_mix(h, result.dedicated_cost->feasible);
    h = fnv_mix(h, static_cast<std::uint64_t>(result.dedicated_cost->total));
    for (std::int64_t x : result.dedicated_cost->node_counts) {
      h = fnv_mix(h, static_cast<std::uint64_t>(x));
    }
  }
  return h;
}

BlockShape block_shape(const rtlb::AnalysisResult& result) {
  BlockShape shape;
  std::vector<Time> points;
  for (const rtlb::ResourcePartition& p : result.partitions) {
    for (const rtlb::PartitionBlock& block : p.blocks) {
      ++shape.blocks;
      shape.widest = std::max(shape.widest, block.tasks.size());
      points.clear();
      for (rtlb::TaskId t : block.tasks) {
        points.push_back(result.windows.est[t]);
        points.push_back(result.windows.lct[t]);
      }
      std::sort(points.begin(), points.end());
      const auto m = static_cast<std::uint64_t>(
          std::unique(points.begin(), points.end()) - points.begin());
      shape.candidate_pairs += m * (m - 1) / 2;
    }
  }
  return shape;
}

CheckOutcome check_independently(const rtlb::Certificate& cert, const rtlb::Application& app,
                                 const rtlb::DedicatedPlatform* platform, bool corrupt) {
  rtlb::Certificate planted;
  const rtlb::Certificate* subject = &cert;
  if (corrupt) {
    planted = cert;
    if (!planted.bounds.empty()) {
      planted.bounds.front().bound += 1;
    } else {
      planted.shared_cost.total += 1;
    }
    subject = &planted;
  }
  CheckOutcome outcome;
  const double start = now_ms();
  std::string text = rtlb::certificate_json(*subject).dump();
  const rtlb::Certificate parsed = rtlb::parse_certificate_text(text);
  outcome.valid = rtlb::check_certificate(parsed, app, platform).valid;
  outcome.ms = now_ms() - start;
  outcome.json = std::move(text);
  return outcome;
}

// -- Cold workloads -----------------------------------------------------------

namespace {

constexpr rtlb::GraphShape kSmallShapes[] = {
    rtlb::GraphShape::Layered, rtlb::GraphShape::ForkJoin, rtlb::GraphShape::SeriesParallel};

/// Generate one item; `dedicated` keeps the derived node-type menu, the
/// shared model drops it. `kind` is nullopt for a flat instance.
ColdItem make_item(const rtlb::WorkloadParams& params, std::optional<rtlb::ReleaseKind> kind,
                   bool dedicated) {
  ColdItem item;
  item.recurrent = kind.has_value();
  item.inst = kind ? rtlb::generate_recurrent_instance(params, *kind)
                   : rtlb::generate_workload(params);
  if (!dedicated) item.inst.platform = rtlb::DedicatedPlatform{};
  if (!item.recurrent) {
    // Flat requests start from the text; drop the generated model.
    item.text = rtlb::serialize_instance(*item.inst.app, item.inst.platform);
    item.inst = rtlb::ProblemInstance{};
  }
  return item;
}

}  // namespace

std::vector<ColdItem> make_many_small(std::uint64_t seed, Size size) {
  // 18 categories (flat/periodic/sporadic x three shapes x two models),
  // interleaved so every stretch of the stream mixes them, with template
  // sizes on a fixed 8..32 ladder: the seed changes structure, not the mix.
  const std::size_t rounds = size == Size::kFull ? 64 : 1;
  std::vector<ColdItem> items;
  for (std::size_t i = 0; i < 18 * rounds; ++i) {
    const std::size_t category = i % 18;
    const std::size_t round = i / 18;
    rtlb::WorkloadParams p;
    p.seed = rtlb::split_seed(seed, 1, i);
    p.shape = kSmallShapes[(category / 3) % 3];
    p.num_tasks = 8 + (round * 7) % 25;
    p.num_layers = std::max<std::size_t>(2, p.num_tasks / 5);
    p.num_resources = 2 + round % 2;
    p.release_spread = 0.2;
    p.preemptive_prob = 0.2;
    std::optional<rtlb::ReleaseKind> kind;
    if (category % 3 == 1) kind = rtlb::ReleaseKind::kPeriodic;
    if (category % 3 == 2) kind = rtlb::ReleaseKind::kSporadic;
    items.push_back(make_item(p, kind, category >= 9));
  }
  return items;
}

std::vector<ColdItem> make_few_large(std::uint64_t seed, Size size) {
  // Task counts on a fixed ladder over [lo, hi]; wide windows (laxity >= 3
  // plus a release spread) so each contended resource's tasks chain into
  // wide Theorem-5 blocks.
  constexpr std::size_t kLadder = 24;
  const std::size_t rounds = size == Size::kFull ? 5 : 1;
  const std::size_t lo = size == Size::kFull ? 200 : 60;
  const std::size_t hi = size == Size::kFull ? 600 : 120;
  std::vector<ColdItem> items;
  for (std::size_t k = 0; k < kLadder * rounds; ++k) {
    rtlb::WorkloadParams p;
    p.seed = rtlb::split_seed(seed, 2, k);
    p.shape = rtlb::GraphShape::Layered;
    p.num_tasks = lo + (hi - lo) * (k % kLadder) / (kLadder - 1);
    p.num_layers = std::max<std::size_t>(4, p.num_tasks / 25);
    p.edge_prob = 0.08;
    const std::size_t mix = k + k / kLadder;
    p.laxity = 3.0 + 0.5 * static_cast<double>(mix % 3);
    p.release_spread = 0.5;
    p.num_resources = 3 + mix % 2;
    p.resource_prob = 0.35;
    items.push_back(make_item(p, std::nullopt, true));
  }
  return items;
}

ColdRun run_cold(const ColdItem& item) {
  ColdRun run;
  run.item = &item;
  if (!item.recurrent) {
    run.parsed = rtlb::parse_instance_string(item.text);
    rtlb::lower_instance(*run.parsed);
    run.dedicated = run.parsed->platform.num_node_types() > 0;
    run.result = rtlb::analyze(run.app(), engine_options(run.dedicated), run.platform());
  } else {
    run.dedicated = item.inst.platform.num_node_types() > 0;
    run.result = rtlb::analyze(*item.inst.catalog, item.inst.workload,
                               engine_options(run.dedicated), run.platform());
  }
  return run;
}

// -- Session workload ---------------------------------------------------------

Time moved_value(const HotField& f, std::size_t step) {
  const auto by = static_cast<Time>(step);
  if (step == 0) return f.base;
  switch (f.kind) {
    case DeltaKind::kDeadline:
      return f.base + by;
    case DeltaKind::kComp:
    case DeltaKind::kTemplateComp:
      return std::max<Time>(1, f.base - by);
    case DeltaKind::kRelease:
    case DeltaKind::kMessage:
      return std::max<Time>(0, f.base - by);
    case DeltaKind::kPeriod:
      return 2 * f.base;
  }
  return f.base;
}

namespace {

/// Flat hot fields: tasks picked as bench_session's sweep picks them
/// ((q * 7) mod n from a seeded start), kinds cycling over comp, deadline,
/// release and message.
void pick_flat_fields(rtlb::Rng& rng, SessionSlot& slot) {
  const rtlb::Application& app = slot.session->app();
  std::vector<std::pair<rtlb::TaskId, rtlb::TaskId>> edges;
  for (const auto& entry : app.messages()) edges.push_back(entry.first);
  const std::size_t start = rng.index(app.num_tasks());
  for (std::size_t q = 0; q < kHotFields; ++q) {
    HotField f;
    f.kind = static_cast<DeltaKind>(q % 4);
    if (f.kind == DeltaKind::kMessage && !edges.empty()) {
      f.edge = edges[(start + q * 7) % edges.size()];
      f.base = app.message(f.edge.first, f.edge.second);
      slot.hot.push_back(f);
      continue;
    }
    if (f.kind == DeltaKind::kMessage) f.kind = DeltaKind::kComp;
    f.target = (start + q * 7) % app.num_tasks();
    slot.hot.push_back(f);
    slot.hot.back().base = current_value(slot, slot.hot.size() - 1);
  }
}

/// Recurrent hot fields: the period of up to two transactions whose doubled
/// period does not exceed the longest period (the hyperperiod stays), and
/// template comps picked at random.
void pick_template_fields(rtlb::Rng& rng, SessionSlot& slot) {
  const std::vector<rtlb::Transaction>& transactions = slot.session->workload()->transactions;
  Time max_period = 0;
  for (const rtlb::Transaction& tr : transactions) max_period = std::max(max_period, tr.period);
  for (std::size_t x = 0; x < transactions.size() && slot.hot.size() < 2; ++x) {
    if (2 * transactions[x].period > max_period) continue;
    HotField f;
    f.kind = DeltaKind::kPeriod;
    f.target = x;
    f.base = transactions[x].period;
    slot.hot.push_back(f);
  }
  while (slot.hot.size() < kHotFields) {
    HotField f;
    f.kind = DeltaKind::kTemplateComp;
    f.target = rng.index(transactions.size());
    f.target2 = rng.index(transactions[f.target].tasks.size());
    f.base = transactions[f.target].tasks[f.target2].comp;
    slot.hot.push_back(f);
  }
}

SessionSlot make_slot(const rtlb::WorkloadParams& p, std::optional<rtlb::ReleaseKind> kind,
                      bool dedicated) {
  SessionSlot slot;
  slot.recurrent = kind.has_value();
  slot.item = make_item(p, kind, dedicated);
  const rtlb::ProblemInstance* inst = &slot.item.inst;
  if (!slot.recurrent) {
    // Flat sessions are built from the instance's .rtlb text.
    slot.parsed = std::make_unique<rtlb::ProblemInstance>(
        rtlb::parse_instance_string(slot.item.text));
    inst = slot.parsed.get();
  }
  slot.dedicated = inst->platform.num_node_types() > 0;
  const rtlb::AnalysisOptions options = engine_options(slot.dedicated);
  const rtlb::DedicatedPlatform* platform = slot.dedicated ? &inst->platform : nullptr;
  slot.session = slot.recurrent
                     ? std::make_unique<rtlb::AnalysisSession>(*inst->catalog, inst->workload,
                                                               options, platform)
                     : std::make_unique<rtlb::AnalysisSession>(*inst->app, options, platform);
  // No cold cross-check per query, whatever RTLB_SESSION_VERIFY says: the
  // benchmark measures the session path and checks its answers itself.
  slot.session->set_verify(false);
  rtlb::Rng rng(rtlb::split_seed(p.seed, 9));
  if (slot.recurrent) {
    pick_template_fields(rng, slot);
  } else {
    pick_flat_fields(rng, slot);
  }
  return slot;
}

}  // namespace

std::vector<SessionSlot> make_sessions(std::uint64_t seed, Size size) {
  const std::size_t flat_tasks = size == Size::kFull ? 200 : 50;
  const std::size_t template_tasks = size == Size::kFull ? 60 : 16;
  // Flat dedicated, flat shared, periodic dedicated, sporadic shared, over
  // and over. The heavy requests (template deltas re-lower the instance) set
  // the tail, so enough recurrent sessions that no single one's lowered size
  // decides it.
  const std::size_t sessions = size == Size::kFull ? 16 : 4;
  std::vector<SessionSlot> slots;
  for (std::size_t k = 0; k < sessions; ++k) {
    rtlb::WorkloadParams p;
    p.seed = rtlb::split_seed(seed, 3, k);
    p.shape = rtlb::GraphShape::Layered;
    p.laxity = 3.0;
    p.num_resources = 3;
    p.resource_prob = 0.35;
    std::optional<rtlb::ReleaseKind> kind;
    if (k % 4 < 2) {
      p.num_tasks = flat_tasks;
      p.num_layers = flat_tasks / 20;
      p.edge_prob = 0.1;
      p.release_spread = 0.3;
    } else {
      p.num_tasks = template_tasks;
      p.num_layers = 4;
      kind = k % 4 == 2 ? rtlb::ReleaseKind::kPeriodic : rtlb::ReleaseKind::kSporadic;
      // The generator's harmonic period draws spread the lowered size over
      // 60..330 tasks, so the seed would set the workload's cost. Keep the
      // first instance that lowers to within a tenth of the flat size (a
      // quarter at the self-test size, whose few templates lower coarsely).
      const std::size_t tolerance = flat_tasks / (size == Size::kFull ? 10 : 4);
      for (std::uint64_t attempt = 1;; ++attempt) {
        const std::size_t lowered = rtlb::generate_recurrent_instance(p, *kind).app->num_tasks();
        if (lowered + tolerance >= flat_tasks && lowered <= flat_tasks + tolerance) break;
        if (attempt == 1000) throw std::runtime_error("no recurrent instance of the session size");
        p.seed = rtlb::split_seed(rtlb::split_seed(seed, 3, k), attempt);
      }
    }
    slots.push_back(make_slot(p, kind, k % 2 == 0));
  }
  for (SessionSlot& slot : slots) {
    const rtlb::AnalysisResult& first = slot.session->analyze();
    slot.first_digest = result_digest(first);
    slot.first_cert = fnv1a(rtlb::certificate_json(*first.certificate).dump());
    slot.est = first.windows.est;
    slot.lct = first.windows.lct;
  }
  return slots;
}

Delta next_delta(std::size_t index, std::vector<SessionSlot>& slots) {
  Delta d;
  d.slot = index % slots.size();
  SessionSlot& slot = slots[d.slot];
  if (slot.pending) {
    d.field = *slot.pending;
    d.value = slot.hot[d.field].base;
    d.revert = true;
    slot.pending.reset();
    return d;
  }
  // Move m is the pair (m mod F, (m div F + m mod F) mod kSteps): every
  // (field, step) pair once per F * kSteps moves, with the no-op steps
  // spread over the cycle instead of bunched.
  const std::size_t m = slot.moves++;
  const std::size_t fields = slot.hot.size();
  d.field = m % fields;
  d.value = moved_value(slot.hot[d.field], (m / fields + d.field) % kSteps);
  if (d.value != current_value(slot, d.field)) slot.pending = d.field;
  return d;
}

Time current_value(const SessionSlot& slot, std::size_t field) {
  const rtlb::AnalysisSession& s = *slot.session;
  const HotField& f = slot.hot[field];
  const auto task = static_cast<rtlb::TaskId>(f.target);
  switch (f.kind) {
    case DeltaKind::kComp:
      return s.app().task(task).comp;
    case DeltaKind::kDeadline:
      return s.app().task(task).deadline;
    case DeltaKind::kRelease:
      return s.app().task(task).release;
    case DeltaKind::kMessage:
      return s.app().message(f.edge.first, f.edge.second);
    case DeltaKind::kPeriod:
      return s.workload()->transactions[f.target].period;
    case DeltaKind::kTemplateComp:
      return s.workload()->transactions[f.target].tasks[f.target2].comp;
  }
  return 0;
}

void apply_delta(SessionSlot& slot, const Delta& d) {
  rtlb::AnalysisSession& s = *slot.session;
  const HotField& f = slot.hot[d.field];
  const auto task = static_cast<rtlb::TaskId>(f.target);
  switch (f.kind) {
    case DeltaKind::kComp:
      s.set_comp(task, d.value);
      break;
    case DeltaKind::kDeadline:
      s.set_deadline(task, d.value);
      break;
    case DeltaKind::kRelease:
      s.set_release(task, d.value);
      break;
    case DeltaKind::kMessage:
      s.set_message(f.edge.first, f.edge.second, d.value);
      break;
    case DeltaKind::kPeriod:
      s.set_transaction_period(s.workload()->transactions[f.target].name, d.value);
      break;
    case DeltaKind::kTemplateComp: {
      const rtlb::Transaction& tr = s.workload()->transactions[f.target];
      s.set_template_comp(tr.name, tr.tasks[f.target2].name, d.value);
      break;
    }
  }
}

}  // namespace rtlbench
