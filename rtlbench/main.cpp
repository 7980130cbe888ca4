// rtlbench: the repo benchmark harness. One client sends one request at a
// time (a closed loop) for --seconds, checks every answer, and prints the
// end-to-end metrics (--trace 0) or the per-layer breakdown of a traced
// replay (--trace 1). The last line of stdout is the result object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// and the line before it the full report (fingerprint, sample counts,
// input properties). See README.md for the workloads and the metrics.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "requests.hpp"
#include "src/common/json.hpp"
#include "traced.hpp"

using namespace rtlbench;
using rtlb::Json;

namespace {

/// Set-up is repeated this many times per run; setup_s is the median. The
/// machine's speed shifts every few seconds; fifteen back-to-back set-ups
/// span several such phases, where five often fell inside one.
constexpr int kSetupReps = 15;
/// Every run measures at least this many requests (p90 then has ten
/// samples above it), however long that takes.
constexpr std::size_t kMinSamples = 100;
/// The host-speed probe (Probe) runs at most once per this many ms of the
/// measured loop, and after every set-up (a probe of its own).
constexpr double kProbeEveryMs = 50;
/// The probe kernel's median time on the baseline machine (see README.md):
/// times are reported as if every probe had taken this long.
constexpr double kProbeRefMs = 1.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  Size size = Size::kFull;
  std::optional<std::uint64_t> expect_digest;
  long corrupt_request = -1;
  long stale_request = -1;
  std::string spans_path;
  std::string report_path;
  std::string git_sha = "unknown";
  std::string source_sha = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "rtlbench: " << why << "\n"
            << "usage: rtlbench --workload many_small|few_large|session_deltas [--seed N]\n"
            << "                [--seconds S] [--trace 0|1] [--size full|small]\n"
            << "                [--expect-digest HEX] [--corrupt-request K] [--stale-request K]\n"
            << "                [--spans PATH]\n"
            << "                [--report PATH] [--git-sha SHA] [--source-sha SHA]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = std::stoi(value);
      } else if (flag == "--size") {
        if (value != "full" && value != "small") usage("--size must be full or small");
        a.size = value == "full" ? Size::kFull : Size::kSmall;
      } else if (flag == "--expect-digest") {
        a.expect_digest = std::stoull(value, nullptr, 16);
      } else if (flag == "--corrupt-request") {
        a.corrupt_request = std::stol(value);
      } else if (flag == "--stale-request") {
        a.stale_request = std::stol(value);
      } else if (flag == "--spans") {
        a.spans_path = value;
      } else if (flag == "--report") {
        a.report_path = value;
      } else if (flag == "--git-sha") {
        a.git_sha = value;
      } else if (flag == "--source-sha") {
        a.source_sha = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (a.workload != "many_small" && a.workload != "few_large" && a.workload != "session_deltas") {
    usage("unknown workload '" + a.workload + "'");
  }
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  // The library's windows cross-check would time a different program (the
  // sessions' own cross-check is switched off per session).
  const char* reference = std::getenv("RTLB_WINDOWS_REFERENCE");
  if (reference != nullptr && *reference != '\0' && std::string_view(reference) != "0") {
    usage("RTLB_WINDOWS_REFERENCE is set: every compute_windows() call would be cross-checked");
  }
  return a;
}

// -- Statistics ---------------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Harrell-Davis quantile estimate (q in (0, 1)): the mean of all order
/// statistics, the i-th weighted by the Beta(q(n+1), (1-q)(n+1)) mass over
/// [(i-1)/n, i/n]. It varies much less from run to run than the one or two
/// order statistics quantile() interpolates between, which matters when
/// the values are a few hundred per-request medians.
double hd_quantile(std::vector<double> v, double q) {
  const std::size_t n = v.size();
  if (n < 2) return quantile(std::move(v), q);
  std::sort(v.begin(), v.end());
  const double a = q * static_cast<double>(n + 1);
  const double b = (1 - q) * static_cast<double>(n + 1);
  const double log_norm = std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b);
  const auto density = [&](double x) {
    if (x <= 0 || x >= 1) return 0.0;
    return std::exp(log_norm + (a - 1) * std::log(x) + (b - 1) * std::log1p(-x));
  };
  constexpr int kPanels = 16;  // Simpson panels per [(i-1)/n, i/n]
  double sum = 0, mass = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double lo = static_cast<double>(i) / static_cast<double>(n);
    const double h = 1 / static_cast<double>(n * kPanels);
    double w = density(lo) + density(lo + kPanels * h);
    for (int k = 1; k < kPanels; ++k) w += (k % 2 ? 4 : 2) * density(lo + k * h);
    w *= h / 3;
    sum += w * v[i];
    mass += w;
  }
  return sum / mass;
}

/// (steal, total) jiffies of all CPUs from /proc/stat; zeros when absent.
std::pair<double, double> cpu_jiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double field = 0, total = 0, steal = 0;
  stat >> cpu;
  for (int i = 0; i < 10 && stat >> field; ++i) {
    total += field;
    if (i == 7) steal = field;
  }
  return {steal, total};
}

/// Latencies keyed by the request they time: a cold item, or a session's
/// (field, value, move or revert). A workload's stream repeats its requests
/// pass after pass; the end-to-end statistics are taken over each request's
/// median across the run's passes, so every distinct request weighs the
/// same in every run, and a burst of host noise that slows a few passes
/// moves no median. Statistics over time windows would depend on which
/// requests fell in each (many_small's 0.5 s windows differed by up to 40%
/// for that alone).
class KeyedSamples {
 public:
  void add(std::size_t key, double ms) {
    if (key >= by_key_.size()) by_key_.resize(key + 1);
    by_key_[key].push_back(ms);
    ++count_;
  }

  /// Each key's median; 0 keys give an empty vector.
  std::vector<double> medians() const {
    std::vector<double> out;
    for (const std::vector<double>& v : by_key_) {
      if (!v.empty()) out.push_back(quantile(v, 0.5));
    }
    return out;
  }

  std::size_t count() const { return count_; }
  /// Fewest samples of any key: the passes every request was measured in.
  std::size_t passes() const {
    std::size_t fewest = 0;
    bool any = false;
    for (const std::vector<double>& v : by_key_) {
      if (v.empty()) continue;
      fewest = any ? std::min(fewest, v.size()) : v.size();
      any = true;
    }
    return fewest;
  }

 private:
  std::vector<std::vector<double>> by_key_;
  std::size_t count_ = 0;
};

/// The probe kernel: a fixed piece of the benchmark's own work -- random
/// fill, sort, ordered-map inserts, 128-bit products; the operations the
/// analysis code is made of -- that no change to the library can move.
/// Returns its time in ms.
double probe_kernel_ms() {
  static volatile std::uint64_t sink = 0;
  const double start = now_ms();
  std::uint64_t x = 0x243f6a8885a308d3ULL;
  std::vector<std::uint64_t> v(8192);
  for (std::uint64_t& e : v) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    e = z ^ (z >> 31);
  }
  std::sort(v.begin(), v.end());
  std::map<std::uint64_t, std::size_t> m;
  for (std::size_t i = 0; i < 2048; ++i) m.emplace(v[(i * 7919) % v.size()] >> 40, i);
  __int128 acc = 0;
  for (std::size_t i = 0; i + 1 < v.size(); ++i) {
    acc += static_cast<__int128>(v[i] >> 33) * static_cast<__int128>(v[i + 1] >> 34);
  }
  sink = sink + m.size() + static_cast<std::uint64_t>(acc);
  return now_ms() - start;
}

/// The host's speed over a run. A 4-vCPU share of a busy host runs the same
/// code up to 15% faster or slower from one minute to the next, every
/// layer alike. The run times the probe kernel between requests (and after
/// each set-up) and scales the times taken there by kProbeRefMs / (the
/// probe's median), so a run in a slow minute reads as one in a fast
/// minute. The raw figures and the probes' medians are in the report.
class Probe {
 public:
  void maybe() {
    if (now_ms() - last_ms_ >= kProbeEveryMs) sample();
  }
  void sample() {
    samples_.push_back(probe_kernel_ms());
    last_ms_ = now_ms();
  }
  double median_ms() const { return quantile(samples_, 0.5); }
  std::size_t count() const { return samples_.size(); }
  /// Reported time = measured time * scale().
  double scale() const { return samples_.empty() ? 1 : kProbeRefMs / median_ms(); }

 private:
  std::vector<double> samples_;
  double last_ms_ = 0;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Shortest round-trip text of a double, so values keep all their digits.
std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

// -- Run state ----------------------------------------------------------------

/// Requests attempted and failed, with the first few failure reasons.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> reasons;

  void fail(const std::string& why, std::size_t count = 1) {
    failed += count;
    if (reasons.size() < 8) reasons.push_back(why);
  }
};

struct Metric {
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

/// Input properties of the requests a run made (see README.md).
struct Properties {
  std::size_t requests = 0, recurrent = 0, dedicated = 0;
  std::vector<double> lowered_tasks, candidate_pairs;
  std::size_t widest_block = 0;
  std::size_t noop = 0, windows_changed = 0, reverts = 0;  // session_deltas

  void add(bool is_recurrent, bool is_dedicated, std::size_t tasks, const BlockShape& shape) {
    ++requests;
    recurrent += is_recurrent;
    dedicated += is_dedicated;
    lowered_tasks.push_back(static_cast<double>(tasks));
    candidate_pairs.push_back(static_cast<double>(shape.candidate_pairs));
    widest_block = std::max(widest_block, shape.widest);
  }

  Json json(bool sessions) const {
    const auto share = [&](std::size_t k) {
      return requests ? static_cast<double>(k) / static_cast<double>(requests) : 0.0;
    };
    Json j = Json::object();
    j.set("requests", static_cast<std::int64_t>(requests));
    j.set("recurrent_share", share(recurrent));
    j.set("dedicated_share", share(dedicated));
    j.set("lowered_tasks_p50", quantile(lowered_tasks, 0.5));
    j.set("lowered_tasks_max", quantile(lowered_tasks, 1.0));
    j.set("widest_block_tasks", static_cast<std::int64_t>(widest_block));
    j.set("candidate_pairs_p50", quantile(candidate_pairs, 0.5));
    j.set("candidate_pairs_max", quantile(candidate_pairs, 1.0));
    if (sessions) {
      j.set("noop_delta_share", share(noop));
      j.set("windows_changed_share", share(windows_changed));
      j.set("revert_delta_share", share(reverts));
    }
    return j;
  }
};

/// Per-layer aggregation of a traced run.
struct LayerStats {
  std::vector<double> self_ms[kNumLayers];  // a layer span has no children: self = dur
  double total_ms[kNumLayers] = {};
  double request_total_ms = 0;
  std::vector<double> traced_ms, untraced_ms;
  std::size_t traced = 0, composed = 0, flat = 0, dedicated = 0;
  double input_kb = 0, lowered_tasks = 0, findings = 0, blocks = 0, intervals = 0, pairs = 0,
         pool_tasks = 0, ilp_nodes = 0, cert_kb = 0;
  std::size_t block_tasks_max = 0;

  /// Fold the spans of one request (those from index `first` on); a
  /// `measured` request also enters the traced-latency sample.
  void add_spans(const rtlb::Trace& trace, std::size_t first, bool measured) {
    double layer_ms[kNumLayers] = {};
    bool seen[kNumLayers] = {};
    double root_ms = 0;
    for (std::size_t i = first; i < trace.spans().size(); ++i) {
      const rtlb::TraceSpan& s = trace.spans()[i];
      const double ms = static_cast<double>(s.dur_ns) / 1e6;
      const int layer = layer_of(s.name);
      if (layer == kNumLayers) {
        root_ms += ms;
      } else {
        layer_ms[layer] += ms;
        seen[layer] = true;
      }
    }
    for (int l = 0; l < kNumLayers; ++l) {
      if (!seen[l]) continue;
      self_ms[l].push_back(layer_ms[l]);
      total_ms[l] += layer_ms[l];
    }
    request_total_ms += root_ms;
    if (!measured) return;
    traced_ms.push_back(root_ms - layer_ms[kCheck]);
    ++traced;
  }

  void add_counts(const LayerCounts& c, bool is_flat, bool is_dedicated) {
    ++composed;
    flat += is_flat;
    dedicated += is_dedicated;
    input_kb += c.input_kb;
    lowered_tasks += static_cast<double>(c.lowered_tasks);
    findings += static_cast<double>(c.findings);
    blocks += static_cast<double>(c.blocks);
    intervals += static_cast<double>(c.intervals_evaluated);
    pairs += static_cast<double>(c.candidate_pairs);
    pool_tasks += static_cast<double>(c.pool_tasks);
    ilp_nodes += static_cast<double>(c.ilp_nodes);
    cert_kb += c.cert_kb;
    block_tasks_max = std::max(block_tasks_max, c.block_tasks_max);
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double hit_ratio(std::uint64_t hits, std::uint64_t misses) {
  return ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
}

/// Everything one run measured.
struct Run {
  Tally tally;
  Properties props;
  std::vector<double> setup_s;
  KeyedSamples latency_ms, check_ms;
  Probe probe;        ///< the measured loop's host speed
  Probe setup_probe;  ///< the set-ups' host speed
  double measured_s = 0;
  LayerStats layers;
  rtlb::SessionStats session_stats;  // deltas over the measured loop
  std::uint64_t digest = 0;
  std::size_t digest_requests = 0;
};

template <typename Body>
void guarded(Tally& tally, std::size_t index, Body&& body) {
  ++tally.attempted;
  try {
    body();
  } catch (const std::exception& e) {
    tally.fail("request " + std::to_string(index) + " threw: " + e.what());
  }
}

void check_outcome(Tally& tally, std::size_t index, const CheckOutcome& check) {
  if (!check.valid) tally.fail("request " + std::to_string(index) + ": certificate invalid");
}

/// The SessionStats counters the hit ratios read.
constexpr std::uint64_t rtlb::SessionStats::*kStatFields[] = {
    &rtlb::SessionStats::queries,          &rtlb::SessionStats::query_hits,
    &rtlb::SessionStats::lint_pass_hits,   &rtlb::SessionStats::lint_pass_misses,
    &rtlb::SessionStats::window_hits,      &rtlb::SessionStats::window_misses,
    &rtlb::SessionStats::partition_hits,   &rtlb::SessionStats::partition_misses,
    &rtlb::SessionStats::bound_hits,       &rtlb::SessionStats::bound_misses,
    &rtlb::SessionStats::block_hits,       &rtlb::SessionStats::block_misses,
};

/// into += s, or into -= s when `subtract` is set.
void accumulate(rtlb::SessionStats& into, const rtlb::SessionStats& s, bool subtract = false) {
  for (auto field : kStatFields) {
    into.*field = subtract ? into.*field - s.*field : into.*field + s.*field;
  }
}

rtlb::SessionStats total_stats(const std::vector<SessionSlot>& slots) {
  rtlb::SessionStats sum;
  for (const SessionSlot& slot : slots) accumulate(sum, slot.session->stats());
  return sum;
}

// -- Cold workloads -------------------------------------------------------------

/// What an item's first request answered; every later request of the item
/// must reproduce it bit for bit.
struct Reference {
  bool set = false;
  std::uint64_t digest = 0;
  std::uint64_t cert = 0;  ///< FNV-1a of the certificate JSON
};

void run_cold_workload(const Args& args, Run& run, rtlb::Trace* trace) {
  const auto make = [&] {
    return args.workload == "many_small" ? make_many_small(args.seed, args.size)
                                         : make_few_large(args.seed, args.size);
  };
  std::vector<ColdItem> items;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    items.clear();
    const double start = now_ms();
    items = make();
    run.setup_s.push_back((now_ms() - start) / 1e3);
    run.setup_probe.sample();
  }

  std::vector<Reference> refs(items.size());
  const auto verify = [&](std::size_t index, std::size_t k, std::uint64_t digest,
                          const CheckOutcome& check) {
    check_outcome(run.tally, index, check);
    Reference& ref = refs[k];
    const std::uint64_t cert = fnv1a(check.json);
    if (!ref.set) {
      ref = {true, digest, cert};
    } else if (digest != ref.digest || cert != ref.cert) {
      run.tally.fail("request " + std::to_string(index) + ": result differs from item " +
                     std::to_string(k) + "'s first answer");
    }
  };
  const auto untraced = [&](std::size_t index, std::size_t k, bool corrupt,
                            std::vector<double>* untraced_ms) {
    guarded(run.tally, index, [&] {
      const double start = now_ms();
      const ColdRun cold = run_cold(items[k]);
      const double ms = now_ms() - start;
      const CheckOutcome check = check_independently(*cold.result.certificate, cold.app(),
                                                     cold.platform(), corrupt);
      if (untraced_ms) {
        untraced_ms->push_back(ms);
      } else {
        run.latency_ms.add(k, ms);
        run.check_ms.add(k, check.ms);
      }
      verify(index, k, result_digest(cold.result), check);
      run.props.add(items[k].recurrent, cold.dedicated, cold.app().num_tasks(),
                    block_shape(cold.result));
    });
  };
  const auto traced = [&](std::size_t index, std::size_t k, bool corrupt) {
    guarded(run.tally, index, [&] {
      const std::size_t first = trace->spans().size();
      const TracedOutcome out =
          run_cold_traced(items[k], *trace, static_cast<std::uint32_t>(index), corrupt);
      run.layers.add_spans(*trace, first, true);
      run.layers.add_counts(out.counts, !items[k].recurrent, out.dedicated);
      verify(index, k, out.digest, out.check);
    });
  };
  // The session layer on this workload's instances: open a session over the
  // item, then time one delta (the first task's deadline widened) and the
  // warm query after it.
  const auto session_probe = [&](std::size_t index, std::size_t k) {
    guarded(run.tally, index, [&] {
      const ColdRun cold = run_cold(items[k]);
      rtlb::AnalysisSession session(cold.app(), engine_options(cold.dedicated), cold.platform());
      session.set_verify(false);
      session.analyze();
      const std::size_t first = trace->spans().size();
      std::optional<rtlb::ScopedSpan> root;
      root.emplace(trace, kRootSpan);
      root->count("request", static_cast<std::int64_t>(index));
      {
        const rtlb::ScopedSpan span(trace, kLayerNames[kDelta]);
        session.set_deadline(0, session.app().task(0).deadline + 1);
      }
      const rtlb::AnalysisResult* result = nullptr;
      {
        const rtlb::ScopedSpan span(trace, kLayerNames[kQuery]);
        result = &session.analyze();
      }
      root.reset();
      run.layers.add_spans(*trace, first, false);
      accumulate(run.session_stats, session.stats());
      check_outcome(run.tally, index,
                    check_independently(*result->certificate, session.app(),
                                        session.platform(), false));
    });
  };

  // Every item is visited at least once, so the digest (the fold of every
  // item's first answer) does not depend on how long the run lasts. A
  // traced visit runs the item twice, composed-and-spanned and through
  // analyze(), alternating which goes first.
  const std::size_t min_visits = std::max(items.size(), kMinSamples);
  const double start = now_ms();
  const double deadline = start + args.seconds * 1e3;
  std::size_t index = 0;
  for (std::size_t visit = 0; visit < min_visits || now_ms() < deadline; ++visit) {
    const std::size_t k = visit % items.size();
    const bool corrupt = static_cast<long>(index) == args.corrupt_request;
    if (trace == nullptr) {
      untraced(index++, k, corrupt, nullptr);
      run.probe.maybe();
      continue;
    }
    if (visit % 2 == 0) traced(index++, k, corrupt);
    untraced(index++, k, false, &run.layers.untraced_ms);
    if (visit % 2 == 1) traced(index++, k, false);
    if (visit % 8 == 0) session_probe(index++, k);
  }

  run.measured_s = (now_ms() - start) / 1e3;

  run.digest = fnv1a("");
  for (const Reference& ref : refs) run.digest = fnv_mix(run.digest, ref.digest);
  run.digest_requests = items.size();
}

// -- Session workload -----------------------------------------------------------

/// A session's state: the moved field and its value, or (hot.size(), 0)
/// for the generated instance.
using StateKey = std::pair<std::size_t, rtlb::Time>;

/// The state `delta` puts its session in, as the stream means it (not as
/// the session reports it, so a lost or stale delta shows).
StateKey state_after(const SessionSlot& slot, const Delta& delta) {
  if (!slot.pending) return {slot.hot.size(), 0};
  return {delta.field, delta.value};
}

void run_session_workload(const Args& args, Run& run, rtlb::Trace* trace) {
  std::vector<SessionSlot> slots;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    slots.clear();
    const double start = now_ms();
    slots = make_sessions(args.seed, args.size);
    run.setup_s.push_back((now_ms() - start) / 1e3);
    run.setup_probe.sample();
  }
  // Every state a session reaches has a reference answer: the session's
  // first, cold answer for the generated instance, and the first answer in
  // the state for the others. Every later answer in the state must equal
  // its reference bit for bit, result digest and certificate.
  std::vector<std::map<StateKey, Reference>> refs(slots.size());
  for (std::size_t k = 0; k < slots.size(); ++k) {
    refs[k][{slots[k].hot.size(), 0}] = {true, slots[k].first_digest, slots[k].first_cert};
  }

  // Traced runs first replay each session's instance cold, composed and
  // spanned: the path its first query and every miss take. The answer must
  // equal the session's first answer.
  std::size_t replays = 0;
  for (int round = 0; trace != nullptr && round < 2; ++round) {
    for (const SessionSlot& slot : slots) {
      const std::size_t id = replays++;
      guarded(run.tally, id, [&] {
        const std::size_t first = trace->spans().size();
        const TracedOutcome out =
            run_cold_traced(slot.item, *trace, static_cast<std::uint32_t>(id), false);
        run.layers.add_spans(*trace, first, false);
        run.layers.add_counts(out.counts, !slot.recurrent, out.dedicated);
        check_outcome(run.tally, id, out.check);
        if (out.digest != slot.first_digest) {
          run.tally.fail("replay " + std::to_string(id) + ": differs from the session's answer");
        }
      });
    }
  }

  // The warm-up runs before the clock starts, until every session has been
  // through its whole cycle of moves. It fills the caches and sets every
  // state's reference, so the measured stream is stationary and the digest
  // (the fold of the references) does not depend on how long the run lasts.
  // Traced runs alternate traced and untraced requests.
  // Latency keys: one per distinct request, a (session, field, value,
  // revert) tuple; each comes round once per cycle of its session.
  std::map<std::tuple<std::size_t, std::size_t, rtlb::Time, bool>, std::size_t> keys;
  rtlb::SessionStats before;
  double start = 0;
  bool warm = true;
  std::size_t measured = 0;
  const std::size_t min_measured = trace ? 2 * kMinSamples : kMinSamples;
  double deadline = 0;
  for (std::size_t index = 0;; ++index) {
    if (warm && std::all_of(slots.begin(), slots.end(),
                            [](const SessionSlot& slot) { return slot.cycled(); })) {
      warm = false;
      before = total_stats(slots);
      start = now_ms();
      deadline = start + args.seconds * 1e3;
    }
    if (!warm && measured >= min_measured && now_ms() >= deadline) break;
    measured += !warm;
    const Delta delta = next_delta(index, slots);
    SessionSlot& slot = slots[delta.slot];
    const bool noop = current_value(slot, delta.field) == delta.value;
    const bool traced = !warm && trace != nullptr && index % 2 == 0;
    const bool corrupt = static_cast<long>(index) == args.corrupt_request;
    guarded(run.tally, index, [&] {
      rtlb::Trace* spans = traced ? trace : nullptr;
      const std::size_t first = trace ? trace->spans().size() : 0;
      std::optional<rtlb::ScopedSpan> root;
      root.emplace(spans, kRootSpan);
      root->count("request", static_cast<std::int64_t>(replays + index));
      const double start = now_ms();
      {
        const rtlb::ScopedSpan span(spans, kLayerNames[kDelta]);
        // --stale-request plants a stale answer: the delta is lost, so the
        // session answers for the state before it.
        if (static_cast<long>(index) != args.stale_request) apply_delta(slot, delta);
      }
      const rtlb::AnalysisResult* result = nullptr;
      {
        const rtlb::ScopedSpan span(spans, kLayerNames[kQuery]);
        result = &slot.session->analyze();
      }
      const double ms = now_ms() - start;
      CheckOutcome check;
      {
        const rtlb::ScopedSpan span(spans, kLayerNames[kCheck]);
        check = check_independently(*result->certificate, slot.session->app(),
                                    slot.session->platform(), corrupt);
      }
      root.reset();

      check_outcome(run.tally, index, check);
      const std::uint64_t digest = result_digest(*result);
      const std::uint64_t cert = fnv1a(check.json);
      Reference& ref = refs[delta.slot][state_after(slot, delta)];
      if (!ref.set) {
        if (check.valid) ref = {true, digest, cert};
      } else if (digest != ref.digest || cert != ref.cert) {
        run.tally.fail("request " + std::to_string(index) + ": session " +
                       std::to_string(delta.slot) + " answered a state differently than before");
      }
      if (warm) return;
      if (traced) {
        run.layers.add_spans(*trace, first, true);
      } else if (trace) {
        run.layers.untraced_ms.push_back(ms);
      } else {
        const std::size_t key =
            keys.try_emplace({delta.slot, delta.field, delta.value, delta.revert}, keys.size())
                .first->second;
        run.latency_ms.add(key, ms);
        run.check_ms.add(key, check.ms);
        run.probe.maybe();
      }

      const BlockShape shape = block_shape(*result);
      run.props.add(slot.recurrent, slot.dedicated, slot.session->app().num_tasks(), shape);
      run.props.noop += noop;
      run.props.reverts += delta.revert;
      if (result->windows.est != slot.est || result->windows.lct != slot.lct) {
        ++run.props.windows_changed;
        slot.est = result->windows.est;
        slot.lct = result->windows.lct;
      }
    });
  }
  run.measured_s = (now_ms() - start) / 1e3;
  run.session_stats = total_stats(slots);
  accumulate(run.session_stats, before, true);

  run.digest = fnv1a("");
  for (const std::map<StateKey, Reference>& states : refs) {
    for (const auto& [key, ref] : states) {
      run.digest = fnv_mix(fnv_mix(run.digest, key.first), static_cast<std::uint64_t>(key.second));
      run.digest = fnv_mix(run.digest, ref.digest);
    }
    run.digest_requests += states.size();
  }
}

// -- Metrics ------------------------------------------------------------------

/// The end-to-end metrics. Rate, latency and check statistics are over the
/// per-request medians (KeyedSamples), the percentiles Harrell-Davis
/// estimates (hd_quantile); the rate is the closed loop's: the
/// distinct requests over the sum of their median latencies. Times are
/// scaled by the probe of the phase they were taken in, unless `raw`.
std::map<std::string, Metric> end_to_end(const Run& run, bool raw) {
  const double scale = raw ? 1 : run.probe.scale();
  const double setup_scale = raw ? 1 : run.setup_probe.scale();
  std::map<std::string, Metric> m;
  const std::vector<double> latency = run.latency_ms.medians();
  const std::vector<double> check = run.check_ms.medians();
  double total_ms = 0;
  for (double x : latency) total_ms += x * scale;
  const std::size_t n = run.latency_ms.count();
  const std::size_t checks = run.check_ms.count();
  m["requests_per_s"] = {ratio(static_cast<double>(latency.size()), total_ms / 1e3), "1/s", n};
  m["latency_ms_p50"] = {scale * hd_quantile(latency, 0.5), "ms", n};
  m["latency_ms_p90"] = {scale * hd_quantile(latency, 0.9), "ms", n};
  m["check_ms_p50"] = {scale * hd_quantile(check, 0.5), "ms", checks};
  m["check_ms_p90"] = {scale * hd_quantile(check, 0.9), "ms", checks};
  m["peak_rss_mb"] = {peak_rss_mb(), "MB", 1};
  m["setup_s"] = {setup_scale * quantile(run.setup_s, 0.5), "s", run.setup_s.size()};
  return m;
}

std::map<std::string, Metric> per_layer(const Run& run) {
  std::map<std::string, Metric> m;
  const LayerStats& L = run.layers;
  for (int l = 0; l < kNumLayers; ++l) {
    const std::string name = kLayerNames[l];
    m[name + "_ms"] = {quantile(L.self_ms[l], 0.5), "ms", L.self_ms[l].size()};
    m[name + "_share"] = {ratio(L.total_ms[l], L.request_total_ms), "fraction", L.traced};
  }
  const auto per_request = [&](double sum, std::size_t count) {
    return ratio(sum, static_cast<double>(count));
  };
  m["model.input_kb"] = {per_request(L.input_kb, L.flat), "kB", L.flat};
  m["workload.lowered_tasks"] = {per_request(L.lowered_tasks, L.composed), "count", L.composed};
  m["lint.findings"] = {per_request(L.findings, L.composed), "count", L.composed};
  m["core.windows_tasks"] = {per_request(L.lowered_tasks, L.composed), "count", L.composed};
  m["core.blocks"] = {per_request(L.blocks, L.composed), "count", L.composed};
  m["core.block_tasks_max"] = {static_cast<double>(L.block_tasks_max), "count", L.composed};
  m["core.intervals_evaluated"] = {per_request(L.intervals, L.composed), "count", L.composed};
  m["core.scan_survivor_ratio"] = {ratio(L.intervals, L.pairs), "ratio", L.composed};
  m["core.pool_tasks"] = {per_request(L.pool_tasks, L.composed), "count", L.composed};
  m["lp.ilp_nodes"] = {per_request(L.ilp_nodes, L.dedicated), "count", L.dedicated};
  m["verify.cert_kb"] = {per_request(L.cert_kb, L.composed), "kB", L.composed};

  const rtlb::SessionStats& s = run.session_stats;
  const std::size_t q = s.queries;
  m["session.query_hit_ratio"] = {hit_ratio(s.query_hits, s.queries - s.query_hits), "ratio", q};
  m["session.window_hit_ratio"] = {hit_ratio(s.window_hits, s.window_misses), "ratio", q};
  m["session.partition_hit_ratio"] = {hit_ratio(s.partition_hits, s.partition_misses), "ratio",
                                      q};
  m["session.bound_hit_ratio"] = {hit_ratio(s.bound_hits, s.bound_misses), "ratio", q};
  m["session.block_hit_ratio"] = {hit_ratio(s.block_hits, s.block_misses), "ratio", q};
  m["session.lint_pass_hit_ratio"] = {hit_ratio(s.lint_pass_hits, s.lint_pass_misses), "ratio",
                                      q};

  const double traced = quantile(L.traced_ms, 0.5);
  const double untraced = quantile(L.untraced_ms, 0.5);
  m["trace.traced_ms_p50"] = {traced, "ms", L.traced_ms.size()};
  m["trace.untraced_ms_p50"] = {untraced, "ms", L.untraced_ms.size()};
  m["trace.overhead"] = {ratio(traced, untraced) - 1, "fraction", L.traced_ms.size()};
  return m;
}

Json fingerprint(const Args& args) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  Json j = Json::object();
  j.set("cpu", cpu);
  j.set("nproc", static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  j.set("compiler", RTLBENCH_COMPILER);
  j.set("build_type", RTLBENCH_BUILD_TYPE);
  j.set("engine_threads", kEngineThreads);
  j.set("git_sha", args.git_sha);
  j.set("source_sha", args.source_sha);
  j.set("cross_checks", "off");  // session verify off, RTLB_WINDOWS_REFERENCE refused
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const auto [steal0, total0] = cpu_jiffies();
  Run run;
  rtlb::Trace spans;
  rtlb::Trace* trace = args.trace == 1 ? &spans : nullptr;
  if (args.workload == "session_deltas") {
    run_session_workload(args, run, trace);
  } else {
    run_cold_workload(args, run, trace);
  }

  const auto [steal1, total1] = cpu_jiffies();
  const bool default_inputs = args.seed == 1 && args.size == Size::kFull;
  if (args.expect_digest && *args.expect_digest != run.digest) {
    run.tally.fail("result digest " + hex(run.digest) + " != expected " +
                       hex(*args.expect_digest),
                   run.digest_requests);
  }

  const std::map<std::string, Metric> metrics = args.trace ? per_layer(run) : end_to_end(run, false);
  const double failed_frac =
      ratio(static_cast<double>(run.tally.failed), static_cast<double>(run.tally.attempted));

  for (const auto& [name, metric] : metrics) {
    std::printf("%-32s %14.6f %-9s n=%zu\n", name.c_str(), metric.value, metric.unit.c_str(),
                metric.samples);
  }
  std::printf("%-32s %14.6f %-9s n=%zu\n", "failed_frac", failed_frac, "fraction",
              run.tally.attempted);
  for (const std::string& why : run.tally.reasons) std::printf("FAILED: %s\n", why.c_str());

  Json report = Json::object();
  report.set("workload", args.workload);
  report.set("seed", static_cast<std::int64_t>(args.seed));
  report.set("seconds", args.seconds);
  report.set("trace", args.trace);
  report.set("size", args.size == Size::kFull ? "full" : "small");
  report.set("loop", "closed, 1 client");
  report.set("fingerprint", fingerprint(args));
  report.set("digest", hex(run.digest));
  report.set("digest_checked", args.expect_digest.has_value());
  report.set("default_inputs", default_inputs);
  report.set("attempted", static_cast<std::int64_t>(run.tally.attempted));
  report.set("failed", static_cast<std::int64_t>(run.tally.failed));
  report.set("failed_frac", failed_frac);
  // Share of CPU time the hypervisor stole while the run was going: a run
  // taken during a steal burst reads slow for reasons outside the program.
  report.set("host_steal_frac", ratio(steal1 - steal0, total1 - total0));
  if (args.trace == 0) {
    report.set("measured_s", run.measured_s);
    report.set("distinct_requests", static_cast<std::int64_t>(run.latency_ms.medians().size()));
    report.set("passes", static_cast<std::int64_t>(run.latency_ms.passes()));
    report.set("probe_ms_p50", run.probe.median_ms());
    report.set("probes", static_cast<std::int64_t>(run.probe.count()));
    report.set("setup_probe_ms_p50", run.setup_probe.median_ms());
    Json raw = Json::object();
    for (const auto& [name, metric] : end_to_end(run, true)) raw.set(name, metric.value);
    report.set("unscaled", raw);
  }
  Json m = Json::object();
  for (const auto& [name, metric] : metrics) {
    Json entry = Json::object();
    entry.set("value", metric.value);
    entry.set("unit", metric.unit);
    entry.set("samples", static_cast<std::int64_t>(metric.samples));
    m.set(name, entry);
  }
  report.set("metrics", m);
  report.set("properties", run.props.json(args.workload == "session_deltas"));
  const std::string report_text = report.dump();
  std::printf("report %s\n", report_text.c_str());
  if (!args.report_path.empty()) std::ofstream(args.report_path) << report.dump(2) << "\n";
  if (trace != nullptr && !args.spans_path.empty()) {
    std::ofstream(args.spans_path) << spans.chrome_json().dump() << "\n";
  }

  const bool correct = run.tally.failed == 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(run.tally.attempted);
  line += ", \"failed\": " + std::to_string(run.tally.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    line += first ? "" : ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + number(metric.value) + ", \"unit\": \"" +
            metric.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
