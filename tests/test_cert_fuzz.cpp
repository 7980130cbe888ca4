// Seeded certificate fuzzer: the rtlb_check read path is total.
//
// Byte-level mutations (bit flip, insert, delete, truncate, digit splice)
// of the shipped examples/certificates/*.cert.json files and of the
// certificate `rtlb_check --emit` prints for every shipped instance are fed
// through the exact path rtlb_check takes: parse_certificate_text, then
// check_certificate. Every case must end in a verdict (valid or invalid),
// a JsonParseError or a CertificateFormatError -- never another exception
// and never a crash. The budget and seeds are fixed, so a run is
// deterministic; tools/sanitize.sh runs it under ASan/UBSan with the rest of
// ctest.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/analysis.hpp"
#include "src/model/io.hpp"
#include "src/verify/certificate.hpp"
#include "src/verify/checker.hpp"
#include "src/workload/workload.hpp"

namespace rtlb {
namespace {

constexpr std::size_t kCasesPerSeed = 1000;

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

ProblemInstance load_instance(const std::filesystem::path& path) {
  std::ifstream in(path);
  ProblemInstance inst = parse_instance(in);
  if (!inst.workload.empty()) lower_instance(inst, LowerOptions{.chain_instances = true});
  return inst;
}

const DedicatedPlatform* platform_of(const ProblemInstance& inst) {
  return inst.platform.num_node_types() > 0 ? &inst.platform : nullptr;
}

/// One certificate text to mutate, and the instance it is checked against.
struct FuzzSeed {
  std::string name;
  std::string text;
  const ProblemInstance* inst;
};

/// Numbers worth splicing over a digit run: small ids just past a small
/// instance's tasks and resources, int64 edges and one past them, Time-range
/// and id-type edges, zero forms, doubles and overflowing exponents.
constexpr std::array<std::string_view, 20> kNumbers = {
    "0", "-0", "-1", "1", "2", "3", "7", "64", "1000", "9223372036854775807",
    "-9223372036854775808", "9223372036854775808", "-9223372036854775809",
    "2305843009213693951", "4294967295", "4294967296", "1.5", "1e308", "1e999", "-1e-999"};

/// Bytes worth inserting: JSON structure, number and escape characters.
constexpr std::string_view kInsertBytes = "{}[]\",:-+.eE0123456789\\u \n\x01\x7f\xff";

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::size_t below(std::size_t n) { return n == 0 ? 0 : rng_() % n; }

  /// One mutation. Digit splices are drawn most often: they keep the
  /// document parseable and so reach the certificate reader and checker.
  void mutate(std::string& text) {
    const std::size_t pos = below(text.size() + 1);
    switch (below(8)) {
      case 0:
      case 1:  // flip one bit
        if (!text.empty()) text[below(text.size())] ^= static_cast<char>(1u << below(8));
        break;
      case 2:  // insert one byte
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(pos),
                    kInsertBytes[below(kInsertBytes.size())]);
        break;
      case 3:  // delete 1..8 bytes
        text.erase(pos, 1 + below(8));
        break;
      case 4:  // truncate
        text.resize(pos);
        break;
      default:  // replace the next digit run with an edge-case number
        splice_digits(text, pos);
    }
  }

 private:
  void splice_digits(std::string& text, std::size_t from) {
    const std::size_t start = text.find_first_of("0123456789", from);
    if (start == std::string::npos) return;
    std::size_t first = start;
    if (first > 0 && text[first - 1] == '-') --first;
    std::size_t last = start;
    while (last < text.size() && text[last] >= '0' && text[last] <= '9') ++last;
    text.replace(first, last - first, kNumbers[below(kNumbers.size())]);
  }

  std::mt19937_64 rng_;
};

struct Outcomes {
  std::size_t valid = 0, invalid = 0, json_errors = 0, format_errors = 0;
};

TEST(CertificateFuzz, EveryMutationEndsInAVerdictOrAParseError) {
  const std::filesystem::path root(RTLB_SOURCE_DIR);
  std::vector<std::unique_ptr<ProblemInstance>> instances;
  std::vector<FuzzSeed> seeds;

  // The shipped certificate files are all certificates of paper.rtlb.
  instances.push_back(std::make_unique<ProblemInstance>(
      load_instance(root / "examples/instances/paper.rtlb")));
  std::vector<std::filesystem::path> cert_files;
  for (const auto& entry : std::filesystem::directory_iterator(root / "examples/certificates")) {
    if (entry.path().extension() == ".json") cert_files.push_back(entry.path());
  }
  std::sort(cert_files.begin(), cert_files.end());
  ASSERT_FALSE(cert_files.empty());
  for (const auto& path : cert_files) {
    seeds.push_back({path.filename().string(), read_file(path), instances.front().get()});
  }

  // What `rtlb_check --emit <instance>` prints (its default model).
  std::vector<std::filesystem::path> instance_files;
  for (const auto& entry : std::filesystem::directory_iterator(root / "examples/instances")) {
    if (entry.path().extension() == ".rtlb") instance_files.push_back(entry.path());
  }
  std::sort(instance_files.begin(), instance_files.end());
  for (const auto& path : instance_files) {
    instances.push_back(std::make_unique<ProblemInstance>(load_instance(path)));
    const ProblemInstance& inst = *instances.back();
    AnalysisOptions options;
    options.model = platform_of(inst) ? SystemModel::Dedicated : SystemModel::Shared;
    options.emit_certificates = true;
    const AnalysisResult result = analyze(*inst.app, options, platform_of(inst));
    seeds.push_back({path.filename().string() + " --emit",
                     certificate_json(*result.certificate).dump(2) + "\n", &inst});
  }

  Outcomes total;
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    const FuzzSeed& seed = seeds[s];
    Mutator mutator(0x5eed0000u + s);
    for (std::size_t c = 0; c < kCasesPerSeed; ++c) {
      std::string text = seed.text;
      const std::size_t rounds = 1 + mutator.below(2);
      for (std::size_t r = 0; r < rounds; ++r) mutator.mutate(text);
      try {
        const Certificate cert = parse_certificate_text(text);
        const CheckReport report =
            check_certificate(cert, *seed.inst->app, platform_of(*seed.inst));
        ++(report.valid ? total.valid : total.invalid);
      } catch (const JsonParseError&) {
        ++total.json_errors;
      } catch (const CertificateFormatError&) {
        ++total.format_errors;
      } catch (const std::exception& e) {
        ADD_FAILURE() << seed.name << " case " << c << ": " << e.what() << "\n--- input ---\n"
                      << text;
      }
    }
  }
  // A fuzzer that never reaches the checker, or never gets past the JSON
  // parser, tests nothing: every outcome class must occur.
  EXPECT_GT(total.valid, 0u);
  EXPECT_GT(total.invalid, 0u);
  EXPECT_GT(total.json_errors, 0u);
  EXPECT_GT(total.format_errors, 0u);
  std::printf("fuzz: %zu seeds x %zu cases: %zu valid, %zu invalid, %zu JSON errors, "
              "%zu format errors\n",
              seeds.size(), kCasesPerSeed, total.valid, total.invalid, total.json_errors,
              total.format_errors);
}

}  // namespace
}  // namespace rtlb
