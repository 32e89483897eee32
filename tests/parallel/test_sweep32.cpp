// fpq::parallel::sweep32 — the differential verification engine's own
// contract.
//
// The full-space runs live in bench_sweep32 (hours of CPU); these tests
// pin the machinery on small slices: zero mismatches on every row, the
// whole-sweep fingerprint invariant under thread count, chunking and
// kill/resume splits (bit-identical to an uninterrupted run), manifest
// identity/corruption refusal, the append-only manifest and its torn
// tail, deadline slicing, the binary16 pair mapping, the sampled oracle
// rows, and the corner corpus.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "parallel/sweep32.hpp"
#include "parallel/sweep32_ref.hpp"
#include "parallel/sweep_util.hpp"

namespace sw = fpq::parallel::sweep32;
namespace sf = fpq::softfloat;

namespace {

/// A unique manifest path under the build tree's temp dir, removed on
/// destruction so test orders can't contaminate each other.
class TempManifest {
 public:
  explicit TempManifest(const char* tag)
      : path_(std::string(::testing::TempDir()) + "sweep32_" + tag +
              ".manifest") {
    std::remove(path_.c_str());
  }
  ~TempManifest() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

/// The message run_sweep32 throws while loading `config`'s manifest
/// (empty, and a test failure, when it does not throw).
std::string load_error(const sw::Sweep32Config& config) {
  try {
    (void)sw::run_sweep32(config);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "manifest " << config.manifest_path << " loaded";
  return {};
}

/// A small but interesting sqrt slice: the last subnormal binade through
/// the first normal one, plus room for a few chunks per mode.
sw::Sweep32Config small_sqrt_config() {
  sw::Sweep32Config config;
  config.op = sw::SweepOp::kSqrt;
  config.begin = 0x007F'F800;
  config.end = 0x0080'4800;  // 5 chunks of 2^12 per mode
  config.chunk_bits = 12;
  config.checkpoint_interval = 4;
  return config;
}

TEST(Sweep32, ShardGridAndIdentity) {
  sw::Sweep32Config config = small_sqrt_config();
  EXPECT_EQ(sw::sweep32_shard_count(config), 5u * 5u);

  const std::uint64_t id = sw::sweep32_identity(config);
  sw::Sweep32Config other = config;
  other.chunk_bits = 13;
  EXPECT_NE(sw::sweep32_identity(other), id);
  other = config;
  other.end += 0x1000;
  EXPECT_NE(sw::sweep32_identity(other), id);
  other = config;
  other.op = sw::SweepOp::kRoundToIntegral;
  EXPECT_NE(sw::sweep32_identity(other), id);
  other = config;
  other.modes.pop_back();
  EXPECT_NE(sw::sweep32_identity(other), id);

  // Thread count, manifest path and lane config are NOT identity: a
  // resumed run may use any of them.
  other = config;
  other.threads = 7;
  other.race_tape = false;
  other.manifest_path = "elsewhere";
  EXPECT_EQ(sw::sweep32_identity(other), id);
}

TEST(Sweep32, SqrtSliceCleanAndFingerprintThreadInvariant) {
  sw::Sweep32Config config = small_sqrt_config();
  std::uint64_t fingerprint = 0;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    config.threads = threads;
    const sw::Sweep32Report report = sw::run_sweep32(config);
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.mismatches, 0u)
        << (report.mismatch_samples.empty() ? ""
                                            : report.mismatch_samples[0]);
    EXPECT_EQ(report.checked, 5u * (config.end - config.begin));
    if (threads == 1) {
      fingerprint = report.fingerprint;
    } else {
      EXPECT_EQ(report.fingerprint, fingerprint) << "threads=" << threads;
    }
  }
}

TEST(Sweep32, InterruptedResumeIsBitIdenticalToUninterrupted) {
  sw::Sweep32Config config = small_sqrt_config();
  config.threads = 1;
  const sw::Sweep32Report oneshot = sw::run_sweep32(config);
  ASSERT_TRUE(oneshot.complete);
  ASSERT_EQ(oneshot.mismatches, 0u);

  // Same sweep, killed after every few shards (max_shards caps a run the
  // way a SIGKILL between checkpoints would) and resumed at a different
  // thread count each time.
  TempManifest manifest("resume");
  config.manifest_path = manifest.path();
  config.max_shards = 7;
  const std::size_t thread_plan[] = {1, 2, 4, 8, 1, 2};
  sw::Sweep32Report resumed;
  std::size_t runs = 0;
  for (const std::size_t threads : thread_plan) {
    config.threads = threads;
    resumed = sw::run_sweep32(config);
    ++runs;
    EXPECT_LE(resumed.run_shards, 7u);
    if (resumed.complete) break;
  }
  EXPECT_EQ(runs, 4u);  // 25 shards at <=7 per run
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.checked, oneshot.checked);
  EXPECT_EQ(resumed.mismatches, oneshot.mismatches);
  EXPECT_EQ(resumed.fingerprint, oneshot.fingerprint);

  // Resuming a COMPLETE sweep runs nothing and reports the same state.
  config.threads = 1;
  const sw::Sweep32Report again = sw::run_sweep32(config);
  EXPECT_TRUE(again.complete);
  EXPECT_EQ(again.run_shards, 0u);
  EXPECT_EQ(again.fingerprint, oneshot.fingerprint);
}

TEST(Sweep32, ManifestIdentityMismatchRefusesToResume) {
  TempManifest manifest("identity");
  sw::Sweep32Config config = small_sqrt_config();
  config.manifest_path = manifest.path();
  config.max_shards = 3;
  (void)sw::run_sweep32(config);

  sw::Sweep32Config other = config;
  other.chunk_bits = 13;
  EXPECT_THROW((void)sw::run_sweep32(other), std::runtime_error);
  other = config;
  other.op = sw::SweepOp::kRoundToIntegral;
  other.begin = 0;
  other.end = 0x5000;
  EXPECT_THROW((void)sw::run_sweep32(other), std::runtime_error);
}

TEST(Sweep32, MalformedManifestThrows) {
  sw::Sweep32Config config = small_sqrt_config();
  {
    TempManifest manifest("garbage");
    std::ofstream(manifest.path()) << "not a manifest\n";
    config.manifest_path = manifest.path();
    EXPECT_NE(load_error(config).find("bad magic"), std::string::npos);
  }
  {
    TempManifest manifest("truncated");
    std::ofstream(manifest.path())
        << "fpq-sweep32-manifest v2\nop sqrt\ndone 0\n";
    config.manifest_path = manifest.path();
    EXPECT_NE(load_error(config).find("malformed done record"),
              std::string::npos);
  }
}

TEST(Sweep32, V1ManifestIsRefusedNamingTheVersion) {
  TempManifest manifest("v1");
  sw::Sweep32Config config = small_sqrt_config();
  config.manifest_path = manifest.path();
  std::ofstream(manifest.path())
      << "fpq-sweep32-manifest v1\nop sqrt\nidentity "
      << std::hex << sw::sweep32_identity(config) << std::dec
      << "\nshards 25\ndone 0 1 4096 0\n";
  const std::string what = load_error(config);
  EXPECT_NE(what.find("v1"), std::string::npos) << what;
  EXPECT_NE(what.find("v2"), std::string::npos) << what;
}

TEST(Sweep32, DoneRecordWithAWrongCheckWordThrows) {
  TempManifest manifest("check");
  sw::Sweep32Config config = small_sqrt_config();
  config.manifest_path = manifest.path();
  config.max_shards = 3;
  (void)sw::run_sweep32(config);

  // Flip the last hex digit of the last record's check word.
  std::string text = read_file(manifest.path());
  ASSERT_GE(text.size(), 2u);
  char& digit = text[text.size() - 2];
  digit = digit == '0' ? '1' : '0';
  std::ofstream(manifest.path(), std::ios::binary | std::ios::trunc) << text;
  const std::string what = load_error(config);
  EXPECT_NE(what.find("check word"), std::string::npos) << what;
}

TEST(Sweep32, DuplicateDoneRecordThrows) {
  TempManifest manifest("duplicate");
  sw::Sweep32Config config = small_sqrt_config();
  config.manifest_path = manifest.path();
  config.max_shards = 3;
  (void)sw::run_sweep32(config);

  // Append a second, well-formed copy of the last record.
  const std::string text = read_file(manifest.path());
  const std::size_t last = text.rfind('\n', text.size() - 2) + 1;
  std::ofstream(manifest.path(), std::ios::binary | std::ios::app)
      << text.substr(last);
  const std::string what = load_error(config);
  EXPECT_NE(what.find("duplicate"), std::string::npos) << what;
}

TEST(Sweep32, TornTailIsDroppedAndItsShardReruns) {
  sw::Sweep32Config config = small_sqrt_config();
  config.threads = 1;
  TempManifest oneshot_manifest("oneshot");
  config.manifest_path = oneshot_manifest.path();
  const sw::Sweep32Report oneshot = sw::run_sweep32(config);
  ASSERT_TRUE(oneshot.complete);

  // A run cut by a kill mid-append: the last record loses its tail.
  TempManifest manifest("torn");
  config.manifest_path = manifest.path();
  config.max_shards = 7;
  ASSERT_EQ(sw::run_sweep32(config).run_shards, 7u);
  std::string text = read_file(manifest.path());
  text.resize(text.size() - 5);
  std::ofstream(manifest.path(), std::ios::binary | std::ios::trunc) << text;

  config.max_shards = 0;
  const sw::Sweep32Report resumed = sw::run_sweep32(config);
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.run_shards, 25u - 6u);  // the torn shard re-ran
  EXPECT_EQ(resumed.fingerprint, oneshot.fingerprint);
  EXPECT_EQ(resumed.checked, oneshot.checked);

  // The file reloads clean, with exactly the header and one line per
  // shard: the same bytes, in some order, as the one-shot run's.
  const sw::Sweep32Report reloaded = sw::run_sweep32(config);
  EXPECT_EQ(reloaded.run_shards, 0u);
  EXPECT_EQ(reloaded.fingerprint, oneshot.fingerprint);
  const std::string after = read_file(manifest.path());
  EXPECT_EQ(std::count(after.begin(), after.end(), '\n'), 4 + 25);
  EXPECT_EQ(after.back(), '\n');
  EXPECT_EQ(after.size(), read_file(oneshot_manifest.path()).size());
}

TEST(Sweep32, CheckpointsAppendToOneFile) {
  TempManifest manifest("inode");
  sw::Sweep32Config config = small_sqrt_config();
  config.manifest_path = manifest.path();
  config.threads = 1;
  config.max_shards = 7;  // both runs checkpoint every 4 shards and at the end
  (void)sw::run_sweep32(config);
  struct stat first {};
  ASSERT_EQ(::stat(manifest.path().c_str(), &first), 0);
  config.max_shards = 0;
  ASSERT_TRUE(sw::run_sweep32(config).complete);
  struct stat last {};
  ASSERT_EQ(::stat(manifest.path().c_str(), &last), 0);
  EXPECT_EQ(last.st_ino, first.st_ino);  // never replaced by a rename
  EXPECT_GT(last.st_size, first.st_size);
  EXPECT_FALSE(std::ifstream(manifest.path() + ".tmp").is_open());
}

TEST(Sweep32, ZeroCheckpointIntervalThrows) {
  sw::Sweep32Config config = small_sqrt_config();
  config.checkpoint_interval = 0;
  EXPECT_THROW((void)sw::run_sweep32(config), std::invalid_argument);
}

TEST(Sweep32, DeadlineSliceStaysResumable) {
  TempManifest manifest("deadline");
  sw::Sweep32Config config = small_sqrt_config();
  config.manifest_path = manifest.path();
  config.threads = 2;
  config.deadline = std::chrono::milliseconds(1);
  const sw::Sweep32Report slice = sw::run_sweep32(config);
  EXPECT_EQ(slice.run_mismatches, 0u);
  EXPECT_LE(slice.done_shards, slice.total_shards);

  // Whatever the slice managed, finishing the sweep afterwards lands on
  // the uninterrupted fingerprint.
  config.deadline = std::chrono::milliseconds(0);
  const sw::Sweep32Report finished = sw::run_sweep32(config);
  ASSERT_TRUE(finished.complete);

  sw::Sweep32Config fresh = small_sqrt_config();
  fresh.threads = 1;
  EXPECT_EQ(finished.fingerprint, sw::run_sweep32(fresh).fingerprint);
}

/// A manifest's done records: shard -> "<fp> <checked> <mismatches>" (the
/// check word binds the shard index, so it is left out).
std::map<std::uint64_t, std::string> done_records(const std::string& path) {
  std::map<std::uint64_t, std::string> done;
  std::istringstream in(read_file(path));
  std::string key, fp, checked, mismatches, check;
  std::uint64_t shard = 0;
  for (std::string line; std::getline(in, line);) {
    std::istringstream fields(line);
    if (fields >> key >> shard >> fp >> checked >> mismatches >> check &&
        key == "done") {
      done[shard] = fp + " " + checked + " " + mismatches;
    }
  }
  return done;
}

// One task runs every pending mode of a chunk, and sqrt folds its modes
// side by side. Each mode's shards must still record exactly what they
// record when that mode is swept alone: grouping may not mix one mode's
// chain, counts or samples into another's. The range ends in a partial
// chunk whose last block is partial too.
TEST(Sweep32, GroupedModesRecordWhatEachModeRecordsAlone) {
  struct Row {
    sw::SweepOp op;
    std::size_t walk_stride;
  };
  const Row rows[] = {{sw::SweepOp::kSqrt, 1},
                      {sw::SweepOp::kSqrt, 64},
                      {sw::SweepOp::kRoundToIntegral, 64}};
  for (const std::size_t threads : {1u, 4u}) {
    for (const Row& row : rows) {
      const std::string what = std::string(sw::sweep_op_name(row.op)) +
                               " stride=" + std::to_string(row.walk_stride) +
                               " threads=" + std::to_string(threads);
      sw::Sweep32Config config;
      config.op = row.op;
      config.begin = 0x007F'F800;
      config.end = 0x0080'4A37;  // 5 full chunks of 2^12 and 0x237 more
      config.chunk_bits = 12;
      config.threads = threads;
      config.walk_stride = row.walk_stride;
      TempManifest grouped("grouped");
      config.manifest_path = grouped.path();
      const sw::Sweep32Report all = sw::run_sweep32(config);
      ASSERT_TRUE(all.complete) << what;
      EXPECT_EQ(all.mismatches, 0u) << what;
      const auto all_done = done_records(grouped.path());
      const std::uint64_t chunks = 6;
      ASSERT_EQ(all_done.size(), 5 * chunks) << what;

      std::vector<std::string> samples;
      for (std::size_t m = 0; m < std::size(fpq::parallel::kAllRoundings);
           ++m) {
        sw::Sweep32Config one = config;
        one.modes = {fpq::parallel::kAllRoundings[m]};
        TempManifest alone("alone");
        one.manifest_path = alone.path();
        const sw::Sweep32Report rep = sw::run_sweep32(one);
        ASSERT_TRUE(rep.complete) << what;
        samples.insert(samples.end(), rep.mismatch_samples.begin(),
                       rep.mismatch_samples.end());
        const auto one_done = done_records(alone.path());
        ASSERT_EQ(one_done.size(), chunks) << what;
        for (std::uint64_t c = 0; c < chunks; ++c) {
          EXPECT_EQ(all_done.at(m * chunks + c), one_done.at(c))
              << what << " mode " << m << " chunk " << c;
        }
      }
      std::vector<std::string> all_samples = all.mismatch_samples;
      std::sort(all_samples.begin(), all_samples.end());
      std::sort(samples.begin(), samples.end());
      EXPECT_EQ(all_samples, samples) << what;

      // A grid may list a mode twice; past five modes the task folds them
      // five at a time, and a repeated mode records what its first did.
      sw::Sweep32Config seven = config;
      seven.modes.push_back(fpq::parallel::kAllRoundings[0]);
      seven.modes.push_back(fpq::parallel::kAllRoundings[3]);
      TempManifest repeated("repeated");
      seven.manifest_path = repeated.path();
      ASSERT_TRUE(sw::run_sweep32(seven).complete) << what;
      const auto seven_done = done_records(repeated.path());
      for (std::uint64_t c = 0; c < chunks; ++c) {
        EXPECT_EQ(seven_done.at(5 * chunks + c), all_done.at(c)) << what;
        EXPECT_EQ(seven_done.at(6 * chunks + c), all_done.at(3 * chunks + c))
            << what;
      }
    }
  }
}

// Every op's engine lane agrees with its reference on a slice spanning
// subnormals, normals and the inf/NaN band. The kFrom* ops are cheap
// enough to sweep their ENTIRE 2^16 space here.
TEST(Sweep32, EveryOpSliceClean) {
  for (const sw::SweepOp op : sw::kAllSweepOps) {
    sw::Sweep32Config config;
    config.op = op;
    config.chunk_bits = 12;
    if (sw::op_space_size(op) == (std::uint64_t{1} << 16)) {
      config.begin = 0;
      config.end = 0;  // full 2^16
    } else {
      config.begin = 0x7F7F'F000;  // top binade -> inf -> NaNs
      config.end = 0x7F81'1000;
    }
    const sw::Sweep32Report report = sw::run_sweep32(config);
    EXPECT_TRUE(report.complete) << sw::sweep_op_name(op);
    EXPECT_EQ(report.mismatches, 0u)
        << sw::sweep_op_name(op) << ": "
        << (report.mismatch_samples.empty() ? ""
                                            : report.mismatch_samples[0]);
  }
}

// Characterization pins for the seven binary32-conversion rows: the grid
// identity under the default config (so existing manifests still
// resume) and the complete-window fingerprint and checked count on the
// EveryOpSliceClean windows. A change to any row's enumerator, name,
// chunk body or fold shows up here.
TEST(Sweep32, ExistingRowsKeepIdentityFingerprintAndCount) {
  struct Pin {
    sw::SweepOp op;
    std::uint64_t identity;
    std::uint64_t fingerprint;
    std::uint64_t checked;
  };
  const Pin pins[] = {
      {sw::SweepOp::kSqrt, 0x2ef9bc052b82874bull, 0x2bf74e69ec39019eull,
       368640},
      {sw::SweepOp::kRoundToIntegral, 0xcba46baaaa3f8144ull,
       0x6df6224865d4312cull, 368640},
      {sw::SweepOp::kToBinary16, 0xcc46dd84b710b668ull,
       0xdb7db10991ee5c23ull, 368640},
      {sw::SweepOp::kToBinary64, 0x743f5b5f1823b423ull,
       0x9c0818c6093b3b08ull, 368640},
      {sw::SweepOp::kToBFloat16, 0xcab40f7cc0ebc63eull,
       0xe4b933261133d2f6ull, 368640},
      {sw::SweepOp::kFromBinary16, 0x0d222ed629a00468ull,
       0x7e8b480630455c70ull, 327680},
      {sw::SweepOp::kFromBFloat16, 0x78abbc4ef4afa511ull,
       0x5666c2713096fdaaull, 327680},
  };
  for (const Pin& pin : pins) {
    sw::Sweep32Config config;
    config.op = pin.op;
    EXPECT_EQ(sw::sweep32_identity(config), pin.identity)
        << sw::sweep_op_name(pin.op);

    config.chunk_bits = 12;
    if (sw::op_space_size(pin.op) != (std::uint64_t{1} << 16)) {
      config.begin = 0x7F7F'F000;
      config.end = 0x7F81'1000;
    }
    const sw::Sweep32Report report = sw::run_sweep32(config);
    ASSERT_TRUE(report.complete) << sw::sweep_op_name(pin.op);
    EXPECT_EQ(report.fingerprint, pin.fingerprint)
        << sw::sweep_op_name(pin.op);
    EXPECT_EQ(report.checked, pin.checked) << sw::sweep_op_name(pin.op);
  }
}

TEST(Sweep32, SqrtSubnormalAndZeroBoundarySliceClean) {
  sw::Sweep32Config config;
  config.op = sw::SweepOp::kSqrt;
  config.begin = 0;
  config.end = 0x2000;  // +-0 neighbourhood: first subnormal chunks
  config.chunk_bits = 12;
  const sw::Sweep32Report report = sw::run_sweep32(config);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.mismatches, 0u)
      << (report.mismatch_samples.empty() ? ""
                                          : report.mismatch_samples[0]);
}

// The special classes with every lane on, the tree walk on every pattern
// and all five modes: the largest finites into +inf, the sNaN/qNaN edge,
// and both again with the sign bit set. They run the IR lanes' NaN flag
// skip and the roundTiesToAway reference's special-class answers. The
// lanes only check, so the fingerprint equals a run with every lane off.
TEST(Sweep32, SqrtSpecialClassSlicesCleanOnEveryLane) {
  const std::uint32_t begins[] = {0x7F7F'F000u, 0x7FBF'F000u, 0xFF7F'F000u,
                                  0xFFBF'F000u};
  for (const std::uint32_t begin : begins) {
    sw::Sweep32Config config;
    config.op = sw::SweepOp::kSqrt;
    config.begin = begin;
    config.end = begin + 0x2000u;
    config.chunk_bits = 12;
    config.walk_stride = 1;
    const sw::Sweep32Report report = sw::run_sweep32(config);
    EXPECT_TRUE(report.complete) << std::hex << begin;
    EXPECT_EQ(report.checked, 5u * 0x2000u) << std::hex << begin;
    EXPECT_EQ(report.mismatches, 0u)
        << std::hex << begin << ": "
        << (report.mismatch_samples.empty() ? ""
                                            : report.mismatch_samples[0]);

    config.race_hardware = false;
    config.race_tape = false;
    EXPECT_EQ(sw::run_sweep32(config).fingerprint, report.fingerprint)
        << std::hex << begin;
  }
}

// The exact flag reference on hand-picked encodings, each paired with its
// correctly rounded root.
TEST(Sweep32, RefSqrtFlagsOnHandPickedEncodings) {
  const auto flags = [](std::uint32_t bits) {
    const sf::Float32 x{bits};
    return sw::ref_sqrt_flags(x, sw::ref_sqrt(x, sf::Rounding::kNearestEven));
  };
  EXPECT_EQ(flags(0x0000'0000u), 0u);  // +0
  EXPECT_EQ(flags(0x8000'0000u), 0u);  // -0: sqrt(-0) = -0, no invalid
  EXPECT_EQ(flags(0x4080'0000u), 0u);  // 4.0: exact root 2.0
  EXPECT_EQ(flags(0x4000'0000u), unsigned{sf::kFlagInexact});  // 2.0
  EXPECT_EQ(flags(0x0000'0001u),  // min subnormal 2^-149: irrational root
            unsigned{sf::kFlagDenormalInput | sf::kFlagInexact});
  EXPECT_EQ(flags(0x0000'0002u),  // 2^-148: exact root 2^-74
            unsigned{sf::kFlagDenormalInput});
  EXPECT_EQ(flags(0xBF80'0000u), unsigned{sf::kFlagInvalid});  // -1
  EXPECT_EQ(flags(0x8000'0001u), unsigned{sf::kFlagInvalid});  // -subnormal
  EXPECT_EQ(flags(0x7F80'0000u), 0u);                          // +inf
  EXPECT_EQ(flags(0xFF80'0000u), unsigned{sf::kFlagInvalid});  // -inf
  EXPECT_EQ(flags(0x7FC0'0000u), 0u);                          // qNaN
  EXPECT_EQ(flags(0xFFC0'0001u), 0u);                          // -qNaN
  EXPECT_EQ(flags(0x7FA0'0000u), unsigned{sf::kFlagInvalid});  // sNaN
  // A root one ulp off squares away from the operand: inexact, not exact.
  EXPECT_EQ(sw::ref_sqrt_flags(sf::Float32{0x4080'0000u},
                               sf::Float32{0x4000'0001u}),
            unsigned{sf::kFlagInexact});
}

// The batched roundTiesToAway reference agrees with the scalar one on
// every corner pattern of either sign and on every 4093rd pattern of the
// whole space (a prime stride, so every class and low-bit residue shows).
TEST(Sweep32, RefSqrtAwayBatchMatchesTheScalarReference) {
  std::vector<sf::Float32> in;
  for (const std::uint32_t bits : sw::corner32_patterns()) {
    in.push_back(sf::Float32{bits});
    in.push_back(sf::Float32{bits ^ 0x8000'0000u});
  }
  for (std::uint64_t p = 0; p <= 0xFFFF'FFFFu; p += 4093) {
    in.push_back(sf::Float32{static_cast<std::uint32_t>(p)});
  }
  std::vector<sf::Float32> out(in.size());
  sw::ref_sqrt_away_n(in, out);
  for (std::size_t i = 0; i < in.size(); ++i) {
    ASSERT_EQ(out[i].bits,
              sw::ref_sqrt(in[i], sf::Rounding::kNearestAway).bits)
        << sf::describe(in[i]);
  }
}

TEST(Sweep32, CornerCorpusCleanWithRandomTail) {
  const sw::CorpusReport report = sw::run_corner_corpus(512);
  EXPECT_GT(report.checked, 1'000'000u);
  EXPECT_EQ(report.mismatches, 0u)
      << (report.mismatch_samples.empty() ? ""
                                          : report.mismatch_samples[0]);
}

TEST(Sweep32, CornerCorpusIsDeterministic) {
  const sw::CorpusReport a = sw::run_corner_corpus(64, 123);
  const sw::CorpusReport b = sw::run_corner_corpus(64, 123);
  EXPECT_EQ(a.checked, b.checked);
  EXPECT_EQ(a.mismatches, b.mismatches);
}

TEST(Sweep32, UlpStratifiedSamplerCoversBandsAndStaysFinite) {
  fpq::parallel::sweep_detail::Sm64 g(42);
  bool subnormal = false, small_normal = false, large_normal = false;
  bool negative = false;
  for (int i = 0; i < 20000; ++i) {
    const sf::Float32 x{sw::ulp_stratified_pattern(g)};
    ASSERT_TRUE(x.is_finite()) << sf::describe(x);
    if (x.is_subnormal()) subnormal = true;
    if (x.sign()) negative = true;
    const std::uint32_t exp = (x.bits >> 23) & 0xFF;
    if (exp != 0 && exp < 64) small_normal = true;
    if (exp >= 192) large_normal = true;
  }
  EXPECT_TRUE(subnormal);
  EXPECT_TRUE(small_normal);
  EXPECT_TRUE(large_normal);
  EXPECT_TRUE(negative);
}

TEST(Sweep32, CornerCorpusPatternsAreCanonicalAndCoverClasses) {
  bool zero = false, subnormal = false, normal = false, inf = false,
       nan = false;
  for (const std::uint32_t p : sw::corner32_patterns()) {
    EXPECT_EQ(p & 0x8000'0000u, 0u) << std::hex << p
                                    << " (corpus stores magnitudes; the "
                                       "runner mirrors signs)";
    const sf::Float32 x{p};
    zero |= x.is_zero();
    subnormal |= x.is_subnormal();
    normal |= x.is_finite() && !x.is_zero() && !x.is_subnormal();
    inf |= x.is_infinity();
    nan |= x.is_nan();
  }
  EXPECT_TRUE(zero);
  EXPECT_TRUE(subnormal);
  EXPECT_TRUE(normal);
  EXPECT_TRUE(inf);
  EXPECT_TRUE(nan);
}

TEST(Sweep32, ShardCountIsZeroOutsideTheChunkBitsRange) {
  sw::Sweep32Config config = small_sqrt_config();
  for (const int bits : {0, 33, 64, INT_MAX, -1}) {
    config.chunk_bits = bits;
    EXPECT_EQ(sw::sweep32_shard_count(config), 0u) << bits;
    EXPECT_THROW((void)sw::run_sweep32(config), std::invalid_argument)
        << bits;
  }
  config.chunk_bits = 32;
  EXPECT_EQ(sw::sweep32_shard_count(config), 5u);  // one chunk per mode
  config.chunk_bits = 1;
  EXPECT_EQ(sw::sweep32_shard_count(config),
            5u * (config.end - config.begin) / 2);
}

// (P2): the prefix [0, k * 2^16) pairs every a with k distinct partners,
// a set no other a gets. (P1): decode/encode round-trips, so the full
// space visits every (a, b) exactly once.
TEST(Sweep32, PairMappingCoversPairsOnceAndSpreadsPrefixes) {
  constexpr std::uint32_t kPrefix = 4u << 16;
  std::vector<std::vector<std::uint16_t>> partners(1u << 16);
  for (std::uint32_t p = 0; p < kPrefix; ++p) {
    const sw::Pair16 ab = sw::decode_pair16(p);
    ASSERT_EQ(sw::encode_pair16(ab), p);
    partners[ab.a].push_back(ab.b);
  }
  for (std::uint32_t a = 0; a < (1u << 16); ++a) {
    std::vector<std::uint16_t>& bs = partners[a];
    ASSERT_EQ(bs.size(), 4u) << a;
    std::sort(bs.begin(), bs.end());
    EXPECT_EQ(std::adjacent_find(bs.begin(), bs.end()), bs.end()) << a;
  }
  std::sort(partners.begin(), partners.end());
  EXPECT_EQ(std::adjacent_find(partners.begin(), partners.end()),
            partners.end());

  fpq::parallel::sweep_detail::Sm64 g(2024);
  for (int i = 0; i < 1'000'000; ++i) {
    const auto p = static_cast<std::uint32_t>(g.next());
    ASSERT_EQ(sw::encode_pair16(sw::decode_pair16(p)), p) << p;
  }
}

// -- The oracle rows ---------------------------------------------------------
//
// The sampled binary16/32/64 checks and the exhaustive binary16 checks
// are rows of the same grid: every case is checked on every run, and the
// fingerprint does not depend on threads or chunking.

constexpr sw::SweepOp kOracleRows[] = {
    sw::SweepOp::kSqrt16,   sw::SweepOp::kAdd16,    sw::SweepOp::kSub16,
    sw::SweepOp::kMul16,    sw::SweepOp::kDiv16,    sw::SweepOp::kFma16,
    sw::SweepOp::kSample16, sw::SweepOp::kSample32, sw::SweepOp::kSample64,
};

/// 1,024 draws per (op, class) of a sample row: 6 ops x 4 classes.
constexpr std::uint64_t kSamplePrefix = 24 * 1024;

std::string first_sample(const sw::Sweep32Report& report) {
  return report.mismatch_samples.empty() ? "" : report.mismatch_samples[0];
}

TEST(OracleSweep, Binary16SweepFindsNoMismatches) {
  sw::Sweep32Config config;
  config.op = sw::SweepOp::kSample16;
  config.end = kSamplePrefix;
  config.chunk_bits = 12;
  const sw::Sweep32Report report = sw::run_sweep32(config);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.mismatches, 0u) << first_sample(report);
  EXPECT_EQ(report.checked, 5u * kSamplePrefix);  // 122,880
}

TEST(OracleSweep, NativeSweepsFindNoMismatchesAndSkipTiesAway) {
  for (const sw::SweepOp op : {sw::SweepOp::kSample32,
                               sw::SweepOp::kSample64}) {
    sw::Sweep32Config config;
    config.op = op;
    config.end = kSamplePrefix;
    config.chunk_bits = 12;
    // roundTiesToAway is not hardware-expressible: a 4-mode grid.
    EXPECT_EQ(sw::sweep32_shard_count(config), 4u * 6u)
        << sw::sweep_op_name(op);
    const sw::Sweep32Report report = sw::run_sweep32(config);
    EXPECT_TRUE(report.complete) << sw::sweep_op_name(op);
    EXPECT_EQ(report.total_shards, 4u * 6u) << sw::sweep_op_name(op);
    EXPECT_EQ(report.checked, 4u * kSamplePrefix) << sw::sweep_op_name(op);
    EXPECT_EQ(report.mismatches, 0u)
        << sw::sweep_op_name(op) << ": " << first_sample(report);

    // A grid of roundTiesToAway alone has no mode to run.
    config.modes = {sf::Rounding::kNearestAway};
    EXPECT_EQ(sw::sweep32_shard_count(config), 0u);
    EXPECT_THROW((void)sw::run_sweep32(config), std::invalid_argument);
  }
}

TEST(OracleSweep, ReportIsIndependentOfThreadCount) {
  for (const sw::SweepOp op : kOracleRows) {
    sw::Sweep32Config config;
    config.op = op;
    config.end = 1u << 14;
    config.chunk_bits = 10;
    std::uint64_t fingerprint = 0;
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      config.threads = threads;
      const sw::Sweep32Report report = sw::run_sweep32(config);
      ASSERT_TRUE(report.complete) << sw::sweep_op_name(op);
      EXPECT_EQ(report.mismatches, 0u)
          << sw::sweep_op_name(op) << ": " << first_sample(report);
      if (threads == 1) {
        fingerprint = report.fingerprint;
      } else {
        EXPECT_EQ(report.fingerprint, fingerprint)
            << sw::sweep_op_name(op) << " threads=" << threads;
      }
    }
  }
}

TEST(OracleSweep, ExhaustiveReportIsIndependentOfChunkingAndThreads) {
  // A pattern's check depends on the pattern alone, so every chunking
  // checks the same cases; the fingerprint is part of the grid (it mixes
  // shard indices) and must agree across threads at each chunking.
  for (const sw::SweepOp op : kOracleRows) {
    sw::Sweep32Config config;
    config.op = op;
    config.modes = {sf::Rounding::kUp};
    config.end = 1u << 16;
    for (const int bits : {10, 12, 16}) {
      config.chunk_bits = bits;
      std::uint64_t fingerprint = 0;
      for (const std::size_t threads : {1u, 4u}) {
        config.threads = threads;
        const sw::Sweep32Report report = sw::run_sweep32(config);
        ASSERT_TRUE(report.complete) << sw::sweep_op_name(op);
        EXPECT_EQ(report.checked, 1u << 16) << sw::sweep_op_name(op);
        EXPECT_EQ(report.mismatches, 0u)
            << sw::sweep_op_name(op) << ": " << first_sample(report);
        if (threads == 1) {
          fingerprint = report.fingerprint;
        } else {
          EXPECT_EQ(report.fingerprint, fingerprint)
              << sw::sweep_op_name(op) << " chunk_bits=" << bits;
        }
      }
    }
  }
}

TEST(OracleSweep, RepeatSweepRechecksEveryCase) {
  // Verdicts are never served from a cache: a second manifest-less run of
  // the same config checks every case again and reaches the same state.
  sw::Sweep32Config config;
  config.op = sw::SweepOp::kSample16;
  config.end = kSamplePrefix;
  config.chunk_bits = 12;
  const sw::Sweep32Report first = sw::run_sweep32(config);
  const sw::Sweep32Report second = sw::run_sweep32(config);
  EXPECT_EQ(first.run_checked, 5u * kSamplePrefix);
  EXPECT_EQ(second.run_checked, first.run_checked);
  EXPECT_EQ(second.run_shards, first.run_shards);
  EXPECT_EQ(second.mismatches, first.mismatches);
  EXPECT_EQ(second.fingerprint, first.fingerprint);
}

}  // namespace
