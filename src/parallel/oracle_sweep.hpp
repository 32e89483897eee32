// fpq::parallel — the sharded softfloat-vs-native differential oracle.
//
// The harness's ground truth rests on the soft IEEE-754 engine agreeing
// with native hardware wherever hardware is IEEE. This module turns that
// claim into a scalable sweep: the (format × operation × rounding mode ×
// operand class) space is sharded into independent tasks, distributed over
// a ThreadPool, and checked against exact (or provably tight) references.
// Every run checks every case: a verdict is never served from a cache.
//
// Two reference strategies:
//
//  * binary16: every add/sub/mul of binary16 values is EXACT in binary64
//    (<= 50 significant bits), so one soft narrowing under the target mode
//    is the correctly rounded answer. div/sqrt use the hardware binary64
//    result computed under a matching rounding direction — double rounding
//    53 -> 11 bits is innocuous (Figueroa: wide precision >= 2p + 2), and
//    binary16 quotients/roots can never land on an 11-bit tie, which also
//    legitimizes roundTiesToAway via the hardware's ties-to-even. fma uses
//    the exact product plus Knuth TwoSum, rounded to odd before the final
//    narrowing (Boldo–Melquiond), which is exact in all five modes.
//
//  * binary32/binary64: the soft engine runs head-to-head against the
//    host FPU's same-width operations under the four hardware-expressible
//    rounding modes, bit for bit.
//
// Determinism: task operand streams derive from shard_seed(seed, task) —
// a sweep's counts are a pure function of its config, independent of
// thread count and schedule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "softfloat/env.hpp"

namespace fpq::parallel {

enum class SweepOp : std::uint8_t { kAdd, kSub, kMul, kDiv, kSqrt, kFma };
const char* sweep_op_name(SweepOp op) noexcept;

/// Operand population a task draws from, so a shard advertises exactly
/// which slice of the input space it covered.
enum class OperandClass : std::uint8_t {
  kNormal,     ///< finite normals, full exponent range
  kSubnormal,  ///< subnormals (and the zero border)
  kSpecial,    ///< zeros, infinities, NaNs, format extremes
  kMixed,      ///< uniform over all encodings
};
const char* operand_class_name(OperandClass c) noexcept;

inline constexpr SweepOp kAllSweepOps[] = {
    SweepOp::kAdd, SweepOp::kSub, SweepOp::kMul,
    SweepOp::kDiv, SweepOp::kSqrt, SweepOp::kFma,
};
inline constexpr softfloat::Rounding kAllRoundings[] = {
    softfloat::Rounding::kNearestEven, softfloat::Rounding::kTowardZero,
    softfloat::Rounding::kDown, softfloat::Rounding::kUp,
    softfloat::Rounding::kNearestAway,
};
inline constexpr OperandClass kAllOperandClasses[] = {
    OperandClass::kNormal, OperandClass::kSubnormal, OperandClass::kSpecial,
    OperandClass::kMixed,
};

struct SweepConfig {
  std::vector<SweepOp> ops{std::begin(kAllSweepOps), std::end(kAllSweepOps)};
  std::vector<softfloat::Rounding> modes{std::begin(kAllRoundings),
                                         std::end(kAllRoundings)};
  std::vector<OperandClass> classes{std::begin(kAllOperandClasses),
                                    std::end(kAllOperandClasses)};
  std::uint64_t seed = 0x5EED16;
  std::size_t cases_per_task = 2048;
  std::size_t tasks_per_axis = 8;  ///< shards per (op, mode, class) cell
};

/// Outcome of one shard: how many cases ran, how many diverged from the
/// reference, and a diagnostic for the first divergence (empty if none).
struct ShardResult {
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
};

struct SweepReport {
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t tasks = 0;
  std::string first_mismatch;  ///< diagnostic for the lowest-index failure
};

/// Randomized class-stratified binary16 differential sweep (exact oracle).
SweepReport run_binary16_sweep(ThreadPool& pool, const SweepConfig& config);

/// Same sweep against the host FPU at native widths. `format_bits` must
/// be 32 or 64; roundTiesToAway (not hardware-expressible) and kFma-free
/// op lists are filtered automatically... modes the hardware cannot
/// express are skipped rather than failed.
SweepReport run_native_sweep(ThreadPool& pool, int format_bits,
                             const SweepConfig& config);

/// Exhaustive binary16 sweep: for every op and mode, ALL 65536 encodings
/// of the first operand, with `samples_per_operand` deterministic partner
/// operands each for binary/ternary ops (unary ops cover the full space
/// exactly once). This is the bench's `--threads N` workload and the
/// engine behind the exhaustive fma/sqrt tests.
struct ExhaustiveConfig {
  std::vector<SweepOp> ops{std::begin(kAllSweepOps), std::end(kAllSweepOps)};
  std::vector<softfloat::Rounding> modes{std::begin(kAllRoundings),
                                         std::end(kAllRoundings)};
  std::size_t samples_per_operand = 4;
  std::uint64_t seed = 0xE16;
  std::size_t chunks_per_cell = 64;  ///< shards over the 2^16 space per cell
};

SweepReport run_exhaustive_binary16(ThreadPool& pool,
                                    const ExhaustiveConfig& config);

}  // namespace fpq::parallel
