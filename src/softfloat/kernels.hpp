// fpq::softfloat — batch kernel variant selection.
//
// The batch entry points in batch.hpp are backed by up to three
// interchangeable engines per operation, selected at runtime:
//
//   kScalar   — the per-lane scalar softfloat operations (the reference:
//               every other variant must be bit- and flag-identical to it).
//   kPortable — plain-C++ accelerated kernels: integer add-and-mask
//               rounding for converts/round-to-int and operand narrowing,
//               and the native double technique of softfloat/fast.hpp
//               for binary32 and binary16 arithmetic (one lane body per
//               op for both formats). No intrinsics; hot loops are written
//               so the compiler can auto-vectorize the integer paths.
//   kAvx2     — hand-vectorized AVX2 kernels for binary32 sqrt, the five
//               binary32 arithmetic ops and the double -> binary32
//               operand narrowing, the ops a workload runs hot; every
//               other operation (binary16 arithmetic, round-to-integral
//               and the converts among them) falls through to the
//               portable implementation.
//
// The default is the best variant the CPU supports. Tests and benches can
// force a variant (set_kernel_variant_override) to prove dispatch parity:
// identical sweep fingerprints and --tape-gate parity under every variant.
// The batched tape interpreter runs every format through the batch entry
// points, so forcing kScalar makes the whole tape stack run the scalar
// reference loops.
//
// Caching note: no batch result is cached, so a run under one variant
// never sees results computed under another. Tape COMPILATION
// (Tape::compile / Tape::fingerprint) is variant-independent: the variant
// only selects the execution engine, never the compiled program.
#pragma once

#include <string_view>

namespace fpq::softfloat {

enum class KernelVariant : unsigned char {
  kScalar = 0,
  kPortable = 1,
  kAvx2 = 2,
};

/// Stable lowercase name ("scalar" / "portable" / "avx2") for manifests,
/// perf JSON env metadata, and CLI flags.
const char* kernel_variant_name(KernelVariant v) noexcept;

/// Parses a kernel_variant_name back; returns false on unknown names.
bool parse_kernel_variant(std::string_view name, KernelVariant& out) noexcept;

/// True when the variant can run on this machine (kScalar and kPortable
/// always can; kAvx2 needs both an AVX2-enabled build and an AVX2 CPU).
bool kernel_variant_available(KernelVariant v) noexcept;

/// The best available variant (kAvx2 > kPortable), detected once.
KernelVariant best_kernel_variant() noexcept;

/// The variant the batch entry points dispatch on: the override if one is
/// set, otherwise best_kernel_variant().
KernelVariant active_kernel_variant() noexcept;

/// Test/bench override. Setting an unavailable variant is ignored and
/// returns false (so forced-variant CI lanes degrade gracefully on
/// machines without AVX2). Thread-safe; affects every thread.
bool set_kernel_variant_override(KernelVariant v) noexcept;
void clear_kernel_variant_override() noexcept;

/// Raw override state for save/restore pairs: -1 = no override, else the
/// forced variant. Lets nested ScopedKernelVariant scopes compose — the
/// inner scope restores the OUTER override, not "no override".
int kernel_variant_override_raw() noexcept;
void restore_kernel_variant_override(int raw) noexcept;

/// RAII override for tests. Nests: destruction restores whatever override
/// (or lack of one) was in force at construction.
class ScopedKernelVariant {
 public:
  explicit ScopedKernelVariant(KernelVariant v) noexcept
      : saved_(kernel_variant_override_raw()) {
    applied_ = set_kernel_variant_override(v);
  }
  ~ScopedKernelVariant() { restore_kernel_variant_override(saved_); }
  ScopedKernelVariant(const ScopedKernelVariant&) = delete;
  ScopedKernelVariant& operator=(const ScopedKernelVariant&) = delete;
  /// False when the variant was unavailable and the override was ignored.
  bool applied() const noexcept { return applied_; }

 private:
  int saved_ = -1;
  bool applied_ = false;
};

}  // namespace fpq::softfloat
