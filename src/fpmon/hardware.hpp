// fpq::mon — the one layer between fpqual and the host FPU.
//
// On x86 the SSE control/status register (MXCSR) carries both the sticky
// exception flags (including the DE "denormal operand" bit that C's fenv
// does not expose portably) and the non-standard FTZ/DAZ mode bits the
// paper's "Flush to Zero" question asks about. This header wraps the raw
// register with feature detection so the rest of fpmon stays portable.
//
// It also holds every other piece that runs an operation on the real FPU
// or reads its state: the opaque op templates (host::add ...
// host::round_away), the softfloat Rounding -> fenv direction map with
// its set-and-restore guard, and the fenv + DE -> softfloat flag map. The
// native evaluator, the sweep's references, the injector and the probes
// all share them, so "run this op on the host under this mode" is written
// once.
#pragma once

#include <cfenv>
#include <cmath>
#include <cstdint>

#include "softfloat/env.hpp"

namespace fpq::mon {

/// True when this build can read/write MXCSR (x86 with SSE).
bool mxcsr_supported() noexcept;

/// Raw MXCSR value; 0 when unsupported.
std::uint32_t read_mxcsr() noexcept;

/// Writes MXCSR; no-op when unsupported.
void write_mxcsr(std::uint32_t value) noexcept;

// MXCSR bit positions (Intel SDM Vol. 1 §10.2.3).
inline constexpr std::uint32_t kMxcsrFlagInvalid = 1u << 0;
inline constexpr std::uint32_t kMxcsrFlagDenormal = 1u << 1;
inline constexpr std::uint32_t kMxcsrFlagDivByZero = 1u << 2;
inline constexpr std::uint32_t kMxcsrFlagOverflow = 1u << 3;
inline constexpr std::uint32_t kMxcsrFlagUnderflow = 1u << 4;
inline constexpr std::uint32_t kMxcsrFlagPrecision = 1u << 5;
inline constexpr std::uint32_t kMxcsrDaz = 1u << 6;
inline constexpr std::uint32_t kMxcsrFtz = 1u << 15;
inline constexpr std::uint32_t kMxcsrAllFlags = 0x3Fu;

/// Current FTZ / DAZ mode bits (false when MXCSR is unavailable).
bool flush_to_zero_enabled() noexcept;
bool denormals_are_zero_enabled() noexcept;

/// RAII guard that sets FTZ/DAZ for a scope and restores the previous
/// MXCSR on exit. Constructing on a non-x86 host is a harmless no-op;
/// check active() to know whether the request took effect.
class ScopedFlushMode {
 public:
  ScopedFlushMode(bool ftz, bool daz) noexcept;
  ~ScopedFlushMode();
  ScopedFlushMode(const ScopedFlushMode&) = delete;
  ScopedFlushMode& operator=(const ScopedFlushMode&) = delete;

  bool active() const noexcept { return active_; }

 private:
  std::uint32_t saved_ = 0;
  bool active_ = false;
};

/// Clears the MXCSR sticky exception flags (only; modes untouched).
void clear_mxcsr_flags() noexcept;

/// True when the DE (denormal operand) sticky bit is currently set.
bool denormal_operand_seen() noexcept;

/// The host's sticky exceptions so far, as softfloat Flag bits: the five
/// fetestexcept(FE_ALL_EXCEPT) bits, plus kFlagDenormalInput for the MXCSR
/// DE bit where MXCSR is readable. Read-only.
unsigned sticky_flags() noexcept;

/// The fenv direction for a softfloat rounding attribute. C's fenv has no
/// ties-away direction, so kNearestAway maps to FE_TONEAREST: a caller
/// that needs ties-away tests for it itself (sweep32_ref.hpp says, per
/// op, where ties-to-even is a valid stand-in).
inline int fenv_rounding(softfloat::Rounding r) noexcept {
  switch (r) {
    case softfloat::Rounding::kTowardZero:
      return FE_TOWARDZERO;
    case softfloat::Rounding::kDown:
      return FE_DOWNWARD;
    case softfloat::Rounding::kUp:
      return FE_UPWARD;
    case softfloat::Rounding::kNearestEven:
    case softfloat::Rounding::kNearestAway:
      return FE_TONEAREST;
  }
  return FE_TONEAREST;
}

/// RAII host rounding-direction guard (fenv state is thread-local, so
/// concurrent shards flipping modes never interfere). Writes the control
/// registers only when the direction actually changes: per-value
/// references run it once per call.
class ScopedFenvRounding {
 public:
  explicit ScopedFenvRounding(int mode)
      : saved_(std::fegetround()), changed_(mode != saved_) {
    if (changed_) std::fesetround(mode);
  }
  ~ScopedFenvRounding() {
    if (changed_) std::fesetround(saved_);
  }
  ScopedFenvRounding(const ScopedFenvRounding&) = delete;
  ScopedFenvRounding& operator=(const ScopedFenvRounding&) = delete;

 private:
  int saved_;
  bool changed_;
};

// Opaque host arithmetic: one noinline call per op, whose volatile
// operands defeat constant folding and contraction, so the operation
// executes on the FPU under the fenv state current at call time and an
// enclosing ScopedMonitor sees its genuine exceptions.
namespace host {

template <typename T>
[[gnu::noinline]] T add(T a, T b) {
  volatile T x = a, y = b, r = x + y;
  return r;
}
template <typename T>
[[gnu::noinline]] T sub(T a, T b) {
  volatile T x = a, y = b, r = x - y;
  return r;
}
template <typename T>
[[gnu::noinline]] T mul(T a, T b) {
  volatile T x = a, y = b, r = x * y;
  return r;
}
template <typename T>
[[gnu::noinline]] T div(T a, T b) {
  volatile T x = a, y = b, r = x / y;
  return r;
}
template <typename T>
[[gnu::noinline]] T sqrt(T a) {
  volatile T x = a;
  volatile T r = std::sqrt(x);
  return r;
}
template <typename T>
[[gnu::noinline]] T fma(T a, T b, T c) {
  volatile T x = a, y = b, z = c;
  volatile T r = std::fma(x, y, z);
  return r;
}
template <typename T>
[[gnu::noinline]] bool eq(T a, T b) {
  volatile T x = a, y = b;
  return x == y;
}
template <typename T>
[[gnu::noinline]] bool lt(T a, T b) {
  volatile T x = a, y = b;
  return x < y;
}

/// double -> float (the narrowing rounds and raises under the fenv state).
[[gnu::noinline]] inline float narrow(double a) {
  volatile double x = a;
  volatile float r = static_cast<float>(x);
  return r;
}

/// float -> double (exact, but the conversion instruction still runs).
[[gnu::noinline]] inline double widen(float a) {
  volatile float x = a;
  volatile double r = static_cast<double>(x);
  return r;
}

/// roundToIntegral under the ambient fenv direction.
template <typename T>
[[gnu::noinline]] T rint(T a) {
  volatile T x = a;
  volatile T r = std::rint(x);
  return r;
}

/// roundToIntegral ties away from zero: round() does that in every fenv
/// direction, which is exactly IEEE roundTiesToAway for this op.
template <typename T>
[[gnu::noinline]] T round_away(T a) {
  volatile T x = a;
  volatile T r = std::round(x);
  return r;
}

}  // namespace host

}  // namespace fpq::mon
