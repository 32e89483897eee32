#include "fpmon/hardware.hpp"

#include <cfenv>

#if defined(__x86_64__) || defined(__SSE__)
#include <immintrin.h>
#define FPQ_HAVE_MXCSR 1
#else
#define FPQ_HAVE_MXCSR 0
#endif

namespace fpq::mon {

bool mxcsr_supported() noexcept { return FPQ_HAVE_MXCSR != 0; }

std::uint32_t read_mxcsr() noexcept {
#if FPQ_HAVE_MXCSR
  return _mm_getcsr();
#else
  return 0;
#endif
}

void write_mxcsr(std::uint32_t value) noexcept {
#if FPQ_HAVE_MXCSR
  _mm_setcsr(value);
#else
  (void)value;
#endif
}

bool flush_to_zero_enabled() noexcept {
  return mxcsr_supported() && (read_mxcsr() & kMxcsrFtz) != 0;
}

bool denormals_are_zero_enabled() noexcept {
  return mxcsr_supported() && (read_mxcsr() & kMxcsrDaz) != 0;
}

ScopedFlushMode::ScopedFlushMode(bool ftz, bool daz) noexcept {
  if (!mxcsr_supported()) return;
  saved_ = read_mxcsr();
  std::uint32_t next = saved_ & ~(kMxcsrFtz | kMxcsrDaz);
  if (ftz) next |= kMxcsrFtz;
  if (daz) next |= kMxcsrDaz;
  write_mxcsr(next);
  active_ = true;
}

ScopedFlushMode::~ScopedFlushMode() {
  if (active_) write_mxcsr(saved_);
}

void clear_mxcsr_flags() noexcept {
  if (!mxcsr_supported()) return;
  write_mxcsr(read_mxcsr() & ~kMxcsrAllFlags);
}

bool denormal_operand_seen() noexcept {
  return mxcsr_supported() && (read_mxcsr() & kMxcsrFlagDenormal) != 0;
}

unsigned sticky_flags() noexcept {
  const int excepts = std::fetestexcept(FE_ALL_EXCEPT);
  unsigned f = 0;
  if ((excepts & FE_INVALID) != 0) f |= softfloat::kFlagInvalid;
  if ((excepts & FE_DIVBYZERO) != 0) f |= softfloat::kFlagDivByZero;
  if ((excepts & FE_OVERFLOW) != 0) f |= softfloat::kFlagOverflow;
  if ((excepts & FE_UNDERFLOW) != 0) f |= softfloat::kFlagUnderflow;
  if ((excepts & FE_INEXACT) != 0) f |= softfloat::kFlagInexact;
  if (denormal_operand_seen()) f |= softfloat::kFlagDenormalInput;
  return f;
}

}  // namespace fpq::mon
