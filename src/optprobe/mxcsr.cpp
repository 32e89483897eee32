#include "optprobe/mxcsr.hpp"

namespace fpq::opt {

namespace {

constexpr double kMinNormal = 2.2250738585072014e-308;   // 2^-1022
constexpr double kMinSubnormal = 4.9406564584124654e-324;  // 2^-1074

}  // namespace

FlushProbeResult probe_flush_modes() noexcept {
  FlushProbeResult r;
  r.mxcsr_available = mon::mxcsr_supported();
  if (!r.mxcsr_available) return r;

  r.ftz_default_on = mon::flush_to_zero_enabled();
  r.daz_default_on = mon::denormals_are_zero_enabled();

  // mon::host's opaque ops run each multiply and add on the FPU under the
  // MXCSR state current at call time.
  {
    // IEEE mode: halving the smallest normal must give a subnormal.
    mon::ScopedFlushMode ieee(false, false);
    const double tiny = mon::host::mul(kMinNormal, 0.5);
    r.ieee_gradual_underflow = tiny != 0.0 && tiny < kMinNormal;
  }
  {
    // FTZ: the same computation flushes to zero.
    mon::ScopedFlushMode ftz(true, false);
    const double tiny = mon::host::mul(kMinNormal, 0.5);
    r.ftz_flushes_results = tiny == 0.0;
  }
  {
    // DAZ: a subnormal *operand* is read as zero; adding it changes nothing
    // and multiplying it by a huge value still gives zero.
    mon::ScopedFlushMode daz(false, true);
    const double via_add = mon::host::add(kMinSubnormal, 0.0);
    const double via_mul = mon::host::mul(kMinSubnormal, 1e300);
    r.daz_zeroes_operands = via_add == 0.0 && via_mul == 0.0;
  }
  return r;
}

std::string describe(const FlushProbeResult& r) {
  if (!r.mxcsr_available) {
    return "MXCSR not available on this host; flush modes not probed\n";
  }
  std::string out;
  out += "MXCSR flush-mode probe\n";
  out += "  FTZ set at entry:  ";
  out += r.ftz_default_on ? "YES (non-standard mode already active!)\n"
                          : "no\n";
  out += "  DAZ set at entry:  ";
  out += r.daz_default_on ? "YES (non-standard mode already active!)\n"
                          : "no\n";
  out += "  IEEE gradual underflow observed: ";
  out += r.ieee_gradual_underflow ? "yes\n" : "NO (unexpected)\n";
  out += "  FTZ flushed a tiny result to zero: ";
  out += r.ftz_flushes_results ? "yes (demonstrated non-standard behavior)\n"
                               : "no\n";
  out += "  DAZ read a subnormal operand as zero: ";
  out += r.daz_zeroes_operands ? "yes (demonstrated non-standard behavior)\n"
                               : "no\n";
  return out;
}

}  // namespace fpq::opt
