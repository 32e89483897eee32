#include "fpmon/monitor.hpp"

#include <cfenv>

#include "fpmon/hardware.hpp"

namespace fpq::mon {

std::string condition_name(Condition c) {
  switch (c) {
    case Condition::kOverflow:
      return "Overflow";
    case Condition::kUnderflow:
      return "Underflow";
    case Condition::kPrecision:
      return "Precision";
    case Condition::kInvalid:
      return "Invalid";
    case Condition::kDenorm:
      return "Denorm";
    case Condition::kDivByZero:
      return "DivByZero";
  }
  return "Unknown";
}

bool ConditionSet::any() const noexcept {
  for (bool b : seen_) {
    if (b) return true;
  }
  return false;
}

std::size_t ConditionSet::count() const noexcept {
  std::size_t n = 0;
  for (bool b : seen_) n += b ? 1 : 0;
  return n;
}

void ConditionSet::merge(const ConditionSet& other) noexcept {
  for (std::size_t i = 0; i < kConditionCount; ++i) {
    seen_[i] = seen_[i] || other.seen_[i];
  }
}

ConditionSet ConditionSet::from_softfloat_flags(unsigned flags) noexcept {
  ConditionSet set;
  if (flags & softfloat::kFlagOverflow) set.set(Condition::kOverflow);
  if (flags & softfloat::kFlagUnderflow) set.set(Condition::kUnderflow);
  if (flags & softfloat::kFlagInexact) set.set(Condition::kPrecision);
  if (flags & softfloat::kFlagInvalid) set.set(Condition::kInvalid);
  if (flags & softfloat::kFlagDenormalInput) set.set(Condition::kDenorm);
  if (flags & softfloat::kFlagDivByZero) set.set(Condition::kDivByZero);
  return set;
}

std::string ConditionSet::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < kConditionCount; ++i) {
    if (!seen_[i]) continue;
    if (!out.empty()) out += '|';
    out += condition_name(static_cast<Condition>(i));
  }
  return out.empty() ? "none" : out;
}

ScopedMonitor::ScopedMonitor() noexcept {
  saved_excepts_ = std::fetestexcept(FE_ALL_EXCEPT);
  std::feclearexcept(FE_ALL_EXCEPT);
  track_denormals_ = mxcsr_supported();
  if (track_denormals_) {
    saved_denormal_ = denormal_operand_seen();
    // feclearexcept on x86 clears the standard five in MXCSR but not DE;
    // clear the whole sticky field so the scope starts clean.
    clear_mxcsr_flags();
  }
}

ConditionSet ScopedMonitor::peek() const noexcept {
  if (stopped_) return result_;
  return ConditionSet::from_softfloat_flags(sticky_flags());
}

const ConditionSet& ScopedMonitor::stop() noexcept {
  if (stopped_) return result_;
  result_ = peek();
  stopped_ = true;
  // Restore outer sticky state: everything that was pending before the
  // scope plus everything the scope itself raised stays visible outside,
  // so nesting never hides exceptions from enclosing monitors.
  std::feraiseexcept(saved_excepts_);
  if (track_denormals_ &&
      (saved_denormal_ || result_.test(Condition::kDenorm))) {
    write_mxcsr(read_mxcsr() | kMxcsrFlagDenormal);
  }
  return result_;
}

ScopedMonitor::~ScopedMonitor() { stop(); }

}  // namespace fpq::mon
