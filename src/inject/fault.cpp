#include "inject/fault.hpp"

#include <array>
#include <bit>
#include <limits>

#include "parallel/hash.hpp"
#include "stats/prng.hpp"

namespace fpq::inject {

std::string fault_class_name(FaultClass c) {
  switch (c) {
    case FaultClass::kPoison:
      return "poison";
    case FaultClass::kFlagSwallow:
      return "flag-swallow";
    case FaultClass::kForceFtz:
      return "force-ftz";
    case FaultClass::kRoundingPerturb:
      return "rounding-perturb";
    case FaultClass::kBitFlip:
      return "bit-flip";
  }
  return "unknown";
}

namespace {

using parallel::hash_combine;

/// The per-site generator: a pure function of (seed, call, op).
stats::Xoshiro256pp site_rng(std::uint64_t seed, std::uint64_t call,
                             std::uint64_t op) noexcept {
  return stats::Xoshiro256pp(hash_combine(hash_combine(seed, call), op));
}

constexpr std::array<softfloat::Rounding, 4> kPerturbModes{
    softfloat::Rounding::kTowardZero, softfloat::Rounding::kDown,
    softfloat::Rounding::kUp, softfloat::Rounding::kNearestAway};

}  // namespace

std::uint64_t canonical_value_bits(double x) noexcept {
  // Canonical quiet NaN for binary64: positive sign, quiet bit, zero
  // payload. Everything else (including infinities and signed zeros)
  // keeps its exact bits.
  constexpr std::uint64_t kCanonicalNaN = 0x7FF8000000000000ULL;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  const std::uint64_t magnitude = bits & 0x7FFFFFFFFFFFFFFFULL;
  const bool is_nan = magnitude > 0x7FF0000000000000ULL;
  return is_nan ? kCanonicalNaN : bits;
}

bool same_value(double a, double b) noexcept {
  return canonical_value_bits(a) == canonical_value_bits(b);
}

std::uint64_t sites_fingerprint(std::span<const FaultSite> sites) noexcept {
  // Per-site hashes combine by addition so the fingerprint is a function
  // of the site SET, not of enumeration order.
  std::uint64_t h = 0xF417C0DE ^ sites.size();
  for (const FaultSite& s : sites) {
    std::uint64_t sh = hash_combine(0, s.call);
    sh = hash_combine(sh, s.op);
    sh = hash_combine(sh, static_cast<std::uint64_t>(s.fault_class));
    sh = hash_combine(sh, s.effective ? 1 : 0);
    sh = hash_combine(sh, canonical_value_bits(s.original));
    sh = hash_combine(sh, canonical_value_bits(s.injected));
    h += sh;
  }
  return h;
}

Injector::Injector(const CampaignConfig& config) : config_(config) {}

void Injector::begin_call() noexcept {
  ++call_;
  op_ = 0;
  aux_ = 0;
}

std::optional<FaultPlan> Injector::plan_next_op() {
  // call_ is one-past (0 = begin_call never ran; treat as call 0).
  const std::uint64_t call = call_ == 0 ? 0 : call_ - 1;
  const std::uint64_t op = op_++;

  // Sticky classes arm once; the cap applies to every class.
  const bool sticky_armed = swallow_mask_ != 0 || perturb_.has_value();
  if (sticky_armed) return std::nullopt;
  if (config_.max_faults != 0 && sites_.size() >= config_.max_faults) {
    return std::nullopt;
  }

  stats::Xoshiro256pp rng = site_rng(config_.seed, call, op);
  if (stats::uniform01(rng) >= config_.rate) return std::nullopt;

  FaultPlan plan;
  plan.fault_class = config_.fault_class;
  switch (config_.fault_class) {
    case FaultClass::kPoison: {
      const std::uint64_t variant = stats::uniform_below(rng, 3);
      plan.poison_value =
          variant == 0 ? std::numeric_limits<double>::quiet_NaN()
          : variant == 1
              ? std::numeric_limits<double>::infinity()
              : -std::numeric_limits<double>::infinity();
      plan.poison_operand = stats::uniform_below(rng, 2) == 0;
      break;
    }
    case FaultClass::kBitFlip:
      plan.bit_index =
          8 + static_cast<unsigned>(stats::uniform_below(rng, 8));
      break;
    case FaultClass::kFlagSwallow:
      swallow_mask_ = softfloat::kFlagInvalid | softfloat::kFlagDivByZero |
                      softfloat::kFlagOverflow |
                      softfloat::kFlagUnderflow | softfloat::kFlagInexact |
                      softfloat::kFlagDenormalInput;
      sticky_site_ = sites_.size();
      break;
    case FaultClass::kRoundingPerturb:
      perturb_ = kPerturbModes[stats::uniform_below(rng, 4)];
      sticky_site_ = sites_.size();
      break;
    case FaultClass::kForceFtz:
      break;
  }

  FaultSite site;
  site.call = call;
  site.op = op;
  site.fault_class = config_.fault_class;
  sites_.push_back(site);
  return plan;
}

void Injector::note_applied(double original, double injected,
                            bool effective) {
  if (sites_.empty()) return;
  FaultSite& site = sites_.back();
  site.original = original;
  site.injected = injected;
  site.effective = effective;
}

void Injector::note_swallowed(unsigned bits) noexcept {
  swallowed_ |= bits;
  if (bits != 0 && sticky_site_ < sites_.size()) {
    sites_[sticky_site_].effective = true;
  }
}

void Injector::note_perturbed() noexcept {
  if (sticky_site_ < sites_.size()) {
    sites_[sticky_site_].effective = true;
  }
}

std::size_t Injector::effective_count() const noexcept {
  std::size_t n = 0;
  for (const FaultSite& s : sites_) n += s.effective ? 1 : 0;
  return n;
}

}  // namespace fpq::inject
