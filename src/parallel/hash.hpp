// fpq::parallel — the shared 64-bit hash mixer: shard seeds, the splitmix64
// streams, and the expression, config, flow-ledger, fault-site, gauntlet and
// sweep fingerprints are all built from mix64 and hash_combine.
//
// Header-inline on purpose: sweep32's per-value fold calls mix64 once per
// checked value, and that call must stay inlined. fpq_parallel is the leaf
// library every module links, so stats, ir, inject and fpmon all reach it
// without a new dependency edge.
#pragma once

#include <cstdint>

namespace fpq::parallel {

/// The splitmix64 (Steele/Lea/Flood) output for stream position z: advance
/// by the golden gamma, then finalize. A splitmix64 generator with state s
/// returns mix64(s) and then advances s by 0x9E3779B97F4A7C15.
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Order-dependent combine of a running hash h with one more word v (the
/// boost::hash_combine step, finalized by mix64).
constexpr std::uint64_t hash_combine(std::uint64_t h,
                                     std::uint64_t v) noexcept {
  return mix64(h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2)));
}

}  // namespace fpq::parallel
