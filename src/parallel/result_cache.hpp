// fpq::parallel — a striped memo cache and the batch-result cache types.
//
// Nothing in the library uses these any more: ir::execute_batch executes
// every chunk, and verification verdicts are never served from a cache.
// BatchResultCache, BatchKey, BatchChunkResult and StripedCache stay
// declared only because the repository benchmark
// (perfbench/cpp/batch_b32.cpp) names them to report the cache's
// occupancy; remove them with the next benchmark change.
//
// The cache is a striped hash map: lookups hash to one of kStripes
// independently-locked segments, so concurrent writers rarely contend.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace fpq::parallel {

/// Counter snapshot for benches and diagnostics.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
};

/// Striped unordered maps with hit/miss/eviction counters and an optional
/// capacity bound. A template over (Key, Hash, Value) so the parallel
/// substrate stays independent of the IR's types.
template <typename Key, typename Hash, typename Value>
class StripedCache {
 public:
  StripedCache() = default;
  StripedCache(const StripedCache&) = delete;
  StripedCache& operator=(const StripedCache&) = delete;

  /// Returns the memoized result, counting a hit/miss.
  std::optional<Value> find(const Key& key) {
    Stripe& s = stripe_of(key);
    std::lock_guard<std::mutex> lock(s.mutex);
    const auto it = s.map.find(key);
    if (it == s.map.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }

  /// Memoizes (first writer wins; identical by determinism anyway). If a
  /// capacity is set and the stripe overflows, an arbitrary OTHER entry is
  /// evicted — safe for a pure memoization cache, where eviction only
  /// costs recomputation.
  void insert(const Key& key, const Value& result) {
    Stripe& s = stripe_of(key);
    std::lock_guard<std::mutex> lock(s.mutex);
    s.map.try_emplace(key, result);
    const std::size_t cap = capacity_.load(std::memory_order_relaxed);
    if (cap == 0) return;
    const std::size_t per_stripe =
        std::max<std::size_t>(1, cap / kStripes);
    while (s.map.size() > per_stripe) {
      auto victim = s.map.begin();
      if (victim->first == key) ++victim;
      if (victim == s.map.end()) break;
      s.map.erase(victim);
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (const Stripe& s : stripes_) {
      std::lock_guard<std::mutex> lock(s.mutex);
      total += s.map.size();
    }
    return total;
  }

  std::uint64_t hits() const noexcept { return hits_.load(); }
  std::uint64_t misses() const noexcept { return misses_.load(); }
  std::uint64_t evictions() const noexcept { return evictions_.load(); }

  CacheStats stats() const {
    CacheStats st;
    st.hits = hits();
    st.misses = misses();
    st.evictions = evictions();
    st.entries = size();
    return st;
  }

  /// Bounds the total entry count (approximately: cap/kStripes per
  /// stripe). 0 restores the default unbounded behavior.
  void set_capacity(std::size_t max_entries) noexcept {
    capacity_.store(max_entries, std::memory_order_relaxed);
  }

  void clear() {
    for (Stripe& s : stripes_) {
      std::lock_guard<std::mutex> lock(s.mutex);
      s.map.clear();
    }
    hits_.store(0);
    misses_.store(0);
    evictions_.store(0);
  }

 private:
  static constexpr std::size_t kStripes = 16;
  struct Stripe {
    mutable std::mutex mutex;
    std::unordered_map<Key, Value, Hash> map;
  };
  Stripe& stripe_of(const Key& key) {
    return stripes_[Hash{}(key) % kStripes];
  }

  std::array<Stripe, kStripes> stripes_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::size_t> capacity_{0};
};

/// Identity of one chunk of a batched IR evaluation: the compiled tape's
/// content fingerprint (which already names the rewritten program AND the
/// numeric config — format, rounding, FTZ/DAZ, constant pool), a content
/// hash of the chunk's operand bindings, and the chunk index. The outcome
/// of such a chunk is a pure function of this key.
struct BatchKey {
  std::uint64_t tape_fingerprint = 0;
  std::uint64_t bindings_hash = 0;
  std::uint32_t chunk = 0;
  /// The softfloat::KernelVariant the chunk executed under.
  std::uint32_t variant = 0;

  bool operator==(const BatchKey&) const = default;
};

struct BatchKeyHash {
  std::size_t operator()(const BatchKey& k) const noexcept {
    std::uint64_t z = k.tape_fingerprint;
    z ^= k.bindings_hash + 0x9E3779B97F4A7C15ULL + (z << 6) + (z >> 2);
    z ^= k.chunk + 0x9E3779B97F4A7C15ULL + (z << 6) + (z >> 2);
    z ^= k.variant + 0x9E3779B97F4A7C15ULL + (z << 6) + (z >> 2);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    return static_cast<std::size_t>(z ^ (z >> 27));
  }
};

/// Memoized outcome of one chunk: (value bits, flags) per binding row.
/// Stored as raw bits so the parallel substrate stays independent of the
/// IR's value types.
struct BatchChunkResult {
  std::vector<std::pair<std::uint64_t, unsigned>> outcomes;
};

class BatchResultCache
    : public StripedCache<BatchKey, BatchKeyHash, BatchChunkResult> {
 public:
  /// Process-wide instance; nothing in the library writes to it.
  static BatchResultCache& global();
};

}  // namespace fpq::parallel
