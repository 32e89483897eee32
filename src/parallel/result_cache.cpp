#include "parallel/result_cache.hpp"

namespace fpq::parallel {

BatchResultCache& BatchResultCache::global() {
  static BatchResultCache cache;
  return cache;
}

}  // namespace fpq::parallel
