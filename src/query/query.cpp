#include "query/query_engine.h"

#include <algorithm>
#include <cmath>

#include "query/spatial_index.h"
#include "query/workload.h"

namespace pargeo::query {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Out-of-range p clamps to the min/max element; NaN means the caller has
  // no preference, so answer with the median rather than poisoning the cast.
  if (std::isnan(p)) p = 50.0;
  const double clamped = std::min(100.0, std::max(0.0, p));
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(v.size())));
  return v[rank == 0 ? 0 : rank - 1];
}

// Definitions for the `extern template` declarations in spatial_index.h:
// the shard index instantiates here once instead of in every consumer.
template class spatial_index<2>;
template class spatial_index<3>;

}  // namespace pargeo::query
