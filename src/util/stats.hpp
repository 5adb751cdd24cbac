// Small descriptive-statistics helpers used by the experiment harness.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace hh {

// median and percentile* are total over empty samples and return 0: a
// merged group report legitimately includes shards that contributed zero
// samples (e.g. a shard that shed every request), and callers should not
// have to pre-filter. mean/geomean keep their non-empty contract (an
// average of nothing is a caller bug, not a degenerate sample).
double mean(std::span<const double> xs);
double geomean(std::span<const double> xs);  // xs must be positive
double median(std::vector<double> xs);       // by value: needs to sort

/// Nearest-rank percentile of an unsorted sample (by value: needs to sort);
/// q must be in (0, 1]. The element at 1-based rank ceil(q * n): p50 of
/// {a, b} is a, p100 is the maximum, and a single-element sample answers
/// every q with that element. Returns 0 on an empty sample.
double percentile(std::vector<double> xs, double q);

/// Same, over a sample already sorted ascending.
double percentile_sorted(std::span<const double> xs, double q);

}  // namespace hh
