// Order statistics for benchmark samples.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <vector>

#include "src/common/status.h"

namespace perfbench {

// The p-quantile (0 <= p <= 1) by linear interpolation between order
// statistics; 0 when empty.
double Quantile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);
// Arithmetic mean; 0 when empty.
double Mean(const std::vector<double>& samples);

// The Harrell-Davis estimate of the p-quantile (0 < p < 1): the mean of the
// order statistics weighted by a Beta(p (n + 1), (1 - p) (n + 1)) density.
// Unlike a single order statistic it does not jump when the quantile falls in
// a gap between clusters of values, as request latencies of a fixed config
// set do. 0 when empty.
double HarrellDavis(std::vector<double> samples, double p);

// HarrellDavis() of a timing's tail (0 < p < 1), refused with
// FAILED_PRECONDITION when fewer than 10 samples lie beyond it, i.e. when
// samples.size() * (1 - p) < 10: such a tail is a few outliers, not a
// percentile.
maya::Result<double> TailPercentile(std::vector<double> samples, double p);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
