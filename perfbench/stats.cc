#include "perfbench/stats.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

namespace perfbench {
namespace {

// The regularized incomplete beta function I_x(a, b), by Lentz's evaluation
// of its continued fraction.
double IncompleteBeta(double a, double b, double x) {
  if (x <= 0.0) {
    return 0.0;
  }
  if (x >= 1.0) {
    return 1.0;
  }
  if (x > (a + 1.0) / (a + b + 2.0)) {
    return 1.0 - IncompleteBeta(b, a, 1.0 - x);  // converges faster there
  }
  const double front =
      std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) + a * std::log(x) +
               b * std::log1p(-x)) /
      a;
  constexpr double kTiny = 1e-300;
  double f = 1.0;
  double c = 1.0;
  double d = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double m = static_cast<double>(i / 2);
    double numerator = 1.0;
    if (i > 0 && i % 2 == 0) {
      numerator = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
    } else if (i > 0) {
      numerator = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
    }
    d = 1.0 + numerator * d;
    d = 1.0 / (std::fabs(d) < kTiny ? kTiny : d);
    c = 1.0 + numerator / c;
    c = std::fabs(c) < kTiny ? kTiny : c;
    f *= c * d;
    if (std::fabs(1.0 - c * d) < 1e-14) {
      break;
    }
  }
  return front * (f - 1.0);
}

}  // namespace

double HarrellDavis(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const double a = p * (n + 1.0);
  const double b = (1.0 - p) * (n + 1.0);
  double estimate = 0.0;
  double below = 0.0;
  for (size_t i = 0; i < samples.size(); ++i) {
    const double upto = IncompleteBeta(a, b, static_cast<double>(i + 1) / n);
    estimate += (upto - below) * samples[i];
    below = upto;
  }
  return estimate;
}

double Quantile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> samples) { return Quantile(std::move(samples), 0.5); }

double Mean(const std::vector<double>& samples) {
  double sum = 0.0;
  for (const double x : samples) {
    sum += x;
  }
  return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

maya::Result<double> TailPercentile(std::vector<double> samples, double p) {
  if (!(p > 0.0 && p < 1.0)) {
    return maya::Status::InvalidArgument("percentile must lie in (0, 1)");
  }
  const double beyond = std::floor(static_cast<double>(samples.size()) * (1.0 - p) + 1e-9);
  if (beyond < 10.0) {
    std::string message = "p";
    message += std::to_string(static_cast<int>(p * 100.0));
    message += " of ";
    message += std::to_string(samples.size());
    message += " samples has fewer than 10 samples beyond it";
    return maya::Status::FailedPrecondition(message);
  }
  return HarrellDavis(std::move(samples), p);
}

}  // namespace perfbench
