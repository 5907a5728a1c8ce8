#include "analysis/replication_model.h"

#include <cmath>

#include "common/check.h"

namespace scale::analysis {

namespace {
// Truncation of the infinite sums: at most kMaxTerms terms past capacity_N,
// stopping early once a term falls below kTailEpsilon of the running sum.
constexpr std::uint64_t kMaxTerms = 200000;
constexpr double kTailEpsilon = 1e-12;
}  // namespace

ReplicationModel::ReplicationModel(Params p) : p_(p) {
  SCALE_CHECK(p_.lambda > 0.0);
  SCALE_CHECK(p_.epoch_T > 0.0);
  SCALE_CHECK(p_.capacity_N > 0);
}

double ReplicationModel::term_log_gamma(std::uint64_t k, unsigned R,
                                        double log_q) const {
  const double kd = static_cast<double>(k);
  const double Rd = static_cast<double>(R);
  // log of (1 - wi/(λT))^{kR} · Γ(kR+1) / (Γ(k+1)^R · R^{kR+1})
  return kd * Rd * log_q + std::lgamma(kd * Rd + 1.0) -
         Rd * std::lgamma(kd + 1.0) - (kd * Rd + 1.0) * std::log(Rd);
}

double ReplicationModel::expected_cost(double wi, unsigned R) const {
  SCALE_CHECK(R >= 1);
  SCALE_CHECK(wi >= 0.0 && wi <= 1.0);
  if (wi == 0.0) return 0.0;
  const double q = 1.0 - wi / (p_.lambda * p_.epoch_T);
  if (q <= 0.0) return 0.0;  // device dominates arrivals; model boundary
  const double log_q = std::log(q);

  double sum = 0.0;
  for (std::uint64_t k = p_.capacity_N;
       k < p_.capacity_N + kMaxTerms; ++k) {
    const double term = std::exp(term_log_gamma(k, R, log_q));
    sum += term;
    if (term < kTailEpsilon * sum && k > p_.capacity_N + 8) break;
  }
  return (p_.cost_C / p_.lambda) * std::pow(wi, static_cast<double>(R)) * sum;
}

double ReplicationModel::expected_cost_product_form(double wi,
                                                    unsigned R) const {
  SCALE_CHECK(R >= 1);
  if (wi == 0.0) return 0.0;
  const double q = 1.0 - wi / (p_.lambda * p_.epoch_T);
  if (q <= 0.0) return 0.0;
  const double Rd = static_cast<double>(R);

  double sum = 0.0;
  for (std::uint64_t k = p_.capacity_N;
       k < p_.capacity_N + kMaxTerms; ++k) {
    // Eq. 9: (1/R) Π_{p=0}^{k-1} Π_{q'=0}^{R-1} (1 - q'/((k-p)R)), computed
    // in log space alongside the q^{kR} factor.
    double log_prod = -std::log(Rd);
    for (std::uint64_t p = 0; p < k; ++p) {
      const double denom = static_cast<double>(k - p) * Rd;
      for (unsigned qq = 1; qq < R; ++qq) {
        log_prod += std::log1p(-static_cast<double>(qq) / denom);
      }
    }
    const double term =
        std::exp(static_cast<double>(k) * Rd * std::log(q) + log_prod);
    sum += term;
    if (term < kTailEpsilon * sum && k > p_.capacity_N + 8) break;
  }
  return (p_.cost_C / p_.lambda) * std::pow(wi, static_cast<double>(R)) * sum;
}

double ReplicationModel::average_cost(std::span<const double> wis,
                                      unsigned R) const {
  SCALE_CHECK(!wis.empty());
  double num = 0.0, den = 0.0;
  for (double wi : wis) {
    num += wi * expected_cost(wi, R);
    den += wi;
  }
  SCALE_CHECK(den > 0.0);
  return num / den;
}

}  // namespace scale::analysis
