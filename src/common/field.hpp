// Prime-field arithmetic used by Linial's polynomial color-reduction step.
//
// Linial's one-round reduction encodes a color c in {0, ..., m-1} as a
// polynomial of degree <= k over GF(q) (its base-q digits as coefficients) and
// recolors with a pair (a, p_c(a)).  This header provides primality testing,
// next-prime search, and FlatPolyEval, the division-free evaluator every solve
// path uses: digit rows times power rows, one reciprocal reduction per value.
// Its limit, q < 2^31 and (k+1)(q-1)^2 < 2^64, is the one choose_linial_params
// honours.  GFPoly is the plain Horner reference the tests check it against.
//
// Row layout: a digit row is k+1 digits, lowest first, of any unsigned type
// that holds q-1; Linial's step stores a whole table of them, uint16_t when
// q < 2^16 (every step of the benchmark workloads) and uint32_t otherwise,
// so a neighbor's row costs 2(k+1) bytes of gather instead of 4(k+1).  A
// power row is always uint32_t.  The row-walking members take the row width
// as an optional template argument W: W = k+1 lets the compiler unroll the
// dot product, W = 0 (the default) loops to width().
#pragma once

#include <cstdint>
#include <vector>

namespace qplec {

/// Deterministic Miller–Rabin for x < 2^63.
bool is_prime(std::uint64_t x);

/// Smallest prime >= x (x >= 2).
std::uint64_t next_prime(std::uint64_t x);

/// Division-free evaluation of the degree-<=k polynomials over GF(q) that
/// Linial's step reads off colors.  A color becomes its k+1 base-q digits
/// (lowest first) in a caller-owned row; a point a becomes its power row
/// a^0..a^k mod q; p_c(a) is the dot product of the two rows.  The unreduced
/// sum is at most (k+1)(q-1)^2 < 2^64, and every reduction multiplies by the
/// precomputed reciprocal floor((2^64-1)/q) instead of dividing.
class FlatPolyEval {
 public:
  /// Longest row: a 64-bit color has at most 64 base-q digits.
  static constexpr int kMaxWidth = 64;

  /// True when (q, k) is in range: 2 <= q < 2^31, 0 <= k < kMaxWidth and
  /// (k+1)(q-1)^2 < 2^64.
  static bool fits(std::uint64_t q, int k);

  FlatPolyEval(std::uint32_t q, int k);

  std::uint32_t q() const { return static_cast<std::uint32_t>(q_); }
  int k() const { return k_; }
  /// Length of a digit or power row: k + 1.
  int width() const { return k_ + 1; }

  /// x mod q for any 64-bit x.  The estimate mulhi(x, recip) undershoots
  /// floor(x/q) by at most one, so one conditional subtraction finishes.
  std::uint32_t reduce(std::uint64_t x) const {
    const auto est = static_cast<std::uint64_t>((static_cast<__uint128_t>(x) * recip_) >> 64);
    std::uint64_t r = x - est * q_;
    if (r >= q_) r -= q_;
    return static_cast<std::uint32_t>(r);
  }

  /// Writes the width() base-q digits of value to row.  Requires
  /// value < q^(k+1); Digit (uint16_t or uint32_t) must hold q-1.
  template <typename Digit>
  void digits(std::uint64_t value, Digit* row) const;

  /// Writes a^0..a^k mod q to row.  Requires a < q, and W == 0 or
  /// W == width().
  template <int W = 0>
  void powers(std::uint32_t a, std::uint32_t* row) const {
    const int w = W > 0 ? W : width();
    std::uint64_t p = 1;
    for (int j = 0; j < w; ++j) {
      row[j] = static_cast<std::uint32_t>(p);
      p = reduce(p * a);
    }
  }

  /// p(a) for the polynomial with digit row `digits`, at the point whose
  /// power row is `powers`.  Requires W == 0 or W == width().
  template <int W = 0, typename Digit>
  std::uint32_t eval(const Digit* digits, const std::uint32_t* powers) const {
    const int w = W > 0 ? W : width();
    std::uint64_t sum = 0;
    for (int j = 0; j < w; ++j) sum += static_cast<std::uint64_t>(digits[j]) * powers[j];
    return reduce(sum);
  }

 private:
  std::uint64_t q_;
  std::uint64_t recip_;  ///< floor((2^64 - 1) / q)
  int k_;
};

/// Reference polynomial over GF(q) for the tests, represented by its
/// coefficient vector (coeffs[i] is the coefficient of x^i).  Evaluation is
/// Horner's rule with 64-bit intermediate products and one division per
/// coefficient, valid for q < 2^31.
class GFPoly {
 public:
  GFPoly(std::vector<std::uint32_t> coeffs, std::uint32_t q);

  /// Builds the polynomial whose coefficients are the base-q digits of value,
  /// padded with zeros to exactly (degree_bound + 1) coefficients.
  /// Requires value < q^(degree_bound+1).
  static GFPoly from_integer(std::uint64_t value, std::uint32_t q, int degree_bound);

  std::uint32_t eval(std::uint32_t x) const;
  std::uint32_t q() const { return q_; }
  int degree_bound() const { return static_cast<int>(coeffs_.size()) - 1; }
  const std::vector<std::uint32_t>& coeffs() const { return coeffs_; }

 private:
  std::vector<std::uint32_t> coeffs_;
  std::uint32_t q_;
};

}  // namespace qplec
