#include "src/common/field.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "src/common/rng.hpp"

namespace qplec {
namespace {

TEST(IsPrime, SmallValues) {
  EXPECT_FALSE(is_prime(0));
  EXPECT_FALSE(is_prime(1));
  EXPECT_TRUE(is_prime(2));
  EXPECT_TRUE(is_prime(3));
  EXPECT_FALSE(is_prime(4));
  EXPECT_TRUE(is_prime(5));
  EXPECT_FALSE(is_prime(9));
  EXPECT_TRUE(is_prime(97));
  EXPECT_FALSE(is_prime(91));  // 7*13
}

TEST(IsPrime, Carmichael) {
  // Carmichael numbers fool Fermat but not Miller–Rabin with these bases.
  for (std::uint64_t c : {561ull, 1105ull, 1729ull, 2465ull, 2821ull, 6601ull}) {
    EXPECT_FALSE(is_prime(c)) << c;
  }
}

TEST(IsPrime, LargeKnown) {
  EXPECT_TRUE(is_prime(2147483647ull));          // 2^31 - 1 (Mersenne)
  EXPECT_TRUE(is_prime(1000000007ull));
  EXPECT_TRUE(is_prime(1000000009ull));
  EXPECT_FALSE(is_prime(1000000007ull * 3));
  EXPECT_TRUE(is_prime((1ull << 61) - 1));       // Mersenne prime
}

TEST(IsPrime, SieveCrossCheck) {
  // Cross-check against trial division up to 10000.
  for (std::uint64_t x = 2; x <= 10000; ++x) {
    bool composite = false;
    for (std::uint64_t d = 2; d * d <= x; ++d) {
      if (x % d == 0) {
        composite = true;
        break;
      }
    }
    EXPECT_EQ(is_prime(x), !composite) << x;
  }
}

TEST(NextPrime, Values) {
  EXPECT_EQ(next_prime(2), 2u);
  EXPECT_EQ(next_prime(8), 11u);
  EXPECT_EQ(next_prime(14), 17u);
  EXPECT_EQ(next_prime(997), 997u);
  EXPECT_EQ(next_prime(998), 1009u);
}

TEST(GFPoly, FromIntegerRoundtrip) {
  // Coefficients are base-q digits.
  const GFPoly p = GFPoly::from_integer(123456, 97, 3);
  std::uint64_t reconstructed = 0;
  std::uint64_t pow = 1;
  for (std::uint32_t c : p.coeffs()) {
    reconstructed += c * pow;
    pow *= 97;
  }
  EXPECT_EQ(reconstructed, 123456u);
}

TEST(GFPoly, FromIntegerRejectsOverflow) {
  EXPECT_THROW(GFPoly::from_integer(1000, 7, 2), std::invalid_argument);  // 7^3=343
}

TEST(GFPoly, EvalMatchesHorner) {
  const GFPoly p(std::vector<std::uint32_t>{3, 1, 4}, 7);  // 3 + x + 4x^2 mod 7
  for (std::uint32_t x = 0; x < 7; ++x) {
    EXPECT_EQ(p.eval(x), (3 + x + 4 * x * x) % 7);
  }
}

TEST(GFPoly, DistinctIntegersGiveDistinctPolynomials) {
  // The cover-free property rests on injectivity of from_integer.
  std::set<std::vector<std::uint32_t>> seen;
  for (std::uint64_t v = 0; v < 343; ++v) {
    seen.insert(GFPoly::from_integer(v, 7, 2).coeffs());
  }
  EXPECT_EQ(seen.size(), 343u);
}

TEST(GFPoly, TwoDistinctPolysAgreeOnAtMostKPoints) {
  // Degree-<=k polynomials over GF(q): p - p' has <= k roots.
  const std::uint32_t q = 13;
  const int k = 2;
  for (std::uint64_t a = 0; a < 60; ++a) {
    for (std::uint64_t b = a + 1; b < 60; ++b) {
      const GFPoly pa = GFPoly::from_integer(a, q, k);
      const GFPoly pb = GFPoly::from_integer(b, q, k);
      int agreements = 0;
      for (std::uint32_t x = 0; x < q; ++x) {
        if (pa.eval(x) == pb.eval(x)) ++agreements;
      }
      EXPECT_LE(agreements, k);
    }
  }
}

TEST(GFPoly, RejectsBadConstruction) {
  EXPECT_THROW(GFPoly(std::vector<std::uint32_t>{7}, 7), std::invalid_argument);
  EXPECT_THROW(GFPoly(std::vector<std::uint32_t>{}, 7), std::invalid_argument);
  EXPECT_THROW(GFPoly(std::vector<std::uint32_t>{1}, 1), std::invalid_argument);
}

/// The second reference: Horner's rule with a plain % after every step.
std::uint32_t horner_mod(const std::vector<std::uint32_t>& digits, std::uint64_t a,
                         std::uint64_t q) {
  std::uint64_t acc = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) acc = (acc * a + *it) % q;
  return static_cast<std::uint32_t>(acc);
}

/// Digits, powers and the evaluation of `value` at `a`, checked against
/// GFPoly and horner_mod.
void expect_eval_matches(const FlatPolyEval& field, std::uint64_t value, std::uint32_t a) {
  const std::uint32_t q = field.q();
  const int k = field.k();
  std::vector<std::uint32_t> digits(static_cast<std::size_t>(field.width()));
  std::vector<std::uint32_t> powers(static_cast<std::size_t>(field.width()));
  field.digits(value, digits.data());
  field.powers(a, powers.data());
  const GFPoly ref = GFPoly::from_integer(value, q, k);
  ASSERT_EQ(digits, ref.coeffs()) << "q=" << q << " k=" << k << " value=" << value;
  const std::uint32_t got = field.eval(digits.data(), powers.data());
  EXPECT_EQ(got, ref.eval(a)) << "q=" << q << " k=" << k << " value=" << value << " a=" << a;
  EXPECT_EQ(got, horner_mod(digits, a, q)) << "q=" << q << " k=" << k << " a=" << a;
}

/// q^(k+1) - 1 saturated to 2^64 - 1: the largest value with k+1 digits.
std::uint64_t max_value(std::uint64_t q, int k) {
  __uint128_t v = 1;
  for (int j = 0; j <= k; ++j) {
    v *= q;
    if (v >> 64) return ~std::uint64_t{0};
  }
  return static_cast<std::uint64_t>(v - 1);
}

TEST(FlatPolyEval, FitsIsTheSumBound) {
  const std::uint64_t m31 = (1ull << 31) - 1;  // prime
  EXPECT_TRUE(FlatPolyEval::fits(m31, 3));     // 4 (q-1)^2 = 2^64 - 2^35 + 16
  EXPECT_FALSE(FlatPolyEval::fits(m31, 4));
  EXPECT_FALSE(FlatPolyEval::fits(1ull << 31, 0));
  EXPECT_FALSE(FlatPolyEval::fits(1, 0));
  EXPECT_TRUE(FlatPolyEval::fits(2, 63));
  EXPECT_FALSE(FlatPolyEval::fits(2, 64));
  EXPECT_FALSE(FlatPolyEval::fits(7, -1));
  EXPECT_THROW(FlatPolyEval(static_cast<std::uint32_t>(m31), 4), std::invalid_argument);
  EXPECT_THROW(FlatPolyEval(1, 0), std::invalid_argument);
}

TEST(FlatPolyEval, ReduceMatchesModulo) {
  Rng rng(11);
  std::vector<std::uint64_t> qs{2, 3, 5, 61, 211, 65521, 1000000007, (1ull << 31) - 1};
  for (int i = 0; i < 40; ++i) qs.push_back(next_prime(2 + rng.next_below((1ull << 31) - 20)));
  for (const std::uint64_t q : qs) {
    if (q >= (1ull << 31)) continue;
    const FlatPolyEval field(static_cast<std::uint32_t>(q), 0);
    const std::uint64_t top = ~std::uint64_t{0};
    std::vector<std::uint64_t> xs{0, 1, q - 1, q, q + 1, 2 * q - 1, 2 * q, top, top - 1,
                                  top - q, top - top % q, top - top % q - 1, 4 * (q - 1) * (q - 1)};
    for (int j = 0; j < 64; ++j) {
      xs.push_back(top - j);
      xs.push_back(rng.next_u64());
      xs.push_back((top / q - static_cast<std::uint64_t>(j)) * q);  // multiples near 2^64
    }
    for (const std::uint64_t x : xs) EXPECT_EQ(field.reduce(x), x % q) << "q=" << q << " x=" << x;
  }
}

TEST(FlatPolyEval, MatchesReferencesOnRandomPrimes) {
  Rng rng(29);
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint64_t q = next_prime(2 + rng.next_below((1ull << 31) - 20));
    if (q >= (1ull << 31)) continue;
    // The largest k <= 63 the sum bound allows for this q, then a random
    // k at most that.
    int kmax = 63;
    while (!FlatPolyEval::fits(q, kmax)) --kmax;
    const int k = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(kmax) + 1));
    const FlatPolyEval field(static_cast<std::uint32_t>(q), k);
    const std::uint64_t top = max_value(q, k);
    for (const std::uint64_t value : {std::uint64_t{0}, top, rng.next_below(top) + 1}) {
      for (const std::uint64_t a : {std::uint64_t{0}, std::uint64_t{1}, q - 1, rng.next_below(q)}) {
        expect_eval_matches(field, value, static_cast<std::uint32_t>(a));
      }
    }
  }
}

TEST(FlatPolyEval, EveryPointForSmallPrimes) {
  Rng rng(3);
  for (std::uint64_t q = 2; q < 64; ++q) {
    if (!is_prime(q)) continue;
    for (const int k : {0, 1, 2, 3, 7, 15, 63}) {
      const FlatPolyEval field(static_cast<std::uint32_t>(q), k);
      const std::uint64_t top = max_value(q, k);
      for (int v = 0; v < 6; ++v) {
        const std::uint64_t value = v == 0 ? top : rng.next_below(top);
        for (std::uint32_t a = 0; a < q; ++a) expect_eval_matches(field, value, a);
      }
    }
  }
}

TEST(FlatPolyEval, LargestSumsReduceExactly) {
  // Rows of q-1 against rows of q-1 give the largest sum, (k+1)(q-1)^2:
  // at q = 2^31-1, k+1 = 4 that is 2^64 - 2^35 + 16, and at the largest
  // prime q with 64 (q-1)^2 < 2^64, k = 63.
  std::uint64_t q63 = (1ull << 29) + 1;
  while (!is_prime(q63) || !FlatPolyEval::fits(q63, 63)) --q63;
  for (const auto& [q, k] : {std::pair<std::uint64_t, int>{(1ull << 31) - 1, 3},
                             std::pair<std::uint64_t, int>{q63, 63}}) {
    const FlatPolyEval field(static_cast<std::uint32_t>(q), k);
    const std::vector<std::uint32_t> row(static_cast<std::size_t>(k) + 1,
                                         static_cast<std::uint32_t>(q - 1));
    const __uint128_t sum = static_cast<__uint128_t>(k + 1) * (q - 1) * (q - 1);
    ASSERT_EQ(sum >> 64, 0u);
    EXPECT_EQ(field.eval(row.data(), row.data()), static_cast<std::uint64_t>(sum) % q);
    // The real polynomial with all digits q-1 (value q^(k+1)-1, if it fits
    // in 64 bits) at the points 0, 1 and q-1.
    const std::uint64_t top = max_value(q, k);
    for (const std::uint64_t a : {std::uint64_t{0}, std::uint64_t{1}, q - 1, q - 2}) {
      expect_eval_matches(field, top, static_cast<std::uint32_t>(a));
    }
  }
}

TEST(FlatPolyEval, DigitsRejectOverflow) {
  const FlatPolyEval field(7, 2);
  std::vector<std::uint32_t> row(3);
  field.digits(342, row.data());  // 7^3 - 1
  EXPECT_EQ(row, (std::vector<std::uint32_t>{6, 6, 6}));
  EXPECT_THROW(field.digits(343, row.data()), std::invalid_argument);
  const FlatPolyEval binary(2, 63);
  std::vector<std::uint32_t> bits(64);
  binary.digits(~std::uint64_t{0}, bits.data());
  EXPECT_TRUE(std::all_of(bits.begin(), bits.end(), [](std::uint32_t b) { return b == 1; }));
}

}  // namespace
}  // namespace qplec
