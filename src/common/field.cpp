#include "src/common/field.hpp"

#include <limits>

#include "src/common/assert.hpp"

namespace qplec {
namespace {

std::uint64_t mulmod(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
  return static_cast<std::uint64_t>((static_cast<__uint128_t>(a) * b) % m);
}

std::uint64_t powmod(std::uint64_t base, std::uint64_t exp, std::uint64_t m) {
  std::uint64_t r = 1 % m;
  base %= m;
  while (exp > 0) {
    if (exp & 1) r = mulmod(r, base, m);
    base = mulmod(base, base, m);
    exp >>= 1;
  }
  return r;
}

}  // namespace

bool is_prime(std::uint64_t x) {
  if (x < 2) return false;
  for (std::uint64_t p : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull, 23ull,
                          29ull, 31ull, 37ull}) {
    if (x == p) return true;
    if (x % p == 0) return false;
  }
  // Deterministic witness set for x < 3.3 * 10^24 (covers 2^63).
  std::uint64_t d = x - 1;
  int s = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++s;
  }
  for (std::uint64_t a : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull, 23ull,
                          29ull, 31ull, 37ull}) {
    std::uint64_t v = powmod(a, d, x);
    if (v == 1 || v == x - 1) continue;
    bool composite = true;
    for (int i = 1; i < s; ++i) {
      v = mulmod(v, v, x);
      if (v == x - 1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

std::uint64_t next_prime(std::uint64_t x) {
  QPLEC_REQUIRE(x >= 2);
  while (!is_prime(x)) ++x;
  return x;
}

bool FlatPolyEval::fits(std::uint64_t q, int k) {
  if (q < 2 || q >= (1ull << 31) || k < 0 || k >= kMaxWidth) return false;
  const __uint128_t sum_bound = static_cast<__uint128_t>(k + 1) * (q - 1) * (q - 1);
  return sum_bound >> 64 == 0;
}

FlatPolyEval::FlatPolyEval(std::uint32_t q, int k) : q_(q), recip_(0), k_(k) {
  QPLEC_REQUIRE_MSG(fits(q, k), "q=" << q << ", k=" << k << ": need (k+1)(q-1)^2 < 2^64");
  recip_ = ~std::uint64_t{0} / q_;
}

template <typename Digit>
void FlatPolyEval::digits(std::uint64_t value, Digit* row) const {
  QPLEC_REQUIRE_MSG(q_ - 1 <= std::numeric_limits<Digit>::max(),
                    "q=" << q_ << " has digits wider than the row type");
  for (int j = 0; j <= k_; ++j) {
    // Same estimate as reduce(), keeping the corrected quotient.
    auto quot = static_cast<std::uint64_t>((static_cast<__uint128_t>(value) * recip_) >> 64);
    std::uint64_t r = value - quot * q_;
    if (r >= q_) {
      r -= q_;
      ++quot;
    }
    row[j] = static_cast<Digit>(r);
    value = quot;
  }
  QPLEC_REQUIRE_MSG(value == 0, "value does not fit in q^(k+1)");
}

template void FlatPolyEval::digits(std::uint64_t, std::uint16_t*) const;
template void FlatPolyEval::digits(std::uint64_t, std::uint32_t*) const;

GFPoly::GFPoly(std::vector<std::uint32_t> coeffs, std::uint32_t q)
    : coeffs_(std::move(coeffs)), q_(q) {
  QPLEC_REQUIRE(q_ >= 2);
  QPLEC_REQUIRE(q_ < (1u << 31));
  QPLEC_REQUIRE(!coeffs_.empty());
  for (std::uint32_t c : coeffs_) QPLEC_REQUIRE(c < q_);
}

GFPoly GFPoly::from_integer(std::uint64_t value, std::uint32_t q, int degree_bound) {
  QPLEC_REQUIRE(degree_bound >= 0);
  std::vector<std::uint32_t> coeffs(static_cast<std::size_t>(degree_bound) + 1, 0);
  for (int i = 0; i <= degree_bound; ++i) {
    coeffs[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(value % q);
    value /= q;
  }
  QPLEC_REQUIRE_MSG(value == 0, "value does not fit in q^(degree_bound+1)");
  return GFPoly(std::move(coeffs), q);
}

std::uint32_t GFPoly::eval(std::uint32_t x) const {
  QPLEC_REQUIRE(x < q_);
  std::uint64_t acc = 0;
  for (auto it = coeffs_.rbegin(); it != coeffs_.rend(); ++it) {
    acc = (acc * x + *it) % q_;
  }
  return static_cast<std::uint32_t>(acc);
}

}  // namespace qplec
