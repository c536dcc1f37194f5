#include "sketch/power_sum.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace kc::sketch {

namespace {

// Horner evaluation of a polynomial given by coefficients c[0..deg]
// (c[i] multiplies x^i).
std::uint64_t eval_poly(const std::vector<std::uint64_t>& c,
                        std::uint64_t x) noexcept {
  std::uint64_t acc = 0;
  for (std::size_t i = c.size(); i-- > 0;) {
    acc = mul_mod(acc, x);
    acc = add_mod(acc, c[i]);
  }
  return acc;
}

// Solves the t×t system  Σ_i X_i^j · w_i = S_j  (j = 0..t−1) by Gaussian
// elimination mod p.  Returns empty on singularity (distinct X_i make the
// Vandermonde system regular, so this only fires on invalid input).
std::vector<std::uint64_t> solve_vandermonde(
    const std::vector<std::uint64_t>& xs,
    const std::vector<std::uint64_t>& rhs) {
  const std::size_t t = xs.size();
  std::vector<std::vector<std::uint64_t>> a(t,
                                            std::vector<std::uint64_t>(t + 1));
  for (std::size_t j = 0; j < t; ++j) {
    for (std::size_t i = 0; i < t; ++i) a[j][i] = pow_mod(xs[i], j);
    a[j][t] = rhs[j];
  }
  for (std::size_t col = 0; col < t; ++col) {
    std::size_t pivot = col;
    while (pivot < t && a[pivot][col] == 0) ++pivot;
    if (pivot == t) return {};
    std::swap(a[col], a[pivot]);
    const std::uint64_t inv = inv_mod(a[col][col]);
    for (std::size_t c = col; c <= t; ++c) a[col][c] = mul_mod(a[col][c], inv);
    for (std::size_t row = 0; row < t; ++row) {
      if (row == col || a[row][col] == 0) continue;
      const std::uint64_t f = a[row][col];
      for (std::size_t c = col; c <= t; ++c)
        a[row][c] = sub_mod(a[row][c], mul_mod(f, a[col][c]));
    }
  }
  std::vector<std::uint64_t> w(t);
  for (std::size_t i = 0; i < t; ++i) w[i] = a[i][t];
  return w;
}

}  // namespace

PowerSumSketch::PowerSumSketch(std::size_t capacity)
    : s_(std::max<std::size_t>(capacity, 1)) {
  syndromes_.assign(2 * s_, 0);
}

void PowerSumSketch::update(std::uint64_t key, std::int64_t delta) noexcept {
  const std::uint64_t x = embed_key(key);
  const std::uint64_t d = signed_mod(delta);
  std::uint64_t power = 1;  // X^j
  for (auto& sj : syndromes_) {
    sj = add_mod(sj, mul_mod(d, power));
    power = mul_mod(power, x);
  }
}

bool PowerSumSketch::empty() const noexcept {
  return std::all_of(syndromes_.begin(), syndromes_.end(),
                     [](std::uint64_t v) { return v == 0; });
}

std::vector<std::uint64_t> PowerSumSketch::berlekamp_massey() const {
  const auto& S = syndromes_;
  std::vector<std::uint64_t> C{1}, B{1};
  std::uint64_t b = 1;
  std::size_t L = 0, m = 1;
  for (std::size_t n = 0; n < S.size(); ++n) {
    // Discrepancy d = S[n] + Σ_{i=1..L} C[i]·S[n−i].
    std::uint64_t d = S[n];
    for (std::size_t i = 1; i <= L && i < C.size(); ++i)
      d = add_mod(d, mul_mod(C[i], S[n - i]));
    if (d == 0) {
      ++m;
      continue;
    }
    const std::uint64_t coef = mul_mod(d, inv_mod(b));
    if (2 * L <= n) {
      std::vector<std::uint64_t> T = C;
      if (C.size() < B.size() + m) C.resize(B.size() + m, 0);
      for (std::size_t i = 0; i < B.size(); ++i)
        C[i + m] = sub_mod(C[i + m], mul_mod(coef, B[i]));
      L = n + 1 - L;
      B = std::move(T);
      b = d;
      m = 1;
    } else {
      if (C.size() < B.size() + m) C.resize(B.size() + m, 0);
      for (std::size_t i = 0; i < B.size(); ++i)
        C[i + m] = sub_mod(C[i + m], mul_mod(coef, B[i]));
      ++m;
    }
  }
  C.resize(L + 1, 0);
  return C;  // connection polynomial, degree L
}

std::optional<std::vector<PowerSumSketch::Item>> PowerSumSketch::finish(
    std::vector<std::uint64_t> support) const {
  // Weights from the first |support| syndromes.
  std::vector<std::uint64_t> xs;
  xs.reserve(support.size());
  for (auto key : support) xs.push_back(embed_key(key));
  std::vector<std::uint64_t> rhs(syndromes_.begin(),
                                 syndromes_.begin() +
                                     static_cast<std::ptrdiff_t>(support.size()));
  const std::vector<std::uint64_t> w = solve_vandermonde(xs, rhs);
  if (w.size() != support.size()) return std::nullopt;

  // Verify against all 2s syndromes.
  std::vector<std::uint64_t> check(syndromes_.size(), 0);
  for (std::size_t i = 0; i < support.size(); ++i) {
    std::uint64_t power = 1;
    for (auto& cj : check) {
      cj = add_mod(cj, mul_mod(w[i], power));
      power = mul_mod(power, xs[i]);
    }
  }
  if (check != syndromes_) return std::nullopt;

  std::vector<Item> out;
  out.reserve(support.size());
  for (std::size_t i = 0; i < support.size(); ++i) {
    if (w[i] == 0) continue;
    // Strict turnstile: counts are small non-negative integers ≪ p.
    out.push_back({support[i], static_cast<std::int64_t>(w[i])});
  }
  std::sort(out.begin(), out.end(),
            [](const Item& a, const Item& b) { return a.key < b.key; });
  return out;
}

std::optional<std::vector<PowerSumSketch::Item>> PowerSumSketch::decode(
    std::uint64_t universe) const {
  if (empty()) return std::vector<Item>{};
  const std::vector<std::uint64_t> C = berlekamp_massey();
  const std::size_t L = C.size() - 1;
  if (L == 0 || L > s_) return std::nullopt;

  // Chien search: x is in the support iff C(X_x^{-1}) = 0.
  std::vector<std::uint64_t> support;
  for (std::uint64_t x = 0; x < universe; ++x) {
    if (eval_poly(C, inv_mod(embed_key(x))) == 0) {
      support.push_back(x);
      if (support.size() > L) return std::nullopt;
    }
  }
  if (support.size() != L) return std::nullopt;
  return finish(std::move(support));
}

std::optional<std::vector<PowerSumSketch::Item>>
PowerSumSketch::decode_candidates(
    const std::vector<std::uint64_t>& candidates) const {
  if (empty()) return std::vector<Item>{};
  const std::vector<std::uint64_t> C = berlekamp_massey();
  const std::size_t L = C.size() - 1;
  if (L == 0 || L > s_) return std::nullopt;

  std::vector<std::uint64_t> support;
  for (std::uint64_t x : candidates) {
    if (eval_poly(C, inv_mod(embed_key(x))) == 0) {
      support.push_back(x);
      if (support.size() > L) return std::nullopt;
    }
  }
  std::sort(support.begin(), support.end());
  support.erase(std::unique(support.begin(), support.end()), support.end());
  if (support.size() != L) return std::nullopt;
  return finish(std::move(support));
}

}  // namespace kc::sketch
