#include "linalg/hankel.h"

#include <algorithm>

#include "common/error.h"

namespace funnel::linalg {
namespace {

// out[r·stride] = Σ_{s<terms} window[r + s] · in[s·stride] for r < rows:
// the Hankel product both halves of a Gram apply reduce to. Each sum starts
// at 0.0 and adds its terms in ascending s; four rows run side by side so
// the CPU has four independent add chains, which changes no row's order.
void correlate(const double* window, const double* in, double* out,
               std::size_t rows, std::size_t terms, std::size_t stride) {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double* w = window + r;
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (std::size_t s = 0; s < terms; ++s) {
      const double v = in[s * stride];
      a0 += w[s] * v;
      a1 += w[s + 1] * v;
      a2 += w[s + 2] * v;
      a3 += w[s + 3] * v;
    }
    out[r * stride] = a0;
    out[(r + 1) * stride] = a1;
    out[(r + 2) * stride] = a2;
    out[(r + 3) * stride] = a3;
  }
  for (; r < rows; ++r) {
    double acc = 0.0;
    for (std::size_t s = 0; s < terms; ++s) acc += window[r + s] * in[s * stride];
    out[r * stride] = acc;
  }
}

}  // namespace

Matrix hankel(std::span<const double> window, std::size_t omega,
              std::size_t count) {
  FUNNEL_REQUIRE(omega >= 1 && count >= 1, "hankel needs positive dimensions");
  FUNNEL_REQUIRE(window.size() == hankel_span(omega, count),
                 "hankel window length must be omega + count - 1");
  Matrix b(omega, count);
  for (std::size_t j = 0; j < count; ++j) {
    for (std::size_t i = 0; i < omega; ++i) b(i, j) = window[j + i];
  }
  return b;
}

HankelGramOperator::HankelGramOperator(std::span<const double> window,
                                       std::size_t omega, std::size_t count)
    : omega_(omega), count_(count), window_(window.begin(), window.end()) {
  FUNNEL_REQUIRE(omega >= 1 && count >= 1,
                 "HankelGramOperator needs positive dimensions");
  FUNNEL_REQUIRE(window_.size() == hankel_span(omega, count),
                 "HankelGramOperator window length must be omega + count - 1");
}

void HankelGramOperator::set_window(std::span<const double> window) {
  FUNNEL_REQUIRE(window.size() == window_.size(),
                 "HankelGramOperator window length must not change");
  std::copy(window.begin(), window.end(), window_.begin());
}

void HankelGramOperator::apply(std::span<const double> x, std::span<double> y,
                               std::span<double> scratch) const {
  FUNNEL_REQUIRE(scratch.size() >= count_, "apply scratch too small");
  // t = Bᵀ x : t[j] = sum_i window[j + i] * x[i]
  correlate(window_.data(), x.data(), scratch.data(), count_, omega_, 1);
  // y = B t : y[i] = sum_j window[j + i] * t[j]
  correlate(window_.data(), scratch.data(), y.data(), omega_, count_, 1);
}

void HankelGramOperator::apply_block_reference(std::span<const double> x,
                                               std::span<double> y,
                                               std::size_t cols) const {
  Vector xi(omega_), yi(omega_);
  for (std::size_t b = 0; b < cols; ++b) {
    for (std::size_t i = 0; i < omega_; ++i) xi[i] = x[i * cols + b];
    apply(xi, yi);
    for (std::size_t i = 0; i < omega_; ++i) y[i * cols + b] = yi[i];
  }
}

void HankelGramOperator::apply_block(std::span<const double> x,
                                     std::span<double> y, std::size_t cols,
                                     std::span<double> scratch) const {
  FUNNEL_REQUIRE(x.size() >= omega_ * cols && y.size() >= omega_ * cols,
                 "apply_block operand too small");
  FUNNEL_REQUIRE(scratch.size() >= count_ * cols,
                 "apply_block scratch too small");
  // T = Bᵀ X, then Y = B T, one block column at a time: every accumulator
  // sums the same products in the same order as apply() on that column.
  for (std::size_t b = 0; b < cols; ++b) {
    correlate(window_.data(), x.data() + b, scratch.data() + b, count_, omega_,
              cols);
  }
  for (std::size_t b = 0; b < cols; ++b) {
    correlate(window_.data(), scratch.data() + b, y.data() + b, omega_, count_,
              cols);
  }
}

}  // namespace funnel::linalg
