// Spectral convolution layers: the Fourier-domain kernels of FNO [6] and
// Factorized-FNO [7].
//
// SpectralConv2d: complex channel-mixing weights on the low-frequency
// corner blocks (kx in [0,m1) u [nx-m1,nx), ky in [0,m2)), then the real
// part of the inverse transform. SpectralConv1d applies the same idea along
// a single axis (weights shared across the other axis), which is the
// factorization of F-FNO.
//
// Both compute only the retained modes: a truncated DFT (one pass per
// transformed axis, keeping only the retained rows/columns) in place of a
// full FFT whose spectrum would be zeroed outside the corners, and its
// mirror back to a real plane. The same two kernels serve forward, infer
// and the exact adjoint backward (the forward kernel on grad_out scaled by
// 1/n; the inverse kernel without its 1/n). Sums run in double in an order
// fixed per sample, so batched output equals per-sample output bitwise.
#pragma once

#include "nn/module.hpp"

namespace maps::nn {

class SpectralConv2d final : public Module {
 public:
  SpectralConv2d(index_t c_in, index_t c_out, index_t modes_x, index_t modes_y,
                 maps::math::Rng& rng, std::string tag = "spectral2d");

  std::string name() const override { return tag_; }
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x) const override;
  std::vector<Param*> parameters() override { return {&w_}; }

 private:
  /// Retained modes -> corner-block channel mixing -> real plane, shared by
  /// forward() and infer(). On return `x_hat` holds the input planes'
  /// retained modes (forward keeps them for backward; infer drops them).
  Tensor run_forward(const Tensor& x, std::vector<double>& x_hat) const;

  index_t c_in_, c_out_, mx_, my_;
  std::string tag_;
  // (2 blocks, c_in, c_out, mx, my, 2[re/im])
  Param w_;
  std::vector<double> x_hat_;  // retained modes of the last forward's input
  std::vector<index_t> in_shape_;
};

enum class FftAxis { X, Y };

class SpectralConv1d final : public Module {
 public:
  SpectralConv1d(index_t c_in, index_t c_out, index_t modes, FftAxis axis,
                 maps::math::Rng& rng, std::string tag = "spectral1d");

  std::string name() const override { return tag_; }
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x) const override;
  std::vector<Param*> parameters() override { return {&w_}; }

 private:
  Tensor run_forward(const Tensor& x, std::vector<double>& x_hat) const;

  index_t c_in_, c_out_, m_;
  FftAxis axis_;
  std::string tag_;
  // (2 blocks, c_in, c_out, m, 2[re/im])
  Param w_;
  std::vector<double> x_hat_;
  std::vector<index_t> in_shape_;
};

}  // namespace maps::nn
