// Spectral convolutions: linearity, band limitation, gradient checks, and
// equivalence with the full-FFT algorithm written out on the reference
// transforms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "math/fft.hpp"
#include "math/rng.hpp"
#include "nn/gradcheck.hpp"
#include "nn/spectral.hpp"

namespace mn = maps::nn;
namespace mm = maps::math;
using maps::cplx;
using maps::index_t;

namespace {
mn::Tensor random_input(std::vector<index_t> shape, unsigned seed) {
  mm::Rng rng(seed);
  mn::Tensor x(std::move(shape));
  for (index_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return x;
}

/// max |a - ref| / max |ref|.
double rel_err(const mn::Tensor& a, const mn::Tensor& ref) {
  EXPECT_TRUE(a.same_shape(ref));
  double diff = 0.0, scale = 0.0;
  for (index_t i = 0; i < ref.numel(); ++i) {
    diff = std::max(diff, std::abs(static_cast<double>(a[i]) - ref[i]));
    scale = std::max(scale, std::abs(static_cast<double>(ref[i])));
  }
  return diff / scale;
}

/// Output, input gradient and weight gradient of one forward + backward.
struct Grads {
  mn::Tensor y, gx, gw;
};

Grads run_layer(mn::Module& layer, const mn::Tensor& x, const mn::Tensor& g) {
  layer.zero_grad();
  Grads r{layer.forward(x), {}, {}};
  r.gx = layer.backward(g);
  r.gw = layer.parameters()[0]->grad;
  return r;
}

/// The full-FFT algorithm: fft2 every input plane, mix channels on the
/// corner blocks kx in [0,mx) u [W-mx,W), ky in [0,my), ifft2, real part;
/// backward is its adjoint (G = fft2(g)/HW, dW = sum_n conj(X) G,
/// dx = Re(HW ifft2(conj(W)^T G))).
Grads reference_2d(const mn::Tensor& w, index_t mx, index_t my, const mn::Tensor& x,
                   const mn::Tensor& g) {
  const index_t N = x.size(0), ci_n = x.size(1), H = x.size(2), W = x.size(3);
  const index_t co_n = w.size(2);
  const double hw = static_cast<double>(H * W);
  auto fft_plane = [&](const mn::Tensor& t, index_t n, index_t c) {
    mm::CplxGrid p(W, H);
    for (index_t h = 0; h < H; ++h) {
      for (index_t v = 0; v < W; ++v) p(v, h) = cplx{t.at(n, c, h, v), 0.0};
    }
    return mm::fft2(p);
  };
  auto widx = [&](index_t b, index_t ci, index_t co, index_t km, index_t ky) {
    return ((((b * ci_n + ci) * co_n + co) * mx + km) * my + ky) * 2;
  };
  auto kx_of = [&](index_t b, index_t km) { return b == 0 ? km : W - mx + km; };

  std::vector<mm::CplxGrid> X, G;
  for (index_t n = 0; n < N; ++n) {
    for (index_t ci = 0; ci < ci_n; ++ci) X.push_back(fft_plane(x, n, ci));
    for (index_t co = 0; co < co_n; ++co) {
      G.push_back(fft_plane(g, n, co));
      for (auto& v : G.back().data()) v /= hw;
    }
  }
  Grads r{mn::Tensor({N, co_n, H, W}), mn::Tensor({N, ci_n, H, W}), mn::Tensor(w.shape())};
  for (index_t n = 0; n < N; ++n) {
    for (index_t co = 0; co < co_n; ++co) {
      mm::CplxGrid Y(W, H);
      for (index_t b = 0; b < 2; ++b) {
        for (index_t km = 0; km < mx; ++km) {
          for (index_t ky = 0; ky < my; ++ky) {
            for (index_t ci = 0; ci < ci_n; ++ci) {
              const index_t i = widx(b, ci, co, km, ky);
              Y(kx_of(b, km), ky) += cplx{w[i], w[i + 1]} * X[n * ci_n + ci](kx_of(b, km), ky);
            }
          }
        }
      }
      Y = mm::ifft2(Y);
      for (index_t h = 0; h < H; ++h) {
        for (index_t v = 0; v < W; ++v) r.y.at(n, co, h, v) = static_cast<float>(Y(v, h).real());
      }
    }
    for (index_t ci = 0; ci < ci_n; ++ci) {
      mm::CplxGrid D(W, H);
      for (index_t b = 0; b < 2; ++b) {
        for (index_t km = 0; km < mx; ++km) {
          for (index_t ky = 0; ky < my; ++ky) {
            for (index_t co = 0; co < co_n; ++co) {
              const index_t i = widx(b, ci, co, km, ky);
              D(kx_of(b, km), ky) +=
                  std::conj(cplx{w[i], w[i + 1]}) * G[n * co_n + co](kx_of(b, km), ky);
            }
          }
        }
      }
      D = mm::ifft2(D);
      for (index_t h = 0; h < H; ++h) {
        for (index_t v = 0; v < W; ++v) {
          r.gx.at(n, ci, h, v) = static_cast<float>(hw * D(v, h).real());
        }
      }
    }
  }
  for (index_t b = 0; b < 2; ++b) {
    for (index_t ci = 0; ci < ci_n; ++ci) {
      for (index_t co = 0; co < co_n; ++co) {
        for (index_t km = 0; km < mx; ++km) {
          for (index_t ky = 0; ky < my; ++ky) {
            cplx s{};
            for (index_t n = 0; n < N; ++n) {
              s += std::conj(X[n * ci_n + ci](kx_of(b, km), ky)) *
                   G[n * co_n + co](kx_of(b, km), ky);
            }
            const index_t i = widx(b, ci, co, km, ky);
            r.gw[i] = static_cast<float>(s.real());
            r.gw[i + 1] = static_cast<float>(s.imag());
          }
        }
      }
    }
  }
  return r;
}

/// The same algorithm for the factorized layer: a 1-D fft/ifft of every
/// line along `axis`, modes k in [0,m) u [L-m,L), weights shared by lines.
Grads reference_1d(const mn::Tensor& w, index_t m, mn::FftAxis axis, const mn::Tensor& x,
                   const mn::Tensor& g) {
  const index_t N = x.size(0), ci_n = x.size(1), H = x.size(2), W = x.size(3);
  const index_t co_n = w.size(2);
  const bool along_x = axis == mn::FftAxis::X;
  const index_t L = along_x ? W : H, T = along_x ? H : W;
  auto idx = [&](index_t t, index_t l) { return along_x ? t * W + l : l * W + t; };
  auto fft_line = [&](const mn::Tensor& v, index_t n, index_t c, index_t t) {
    std::vector<cplx> line(static_cast<std::size_t>(L));
    for (index_t l = 0; l < L; ++l) line[l] = v[(n * v.size(1) + c) * H * W + idx(t, l)];
    return mm::fft(line);
  };
  auto widx = [&](index_t b, index_t ci, index_t co, index_t km) {
    return (((b * ci_n + ci) * co_n + co) * m + km) * 2;
  };
  auto k_of = [&](index_t b, index_t km) { return b == 0 ? km : L - m + km; };

  Grads r{mn::Tensor({N, co_n, H, W}), mn::Tensor({N, ci_n, H, W}), mn::Tensor(w.shape())};
  std::vector<double> gw(static_cast<std::size_t>(w.numel()));
  for (index_t n = 0; n < N; ++n) {
    for (index_t t = 0; t < T; ++t) {
      std::vector<std::vector<cplx>> X, G;
      for (index_t ci = 0; ci < ci_n; ++ci) X.push_back(fft_line(x, n, ci, t));
      for (index_t co = 0; co < co_n; ++co) {
        G.push_back(fft_line(g, n, co, t));
        for (auto& v : G.back()) v /= static_cast<double>(L);
      }
      for (index_t co = 0; co < co_n; ++co) {
        std::vector<cplx> Y(static_cast<std::size_t>(L));
        for (index_t b = 0; b < 2; ++b) {
          for (index_t km = 0; km < m; ++km) {
            for (index_t ci = 0; ci < ci_n; ++ci) {
              const index_t i = widx(b, ci, co, km);
              Y[k_of(b, km)] += cplx{w[i], w[i + 1]} * X[ci][k_of(b, km)];
            }
          }
        }
        Y = mm::ifft(Y);
        for (index_t l = 0; l < L; ++l) {
          r.y[(n * co_n + co) * H * W + idx(t, l)] = static_cast<float>(Y[l].real());
        }
      }
      for (index_t ci = 0; ci < ci_n; ++ci) {
        std::vector<cplx> D(static_cast<std::size_t>(L));
        for (index_t b = 0; b < 2; ++b) {
          for (index_t km = 0; km < m; ++km) {
            for (index_t co = 0; co < co_n; ++co) {
              const index_t i = widx(b, ci, co, km);
              D[k_of(b, km)] += std::conj(cplx{w[i], w[i + 1]}) * G[co][k_of(b, km)];
            }
            for (index_t co = 0; co < co_n; ++co) {
              const cplx s = std::conj(X[ci][k_of(b, km)]) * G[co][k_of(b, km)];
              const index_t i = widx(b, ci, co, km);
              gw[i] += s.real();
              gw[i + 1] += s.imag();
            }
          }
        }
        D = mm::ifft(D);
        for (index_t l = 0; l < L; ++l) {
          r.gx[(n * ci_n + ci) * H * W + idx(t, l)] =
              static_cast<float>(static_cast<double>(L) * D[l].real());
        }
      }
    }
  }
  for (index_t i = 0; i < w.numel(); ++i) r.gw[i] = static_cast<float>(gw[i]);
  return r;
}

void expect_matches(const Grads& got, const Grads& ref) {
  EXPECT_LT(rel_err(got.y, ref.y), 1e-5);
  EXPECT_LT(rel_err(got.gx, ref.gx), 1e-5);
  EXPECT_LT(rel_err(got.gw, ref.gw), 1e-5);
}
}  // namespace

TEST(Spectral2d, OutputShape) {
  mm::Rng rng(1);
  mn::SpectralConv2d spec(2, 3, 4, 4, rng);
  auto y = spec.forward(random_input({2, 2, 16, 16}, 2));
  EXPECT_EQ(y.size(0), 2);
  EXPECT_EQ(y.size(1), 3);
  EXPECT_EQ(y.size(2), 16);
  EXPECT_EQ(y.size(3), 16);
}

TEST(Spectral2d, IsLinearInInput) {
  mm::Rng rng(3);
  mn::SpectralConv2d spec(1, 1, 3, 3, rng);
  auto a = random_input({1, 1, 8, 8}, 4);
  auto b = random_input({1, 1, 8, 8}, 5);
  mn::Tensor sum = a;
  sum.add_(b, 2.0f);
  auto ya = spec.forward(a);
  auto yb = spec.forward(b);
  auto ys = spec.forward(sum);
  for (index_t i = 0; i < ys.numel(); ++i) {
    EXPECT_NEAR(ys[i], ya[i] + 2.0f * yb[i], 1e-4);
  }
}

TEST(Spectral2d, HighFrequencyInputIsFiltered) {
  // A Nyquist-rate checkerboard has no energy in the retained low modes.
  mm::Rng rng(6);
  mn::SpectralConv2d spec(1, 1, 2, 2, rng);
  mn::Tensor x({1, 1, 16, 16});
  for (index_t h = 0; h < 16; ++h) {
    for (index_t w = 0; w < 16; ++w) {
      x.at(0, 0, h, w) = ((h + w) % 2 == 0) ? 1.0f : -1.0f;
    }
  }
  auto y = spec.forward(x);
  EXPECT_LT(y.sumsq(), 1e-8);
}

TEST(Spectral2d, DcInputPassesThroughDcWeight) {
  mm::Rng rng(7);
  mn::SpectralConv2d spec(1, 1, 2, 2, rng);
  mn::Tensor x({1, 1, 8, 8}, 1.0f);  // pure DC
  auto y = spec.forward(x);
  // Output = Re(W[block0, k=0] * DC) — constant across the grid.
  for (index_t i = 1; i < y.numel(); ++i) EXPECT_NEAR(y[i], y[0], 1e-5);
}

TEST(Spectral2d, GradCheck) {
  mm::Rng rng(8);
  mn::SpectralConv2d spec(2, 2, 3, 3, rng);
  auto res = mn::gradcheck(spec, random_input({2, 2, 8, 8}, 9), 10, 24, 16, 1e-2);
  EXPECT_LT(res.max_param_err, 2e-2);
  EXPECT_LT(res.max_input_err, 2e-2);
}

TEST(Spectral1d, GradCheckAxisX) {
  mm::Rng rng(11);
  mn::SpectralConv1d spec(2, 2, 3, mn::FftAxis::X, rng);
  auto res = mn::gradcheck(spec, random_input({2, 2, 8, 8}, 12), 13, 24, 16, 1e-2);
  EXPECT_LT(res.max_param_err, 2e-2);
  EXPECT_LT(res.max_input_err, 2e-2);
}

TEST(Spectral1d, GradCheckAxisY) {
  mm::Rng rng(14);
  mn::SpectralConv1d spec(2, 2, 3, mn::FftAxis::Y, rng);
  auto res = mn::gradcheck(spec, random_input({2, 2, 8, 8}, 15), 16, 24, 16, 1e-2);
  EXPECT_LT(res.max_param_err, 2e-2);
  EXPECT_LT(res.max_input_err, 2e-2);
}

TEST(Spectral1d, XAxisActsPerRow) {
  // Zeroing one row of the input leaves that row zero in the output for the
  // X-axis transform (rows are independent).
  mm::Rng rng(17);
  mn::SpectralConv1d spec(1, 1, 2, mn::FftAxis::X, rng);
  auto x = random_input({1, 1, 8, 8}, 18);
  for (index_t w = 0; w < 8; ++w) x.at(0, 0, 3, w) = 0.0f;
  auto y = spec.forward(x);
  for (index_t w = 0; w < 8; ++w) EXPECT_NEAR(y.at(0, 0, 3, w), 0.0f, 1e-6);
}

TEST(Spectral2d, ModesMustFitGrid) {
  mm::Rng rng(19);
  mn::SpectralConv2d spec(1, 1, 5, 5, rng);
  EXPECT_THROW(spec.forward(random_input({1, 1, 8, 8}, 20)), maps::MapsError);
}

TEST(Spectral2d, MatchesFullFftAlgorithm) {
  struct Case {
    index_t n, c_in, c_out, h, w, mx, my;
  };
  const Case cases[] = {
      {2, 12, 12, 64, 64, 16, 16},  // the served FNO layer
      {2, 2, 3, 9, 7, 3, 4},        // non-power-of-two grid
      {1, 2, 2, 6, 10, 5, 6},       // modes at the limit: 2*mx == W, my == H
  };
  unsigned seed = 30;
  for (const Case& c : cases) {
    mm::Rng rng(seed++);
    mn::SpectralConv2d spec(c.c_in, c.c_out, c.mx, c.my, rng);
    const auto x = random_input({c.n, c.c_in, c.h, c.w}, seed++);
    const auto g = random_input({c.n, c.c_out, c.h, c.w}, seed++);
    SCOPED_TRACE(testing::Message() << c.h << "x" << c.w << " modes " << c.mx << "," << c.my);
    expect_matches(run_layer(spec, x, g),
                   reference_2d(spec.parameters()[0]->value, c.mx, c.my, x, g));
  }
}

TEST(Spectral1d, MatchesFullFftAlgorithm) {
  struct Case {
    mn::FftAxis axis;
    index_t h, w, m;
  };
  const Case cases[] = {
      {mn::FftAxis::X, 8, 12, 3},
      {mn::FftAxis::Y, 8, 12, 3},
      {mn::FftAxis::X, 5, 8, 4},  // 2*m == W
      {mn::FftAxis::Y, 6, 7, 3},  // 2*m == H, odd other axis
  };
  unsigned seed = 50;
  for (const Case& c : cases) {
    mm::Rng rng(seed++);
    mn::SpectralConv1d spec(2, 3, c.m, c.axis, rng);
    const auto x = random_input({2, 2, c.h, c.w}, seed++);
    const auto g = random_input({2, 3, c.h, c.w}, seed++);
    SCOPED_TRACE(testing::Message() << (c.axis == mn::FftAxis::X ? "X " : "Y ") << c.h
                                    << "x" << c.w << " m " << c.m);
    expect_matches(run_layer(spec, x, g),
                   reference_1d(spec.parameters()[0]->value, c.m, c.axis, x, g));
  }
}
