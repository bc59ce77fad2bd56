#include "nn/spectral.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <tuple>
#include <vector>

#include "math/parallel.hpp"

namespace maps::nn {

using maps::math::parallel_for_chunked;

namespace {

// cos/sin(2*pi*f*l/n) for every sample l < n of an n-point axis and each
// kept frequency f: [0, lo) then [n - hi, n). Mode-major: entry k*n + l.
struct Twiddles {
  index_t n = 0, modes = 0;
  std::vector<double> cos, sin;
};

/// Built once per (n, lo, hi) and shared by every layer and thread.
/// std::map never moves a mapped value, so the returned reference stays
/// valid while other threads insert.
const Twiddles& twiddles(index_t n, index_t lo, index_t hi) {
  static std::mutex mu;
  static std::map<std::tuple<index_t, index_t, index_t>, Twiddles> cache;
  std::lock_guard lk(mu);
  const auto key = std::make_tuple(n, lo, hi);
  if (auto it = cache.find(key); it != cache.end()) return it->second;
  Twiddles tw;
  tw.n = n;
  tw.modes = lo + hi;
  tw.cos.resize(static_cast<std::size_t>(tw.modes * n));
  tw.sin.resize(tw.cos.size());
  for (index_t k = 0; k < tw.modes; ++k) {
    const index_t f = k < lo ? k : n - hi + (k - lo);
    for (index_t l = 0; l < n; ++l) {
      // f*l is reduced mod n first so the angle stays in [0, 2pi).
      const double ang =
          2.0 * kPi * static_cast<double>(f * l % n) / static_cast<double>(n);
      tw.cos[static_cast<std::size_t>(k * n + l)] = std::cos(ang);
      tw.sin[static_cast<std::size_t>(k * n + l)] = std::sin(ang);
    }
  }
  return cache.emplace(key, std::move(tw)).first->second;
}

// Both passes run along the leading axis of a row-major [n][T] array, so the
// inner loop is a contiguous run over t that the compiler vectorizes; a pass
// along the trailing axis transposes first. Each output element is summed
// in a fixed order over l (or k), independent of how many planes run.

/// out[k][t] = sum_l in[l][t] e^{-2 pi i f_k l / n}; null in_im = real input.
void dft_pass(const Twiddles& tw, index_t T, const double* in_re, const double* in_im,
              double* out_re, double* out_im) {
  const index_t n = tw.n;
  for (index_t k = 0; k < tw.modes; ++k) {
    double* o_re = out_re + k * T;
    double* o_im = out_im + k * T;
    std::fill(o_re, o_re + T, 0.0);
    std::fill(o_im, o_im + T, 0.0);
    const double* c = tw.cos.data() + k * n;
    const double* s = tw.sin.data() + k * n;
    for (index_t l = 0; l < n; ++l) {
      const double cl = c[l], sl = s[l];
      const double* x_re = in_re + l * T;
      if (in_im == nullptr) {
        for (index_t t = 0; t < T; ++t) {
          o_re[t] += x_re[t] * cl;
          o_im[t] -= x_re[t] * sl;
        }
      } else {
        const double* x_im = in_im + l * T;
        for (index_t t = 0; t < T; ++t) {
          o_re[t] += x_re[t] * cl + x_im[t] * sl;
          o_im[t] += x_im[t] * cl - x_re[t] * sl;
        }
      }
    }
  }
}

/// out[l][t] = sum_k in[k][t] e^{+2 pi i f_k l / n}; null out_im keeps only
/// the real part (the layer output is real, so no Hermitian fill is needed).
void idft_pass(const Twiddles& tw, index_t T, const double* in_re, const double* in_im,
               double* out_re, double* out_im) {
  const index_t n = tw.n;
  for (index_t l = 0; l < n; ++l) {
    double* o_re = out_re + l * T;
    std::fill(o_re, o_re + T, 0.0);
    double* o_im = out_im == nullptr ? nullptr : out_im + l * T;
    if (o_im != nullptr) std::fill(o_im, o_im + T, 0.0);
    for (index_t k = 0; k < tw.modes; ++k) {
      const double cl = tw.cos[static_cast<std::size_t>(k * n + l)];
      const double sl = tw.sin[static_cast<std::size_t>(k * n + l)];
      const double* x_re = in_re + k * T;
      const double* x_im = in_im + k * T;
      for (index_t t = 0; t < T; ++t) o_re[t] += x_re[t] * cl - x_im[t] * sl;
      if (o_im != nullptr) {
        for (index_t t = 0; t < T; ++t) o_im[t] += x_re[t] * sl + x_im[t] * cl;
      }
    }
  }
}

/// dst[c][r] = src[r][c] for a rows x cols array.
void transpose(const double* src, index_t rows, index_t cols, double* dst) {
  for (index_t r = 0; r < rows; ++r) {
    for (index_t c = 0; c < cols; ++c) dst[c * rows + r] = src[r * cols + c];
  }
}

/// Where one layer's retained modes live and how an H x W real plane maps
/// onto them: a truncated DFT along H (keeping h->modes rows), then along W
/// (keeping w->modes columns); either pass may be absent. A plane's modes
/// are stored as a re block then an im block, each [j][t]: j runs over the
/// weight modes in the weight tensor's order (two corner blocks of jb) and t
/// over the positions sharing one weight (1 for the 2-D layer, the
/// untransformed axis for the 1-D layer).
struct ModeLayout {
  index_t H, W;
  const Twiddles* h;  // pass along H, or null
  const Twiddles* w;  // pass along W, or null
  index_t jb, T;

  index_t size() const { return 2 * jb * T; }  // coefficients per plane
  /// Points of the full transform over the passed axes (the DFT scale).
  double points() const {
    return static_cast<double>((h != nullptr ? h->n : 1) * (w != nullptr ? w->n : 1));
  }
};

/// One worker's buffers: pass intermediates (none exceeds an H*W plane)
/// and one plane of mixed modes.
struct Scratch {
  std::vector<double> a, b, c, d, e, modes;
  explicit Scratch(const ModeLayout& L) : modes(static_cast<std::size_t>(2 * L.size())) {
    const auto hw = static_cast<std::size_t>(L.H * L.W);
    for (auto* v : {&a, &b, &c, &d, &e}) v->resize(hw);
  }
};

/// fn(p, scratch) for every plane p < count, spread over the thread pool
/// with one Scratch per chunk.
template <typename Fn>
void for_each_plane(const ModeLayout& L, index_t count, const Fn& fn) {
  parallel_for_chunked(0, static_cast<std::size_t>(count), [&](std::size_t lo, std::size_t hi) {
    Scratch s(L);
    for (auto p = static_cast<index_t>(lo); p < static_cast<index_t>(hi); ++p) fn(p, s);
  });
}

/// Forward kernel: retained modes of one real plane, times `scale`.
void to_modes(const ModeLayout& L, const float* x, double scale, double* re, double* im,
              Scratch& s) {
  const index_t H = L.H, W = L.W;
  for (index_t i = 0; i < H * W; ++i) s.a[static_cast<std::size_t>(i)] = x[i];
  const double* cur_re = s.a.data();
  const double* cur_im = nullptr;
  index_t rows = H;  // cur is [rows][W]
  if (L.h != nullptr) {
    double* o_re = L.w != nullptr ? s.b.data() : re;
    double* o_im = L.w != nullptr ? s.c.data() : im;
    dft_pass(*L.h, W, cur_re, cur_im, o_re, o_im);
    cur_re = o_re;
    cur_im = o_im;
    rows = L.h->modes;
  }
  if (L.w != nullptr) {
    transpose(cur_re, rows, W, s.d.data());
    if (cur_im != nullptr) transpose(cur_im, rows, W, s.e.data());
    dft_pass(*L.w, rows, s.d.data(), cur_im != nullptr ? s.e.data() : nullptr, re, im);
  }
  if (scale != 1.0) {
    for (index_t i = 0; i < L.size(); ++i) {
      re[i] *= scale;
      im[i] *= scale;
    }
  }
}

/// Inverse kernel: Re(unnormalized inverse DFT of the retained modes) times
/// `scale`, written as one real plane.
void from_modes(const ModeLayout& L, const double* re, const double* im, double scale,
                float* y, Scratch& s) {
  const index_t H = L.H, W = L.W;
  const double* cur_re = re;
  const double* cur_im = im;
  if (L.w != nullptr) {
    const index_t rows = L.h != nullptr ? L.h->modes : H;
    const bool real_out = L.h == nullptr;
    idft_pass(*L.w, rows, re, im, s.b.data(), real_out ? nullptr : s.c.data());
    transpose(s.b.data(), W, rows, s.d.data());
    if (!real_out) transpose(s.c.data(), W, rows, s.e.data());
    cur_re = s.d.data();
    cur_im = real_out ? nullptr : s.e.data();
  }
  if (L.h != nullptr) {
    idft_pass(*L.h, W, cur_re, cur_im, s.a.data(), nullptr);
    cur_re = s.a.data();
  }
  for (index_t i = 0; i < H * W; ++i) y[i] = static_cast<float>(cur_re[i] * scale);
}

/// Channel mixing into one plane's modes: out = sum_q w_q * in_q (conj(w_q)
/// when `conj`), q in order. The weight of corner block b, channel q and
/// weight mode jj is at w[b*b_stride + q*q_stride + 2*jj] (re, im).
void mix(const ModeLayout& L, const float* w, index_t b_stride, index_t q_stride,
         index_t nq, const double* in, index_t in_stride, bool conj, double* out) {
  const index_t K = L.size();
  double* o_re = out;
  double* o_im = out + K;
  std::fill(out, out + 2 * K, 0.0);
  for (index_t q = 0; q < nq; ++q) {
    const double* x_re = in + q * in_stride;
    const double* x_im = x_re + K;
    for (index_t b = 0; b < 2; ++b) {
      const float* wq = w + b * b_stride + q * q_stride;
      for (index_t jj = 0; jj < L.jb; ++jj) {
        const double wr = wq[2 * jj];
        const double wi = conj ? -wq[2 * jj + 1] : wq[2 * jj + 1];
        const index_t off = (b * L.jb + jj) * L.T;
        for (index_t t = off; t < off + L.T; ++t) {
          o_re[t] += wr * x_re[t] - wi * x_im[t];
          o_im[t] += wr * x_im[t] + wi * x_re[t];
        }
      }
    }
  }
}

/// Shared forward of both layers: modes of every input plane (kept in
/// `x_hat`, N*c_in planes of 2*L.size() doubles, re then im), mixed into
/// each output plane and inverse-transformed.
Tensor spectral_forward(const ModeLayout& L, const Tensor& x, const Tensor& w,
                        index_t c_out, std::vector<double>& x_hat) {
  const index_t N = x.size(0), c_in = x.size(1), hw = L.H * L.W, K = L.size();
  x_hat.resize(static_cast<std::size_t>(N * c_in * 2 * K));
  for_each_plane(L, N * c_in, [&](index_t p, Scratch& s) {
    double* m = x_hat.data() + p * 2 * K;
    to_modes(L, x.data() + p * hw, 1.0, m, m + K, s);
  });
  Tensor y({N, c_out, L.H, L.W});
  const double inv_n = 1.0 / L.points();
  for_each_plane(L, N * c_out, [&](index_t p, Scratch& s) {
    const index_t n = p / c_out, co = p % c_out;
    double* m = s.modes.data();
    mix(L, w.data() + co * L.jb * 2, c_in * c_out * L.jb * 2, c_out * L.jb * 2, c_in,
        x_hat.data() + n * c_in * 2 * K, 2 * K, false, m);
    from_modes(L, m, m + K, inv_n, y.data() + p * hw, s);
  });
  return y;
}

/// Shared backward (the adjoint of the forward): G_Y = modes(grad_out) / n
/// for the n transform points; dW += sum_n conj(X) G_Y; dx = n * inverse of
/// conj(W)^T G_Y, i.e. the inverse kernel without its 1/n.
Tensor spectral_backward(const ModeLayout& L, const Tensor& grad_out, Param& w,
                         const std::vector<index_t>& in_shape,
                         const std::vector<double>& x_hat) {
  const index_t N = in_shape[0], c_in = in_shape[1], hw = L.H * L.W, K = L.size();
  const index_t c_out = w.value.size(2);
  require(grad_out.shape() == std::vector<index_t>{N, c_out, L.H, L.W},
          "spectral backward: grad_out shape does not match the forward output");
  const double inv_n = 1.0 / L.points();

  std::vector<double> gy(static_cast<std::size_t>(N * c_out * 2 * K));
  for_each_plane(L, N * c_out, [&](index_t p, Scratch& s) {
    double* m = gy.data() + p * 2 * K;
    to_modes(L, grad_out.data() + p * hw, inv_n, m, m + K, s);
  });

  // dW[b,ci,co,jj] += sum_n sum_t conj(X[n,ci]) G_Y[n,co] at weight mode jj.
  float* gw = w.grad.data();
  parallel_for_chunked(
      0, static_cast<std::size_t>(c_in * c_out), [&](std::size_t lo, std::size_t hi) {
        for (auto p = static_cast<index_t>(lo); p < static_cast<index_t>(hi); ++p) {
          const index_t ci = p / c_out, co = p % c_out;
          for (index_t j = 0; j < 2 * L.jb; ++j) {
            double s_re = 0.0, s_im = 0.0;
            for (index_t n = 0; n < N; ++n) {
              const double* x_re = x_hat.data() + (n * c_in + ci) * 2 * K;
              const double* g_re = gy.data() + (n * c_out + co) * 2 * K;
              for (index_t t = j * L.T; t < (j + 1) * L.T; ++t) {
                const double xr = x_re[t], xi = x_re[K + t];
                const double gr = g_re[t], gi = g_re[K + t];
                s_re += xr * gr + xi * gi;
                s_im += xr * gi - xi * gr;
              }
            }
            const index_t b = j / L.jb, jj = j % L.jb;
            const index_t base = (((b * c_in + ci) * c_out + co) * L.jb + jj) * 2;
            gw[base] += static_cast<float>(s_re);
            gw[base + 1] += static_cast<float>(s_im);
          }
        }
      });

  Tensor gx({N, c_in, L.H, L.W});
  for_each_plane(L, N * c_in, [&](index_t p, Scratch& s) {
    const index_t n = p / c_in, ci = p % c_in;
    double* m = s.modes.data();
    mix(L, w.value.data() + ci * c_out * L.jb * 2, c_in * c_out * L.jb * 2, L.jb * 2,
        c_out, gy.data() + n * c_out * 2 * K, 2 * K, true, m);
    from_modes(L, m, m + K, 1.0, gx.data() + p * hw, s);
  });
  return gx;
}

void spectral_init(Tensor& w, index_t c_in, maps::math::Rng& rng) {
  const double scale = 1.0 / static_cast<double>(c_in);
  for (index_t i = 0; i < w.numel(); ++i) {
    w[i] = static_cast<float>(rng.uniform(-scale, scale));
  }
}

}  // namespace

// ----------------------------------------------------------- SpectralConv2d

SpectralConv2d::SpectralConv2d(index_t c_in, index_t c_out, index_t modes_x,
                               index_t modes_y, maps::math::Rng& rng, std::string tag)
    : c_in_(c_in), c_out_(c_out), mx_(modes_x), my_(modes_y), tag_(std::move(tag)),
      w_(tag_ + ".w", Tensor({2, c_in, c_out, modes_x, modes_y, 2})) {
  spectral_init(w_.value, c_in, rng);
}

namespace {
ModeLayout layout_2d(index_t H, index_t W, index_t mx, index_t my) {
  // H pass keeps ky < my; W pass keeps kx in [0,mx) u [W-mx,W). Modes land
  // as [kx'][ky], i.e. j = (b*mx + km)*my + ky, the weight tensor's order.
  return {H, W, &twiddles(H, my, 0), &twiddles(W, mx, mx), mx * my, 1};
}
}  // namespace

Tensor SpectralConv2d::run_forward(const Tensor& x, std::vector<double>& x_hat) const {
  require(x.ndim() == 4 && x.size(1) == c_in_, "SpectralConv2d: bad input shape");
  const index_t H = x.size(2), W = x.size(3);
  require(2 * mx_ <= W && my_ <= H, "SpectralConv2d: modes exceed grid");
  return spectral_forward(layout_2d(H, W, mx_, my_), x, w_.value, c_out_, x_hat);
}

Tensor SpectralConv2d::forward(const Tensor& x) {
  // Cache only after run_forward validated the input, so a rejected tensor
  // can't poison the backward cache.
  Tensor y = run_forward(x, x_hat_);
  in_shape_ = x.shape();
  return y;
}

Tensor SpectralConv2d::infer(const Tensor& x) const {
  std::vector<double> x_hat;  // dropped: infer keeps no backward state
  return run_forward(x, x_hat);
}

Tensor SpectralConv2d::backward(const Tensor& grad_out) {
  require(!in_shape_.empty(), "SpectralConv2d::backward: call forward first");
  return spectral_backward(layout_2d(in_shape_[2], in_shape_[3], mx_, my_), grad_out, w_,
                           in_shape_, x_hat_);
}

// ----------------------------------------------------------- SpectralConv1d

SpectralConv1d::SpectralConv1d(index_t c_in, index_t c_out, index_t modes,
                               FftAxis axis, maps::math::Rng& rng, std::string tag)
    : c_in_(c_in), c_out_(c_out), m_(modes), axis_(axis), tag_(std::move(tag)),
      w_(tag_ + ".w", Tensor({2, c_in, c_out, modes, 2})) {
  spectral_init(w_.value, c_in, rng);
}

namespace {
ModeLayout layout_1d(index_t H, index_t W, index_t m, FftAxis axis) {
  // One pass keeping [0,m) u [L-m,L) of every line; modes land as [k'][t]
  // with t along the untransformed axis.
  if (axis == FftAxis::X) return {H, W, nullptr, &twiddles(W, m, m), m, H};
  return {H, W, &twiddles(H, m, m), nullptr, m, W};
}
}  // namespace

Tensor SpectralConv1d::run_forward(const Tensor& x, std::vector<double>& x_hat) const {
  require(x.ndim() == 4 && x.size(1) == c_in_, "SpectralConv1d: bad input shape");
  const index_t H = x.size(2), W = x.size(3);
  const index_t L = (axis_ == FftAxis::X) ? W : H;  // transformed length
  require(2 * m_ <= L, "SpectralConv1d: modes exceed axis length");
  return spectral_forward(layout_1d(H, W, m_, axis_), x, w_.value, c_out_, x_hat);
}

Tensor SpectralConv1d::forward(const Tensor& x) {
  Tensor y = run_forward(x, x_hat_);
  in_shape_ = x.shape();
  return y;
}

Tensor SpectralConv1d::infer(const Tensor& x) const {
  std::vector<double> x_hat;
  return run_forward(x, x_hat);
}

Tensor SpectralConv1d::backward(const Tensor& grad_out) {
  require(!in_shape_.empty(), "SpectralConv1d::backward: call forward first");
  return spectral_backward(layout_1d(in_shape_[2], in_shape_[3], m_, axis_), grad_out, w_,
                           in_shape_, x_hat_);
}

}  // namespace maps::nn
