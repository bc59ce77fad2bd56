#include "math/fft.hpp"

#include <cmath>
#include <mutex>
#include <unordered_map>

namespace maps::math {

bool is_pow2(index_t n) { return n > 0 && (n & (n - 1)) == 0; }

namespace {

// Twiddle cache: per (n, inverse) table of e^{±2pi i k/n}, k < n/2.
// unordered_map guarantees reference stability of mapped values, so a
// caller may hold the returned reference for a whole transform.
const std::vector<cplx>& twiddles(index_t n, bool inverse) {
  static std::mutex mu;
  static std::unordered_map<index_t, std::vector<cplx>> cache[2];
  std::lock_guard lk(mu);
  auto& slot = cache[inverse ? 1 : 0][n];
  if (slot.empty()) {
    slot.resize(static_cast<std::size_t>(n / 2));
    const double sign = inverse ? 1.0 : -1.0;
    for (index_t k = 0; k < n / 2; ++k) {
      const double ang = sign * 2.0 * kPi * static_cast<double>(k) / static_cast<double>(n);
      slot[static_cast<std::size_t>(k)] = {std::cos(ang), std::sin(ang)};
    }
  }
  return slot;
}

void radix2(cplx* a, index_t n, bool inverse) {
  const std::vector<cplx>& tw = twiddles(n, inverse);
  // Bit-reversal permutation.
  for (index_t i = 1, j = 0; i < n; ++i) {
    index_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (index_t len = 2; len <= n; len <<= 1) {
    const index_t step = n / len;
    for (index_t i = 0; i < n; i += len) {
      for (index_t k = 0; k < len / 2; ++k) {
        const cplx w = tw[static_cast<std::size_t>(k * step)];
        const cplx u = a[i + k];
        const cplx v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
      }
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (index_t i = 0; i < n; ++i) a[i] *= inv_n;
  }
}

void naive_dft(cplx* a, index_t n, bool inverse) {
  std::vector<cplx> out(static_cast<std::size_t>(n));
  const double sign = inverse ? 1.0 : -1.0;
  for (index_t k = 0; k < n; ++k) {
    cplx s{};
    for (index_t t = 0; t < n; ++t) {
      const double ang =
          sign * 2.0 * kPi * static_cast<double>(k * t % n) / static_cast<double>(n);
      s += a[t] * cplx{std::cos(ang), std::sin(ang)};
    }
    out[static_cast<std::size_t>(k)] = s;
  }
  const double scale = inverse ? 1.0 / static_cast<double>(n) : 1.0;
  for (index_t k = 0; k < n; ++k) a[k] = out[static_cast<std::size_t>(k)] * scale;
}

/// One in-place line transform: radix-2 for powers of two, else the DFT.
void transform(cplx* a, index_t n, bool inverse) {
  if (n <= 1) return;
  if (is_pow2(n)) {
    radix2(a, n, inverse);
  } else {
    naive_dft(a, n, inverse);
  }
}

}  // namespace

void fft_inplace(std::vector<cplx>& x, bool inverse) {
  transform(x.data(), static_cast<index_t>(x.size()), inverse);
}

std::vector<cplx> fft(std::vector<cplx> x) {
  fft_inplace(x, false);
  return x;
}

std::vector<cplx> ifft(std::vector<cplx> x) {
  fft_inplace(x, true);
  return x;
}

void fft2_inplace(CplxGrid& g, bool inverse) {
  const index_t nx = g.nx(), ny = g.ny();
  if (nx == 0 || ny == 0) return;
  // Rows (x direction, contiguous), then each column through one buffer.
  for (index_t j = 0; j < ny; ++j) transform(&g(0, j), nx, inverse);
  std::vector<cplx> col(static_cast<std::size_t>(ny));
  for (index_t i = 0; i < nx; ++i) {
    for (index_t j = 0; j < ny; ++j) col[static_cast<std::size_t>(j)] = g(i, j);
    transform(col.data(), ny, inverse);
    for (index_t j = 0; j < ny; ++j) g(i, j) = col[static_cast<std::size_t>(j)];
  }
}

CplxGrid fft2(const CplxGrid& g) {
  CplxGrid out = g;
  fft2_inplace(out, false);
  return out;
}

CplxGrid ifft2(const CplxGrid& g) {
  CplxGrid out = g;
  fft2_inplace(out, true);
  return out;
}

CplxGrid rfft2(const RealGrid& g) {
  CplxGrid c(g.nx(), g.ny());
  for (index_t n = 0; n < g.size(); ++n) c[n] = cplx{g[n], 0.0};
  return fft2(c);
}

}  // namespace maps::math
