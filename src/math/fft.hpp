// Reference Fourier transforms: the full-spectrum FFTs that the truncated
// DFT of the spectral-convolution layers (src/nn/spectral.cpp) is tested
// against, and that BM_Fft2 times.
//
// Power-of-two sizes use an iterative radix-2 Cooley-Tukey kernel with cached
// twiddle tables; other sizes fall back to a correct O(n^2) DFT so callers
// never get silently wrong answers. Forward transform is unnormalized
// (X_k = sum x_n e^{-2pi i nk/N}); inverse carries the 1/N factor, so
// ifft(fft(x)) == x.
#pragma once

#include <vector>

#include "math/field2d.hpp"
#include "math/types.hpp"

namespace maps::math {

/// In-place 1D transforms. `inverse` selects the +i kernel and 1/N scaling.
void fft_inplace(std::vector<cplx>& x, bool inverse);

std::vector<cplx> fft(std::vector<cplx> x);
std::vector<cplx> ifft(std::vector<cplx> x);

/// 2D transforms over Grid2D (transform along x then y).
CplxGrid fft2(const CplxGrid& g);
CplxGrid ifft2(const CplxGrid& g);

/// In-place 2D transform (no grid copy).
void fft2_inplace(CplxGrid& g, bool inverse);

/// Real-input helper: promotes to complex and runs fft2.
CplxGrid rfft2(const RealGrid& g);

/// True if the radix-2 fast path applies.
bool is_pow2(index_t n);

}  // namespace maps::math
