#include "solver/direct.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "math/csr.hpp"
#include "math/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/deadline.hpp"
#include "runtime/fault.hpp"

namespace maps::solver {

namespace {

// Stage histograms for the serve scrape (stable refs, created on first
// use). Spans attach to the ambient obs::current_trace() installed by the
// serving layer's worker thread — the solver interfaces stay trace-free.
obs::Histogram& factorize_hist() {
  static obs::Histogram& h = obs::registry().histogram("solver.factorize_ms");
  return h;
}
obs::Histogram& solve_hist() {
  static obs::Histogram& h = obs::registry().histogram("solver.solve_ms");
  return h;
}
obs::Histogram& refine_hist() {
  static obs::Histogram& h = obs::registry().histogram("solver.refine_ms");
  return h;
}

double l2_norm(const std::vector<cplx>& v) {
  double s = 0.0;
  for (const cplx& z : v) s += std::norm(z);
  return std::sqrt(s);
}

}  // namespace

DirectBandedBackend::DirectBandedBackend(const grid::GridSpec& spec,
                                         const maps::math::RealGrid& eps, double omega,
                                         const fdfd::PmlSpec& pml,
                                         SolverPrecision precision,
                                         const RefinementOptions& refinement)
    : precision_(precision),
      refinement_(refinement),
      spec_(spec), eps_(eps), omega_(omega), pml_(pml) {
  // Assemble straight into split band storage; the CSR operator is only
  // built if a consumer asks for op() (or the mixed path needs refinement
  // residuals).
  if (precision_ == SolverPrecision::Mixed) {
    // Assemble directly into fp32 band storage: the coefficients round to
    // float at the store (identical to a double-assemble + convert), and
    // the double-sized band is never allocated or written — the resident
    // factor state is half-sized from construction on.
    auto band = fdfd::assemble_banded_t<float>(spec_, eps_, omega_, pml_);
    W_ = std::move(band.W);
    split_f_.emplace(std::move(band.AB));
    mixed_active_.store(true);
  } else {
    auto band = fdfd::assemble_banded(spec_, eps_, omega_, pml_);
    W_ = std::move(band.W);
    split_.emplace(std::move(band.AB));
  }
}

DirectBandedBackend::DirectBandedBackend(fdfd::FdfdOperator op,
                                         SolverPrecision precision,
                                         const RefinementOptions& refinement)
    : precision_(precision),
      refinement_(refinement),
      spec_(op.spec), omega_(op.omega), W_(op.W) {
  csr_op_ = std::move(op);
  if (precision_ == SolverPrecision::Mixed) mixed_active_.store(true);
}

void DirectBandedBackend::factorize() {
  std::lock_guard<std::mutex> lock(mu_);
  factorize_locked();
}

void DirectBandedBackend::factorize_locked() {
  // Reliability instrumentation: a request-scoped deadline aborts before the
  // (expensive) factorization starts, and the chaos harness can break or
  // stall this exact point (MAPS_FAULTS "solver.factorize").
  runtime::check_deadline("DirectBandedBackend::factorize");
  runtime::fault::point("solver.factorize");
  // A cached factorization records a ~0 span — the trace then shows the
  // request only paid back-substitution.
  obs::ScopedSpan span("solver.factorize", obs::current_trace(), &factorize_hist());
  if (mixed_active_.load()) {
    if (!split_f_) {
      // Constructed from an assembled operator: csr_op_ was set in the
      // constructor and is immutable, so reading it here is race-free.
      split_f_.emplace(
          maps::math::SplitBandMatrixF(maps::math::to_split_band(csr_op_->A)));
    }
    if (split_f_->factorized()) return;
    try {
      split_f_->factorize();
      ++factorizations_;
      return;
    } catch (const std::exception&) {
      // Singular in fp32 (pivot under/overflow) while the double operator
      // may be fine — take the fallback instead of failing the solve.
      // Build the double factors before publishing the flag flip so no
      // reader ever sees mixed_active_ == false with unfactorized state.
      ++refine_fallbacks_;
      factorize_double_locked();
      mixed_active_.store(false);
      return;
    }
  }
  factorize_double_locked();
}

void DirectBandedBackend::factorize_double_locked() {
  if (!split_) {
    if (eps_.size() > 0) {
      // Problem definition in hand (mixed fallback dropped the double band
      // at construction): re-assemble straight into band storage.
      split_.emplace(fdfd::assemble_banded(spec_, eps_, omega_, pml_).AB);
    } else {
      split_ = maps::math::to_split_band(csr_op_->A);
    }
  }
  if (!split_->factorized()) {
    split_->factorize();
    ++factorizations_;
  }
}

void DirectBandedBackend::fall_back_to_double() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!mixed_active_.load()) return;  // another thread already fell back
  ++refine_fallbacks_;
  // Build the double factors BEFORE publishing mixed_active_ = false.
  // Backends are shared lock-free on the solve path (FactorizationCache
  // hands one instance to serve/datagen threads): a concurrent solve that
  // loads the flag between a store-first and the factorization would skip
  // the fp32 path and hit an empty/partially-factorized split_. The
  // seq_cst flag store releases the split_ writes, so any reader that
  // observes false finds fully built double factors. Note the order must
  // be explicit here — factorize_locked() with the flag still true takes
  // the (already factorized) mixed branch and never builds the double
  // path, hence the dedicated double-only routine.
  factorize_double_locked();
  mixed_active_.store(false);
  // The fp32 factors stay resident: concurrent solves may still be reading
  // them mid-refinement; they re-check mixed_active_ afterwards and answer
  // from the double factors built here.
}

// Classical mixed-precision iterative refinement over a batch: residuals are
// accumulated in double against the CSR operator, corrections come from one
// fused fp32 multi-RHS sweep per round. Converged right-hand sides drop out
// of the round; a stalled one (step shrinking the residual < 2x) or the
// iteration cap flags the whole batch for the double fallback.
bool DirectBandedBackend::refine_batch(std::span<const std::vector<cplx>> rhs,
                                       std::vector<std::vector<cplx>>& xs,
                                       bool transposed) {
  obs::ScopedSpan span("solver.refine", obs::current_trace(), &refine_hist());
  const auto& A = op().A;
  const std::size_t nrhs = rhs.size();
  std::vector<double> bnorm(nrhs), prev_rel(nrhs, std::numeric_limits<double>::max());
  std::vector<bool> done(nrhs, false);
  for (std::size_t r = 0; r < nrhs; ++r) bnorm[r] = l2_norm(rhs[r]);

  for (int it = 0; it <= refinement_.max_iters; ++it) {
    // A blown request deadline stops refining between rounds: the caller is
    // no longer waiting, so the remaining rounds are pure waste.
    runtime::check_deadline("DirectBandedBackend::refine");
    std::vector<std::vector<cplx>> residuals;
    std::vector<std::size_t> active;
    for (std::size_t r = 0; r < nrhs; ++r) {
      if (done[r]) continue;
      std::vector<cplx> res =
          transposed ? A.matvec_transposed(xs[r]) : A.matvec(xs[r]);
      for (std::size_t t = 0; t < res.size(); ++t) res[t] = rhs[r][t] - res[t];
      const double rnorm = l2_norm(res);
      const double rel = bnorm[r] > 0.0 ? rnorm / bnorm[r] : rnorm;
      if (rel <= refinement_.rtol) {
        done[r] = true;
        continue;
      }
      if (it >= refinement_.max_iters) return false;  // cap hit, still short
      if (rel > 0.5 * prev_rel[r]) return false;      // stalled
      prev_rel[r] = rel;
      active.push_back(r);
      residuals.push_back(std::move(res));
    }
    if (active.empty()) return true;
    if (transposed) {
      split_f_->solve_transposed_multi_inplace(residuals);
    } else {
      split_f_->solve_multi_inplace(residuals);
    }
    for (std::size_t k = 0; k < active.size(); ++k) {
      auto& x = xs[active[k]];
      const auto& d = residuals[k];
      for (std::size_t t = 0; t < x.size(); ++t) x[t] += d[t];
    }
    refine_iterations_ += static_cast<int>(active.size());
  }
  return false;
}

std::vector<cplx> DirectBandedBackend::solve(const std::vector<cplx>& rhs) {
  runtime::fault::point("solver.solve");
  factorize();
  obs::ScopedSpan span("solver.solve", obs::current_trace(), &solve_hist());
  ++solves_;
  std::vector<cplx> x = rhs;
  if (mixed_active_.load()) {
    split_f_->solve_inplace(x);
    std::vector<std::vector<cplx>> xs;
    xs.push_back(std::move(x));
    if (refine_batch(std::span<const std::vector<cplx>>(&rhs, 1), xs,
                     /*transposed=*/false)) {
      return std::move(xs[0]);
    }
    fall_back_to_double();
    x = rhs;
  }
  split_->solve_inplace(x);
  return x;
}

std::vector<cplx> DirectBandedBackend::solve_transposed(const std::vector<cplx>& rhs) {
  factorize();
  obs::ScopedSpan span("solver.solve", obs::current_trace(), &solve_hist());
  ++solves_;
  std::vector<cplx> x = rhs;
  if (mixed_active_.load()) {
    split_f_->solve_transposed_inplace(x);
    std::vector<std::vector<cplx>> xs;
    xs.push_back(std::move(x));
    if (refine_batch(std::span<const std::vector<cplx>>(&rhs, 1), xs,
                     /*transposed=*/true)) {
      return std::move(xs[0]);
    }
    fall_back_to_double();
    x = rhs;
  }
  split_->solve_transposed_inplace(x);
  return x;
}

std::vector<std::vector<cplx>> DirectBandedBackend::batch_solve_impl(
    std::span<const std::vector<cplx>> rhs, bool transposed) {
  factorize();
  obs::ScopedSpan span("solver.solve", obs::current_trace(), &solve_hist());
  solves_ += static_cast<int>(rhs.size());
  std::vector<std::vector<cplx>> out(rhs.begin(), rhs.end());
  if (out.empty()) return out;
  const bool mixed = mixed_active_.load();

  // Split the batch into one contiguous slice per worker; each slice runs the
  // multi-RHS sweep, so with a single thread the whole batch still shares one
  // pass over the factors. On a pool worker thread (datagen pattern tasks
  // run inside TaskQueue workers) nested parallel_for executes serially, so
  // slicing would degrade to per-RHS factor sweeps — keep the whole batch in
  // one fused sweep there.
  const std::size_t n_slices =
      maps::math::ThreadPool::is_worker_thread()
          ? 1
          : std::min<std::size_t>(out.size(),
                                  std::max<std::size_t>(1, maps::math::num_threads()));
  const std::size_t per_slice = (out.size() + n_slices - 1) / n_slices;
  // Exceptions must not escape into pool workers (the pool has no unwind
  // path); capture the first one and rethrow on the calling thread.
  std::mutex err_mu;
  std::string first_error;
  std::atomic<bool> need_fallback{false};
  maps::math::parallel_for(0, n_slices, [&](std::size_t s) {
    const std::size_t lo = s * per_slice;
    const std::size_t hi = std::min(out.size(), lo + per_slice);
    if (lo >= hi) return;
    try {
      std::vector<std::vector<cplx>> slice(std::make_move_iterator(out.begin() + lo),
                                           std::make_move_iterator(out.begin() + hi));
      if (mixed) {
        if (transposed) {
          split_f_->solve_transposed_multi_inplace(slice);
        } else {
          split_f_->solve_multi_inplace(slice);
        }
        if (!refine_batch(rhs.subspan(lo, hi - lo), slice, transposed)) {
          need_fallback.store(true);
        }
      } else {
        if (transposed) {
          split_->solve_transposed_multi_inplace(slice);
        } else {
          split_->solve_multi_inplace(slice);
        }
      }
      std::move(slice.begin(), slice.end(), out.begin() + lo);
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(err_mu);
      if (first_error.empty()) first_error = e.what();
    }
  });
  if (!first_error.empty()) throw MapsError(first_error);
  if (need_fallback.load()) {
    // Some slice's refinement stalled: build the double factors and
    // re-answer the whole batch on the exact path (rare, so the duplicated
    // work is acceptable; correctness over partially refined results).
    fall_back_to_double();
    solves_ -= static_cast<int>(rhs.size());  // the re-run recounts them
    return batch_solve_impl(rhs, transposed);
  }
  return out;
}

std::vector<std::vector<cplx>> DirectBandedBackend::solve_batch(
    std::span<const std::vector<cplx>> rhs) {
  return batch_solve_impl(rhs, /*transposed=*/false);
}

std::vector<std::vector<cplx>> DirectBandedBackend::solve_transposed_batch(
    std::span<const std::vector<cplx>> rhs) {
  return batch_solve_impl(rhs, /*transposed=*/true);
}

const fdfd::FdfdOperator& DirectBandedBackend::op() const {
  std::lock_guard<std::mutex> lock(op_mu_);
  if (!csr_op_) {
    csr_op_ = fdfd::assemble(spec_, eps_, omega_, pml_);
  }
  return *csr_op_;
}

std::size_t DirectBandedBackend::factor_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t bytes = 0;
  if (split_) bytes += split_->storage_bytes();
  if (split_f_) bytes += split_f_->storage_bytes();
  return bytes;
}

std::size_t DirectBandedBackend::estimate_factor_bytes(const grid::GridSpec& spec,
                                                       SolverPrecision precision) {
  const auto n = static_cast<std::size_t>(spec.cells());
  // kl = ku = bw, matching the assembler's rule: a single-row grid only
  // couples nearest neighbours along x, so its band collapses to width 1.
  const auto bw = static_cast<std::size_t>(spec.ny > 1 ? spec.nx : 1);
  const std::size_t ldab = 3 * bw + 1;  // 2*kl + ku + 1
  const std::size_t scalar =
      precision == SolverPrecision::Mixed ? sizeof(float) : sizeof(double);
  return 2 * ldab * n * scalar + n * sizeof(index_t);
}

}  // namespace maps::solver
