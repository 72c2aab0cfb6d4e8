#include "trace/fit.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "trace/validate.hpp"

namespace bsort::trace {

namespace {

/// Solve the k x k system M x = y in place by Gaussian elimination with
/// partial pivoting.  Returns false when the pivot underflows (singular
/// design, e.g. a column that is identically zero).
bool solve_inplace(int k, std::array<std::array<double, 3>, 3>& M,
                   std::array<double, 3>& y, std::array<double, 3>& x) {
  for (int col = 0; col < k; ++col) {
    int piv = col;
    for (int r = col + 1; r < k; ++r) {
      if (std::abs(M[r][col]) > std::abs(M[piv][col])) piv = r;
    }
    if (std::abs(M[piv][col]) < 1e-12) return false;
    std::swap(M[col], M[piv]);
    std::swap(y[col], y[piv]);
    for (int r = col + 1; r < k; ++r) {
      const double f = M[r][col] / M[col][col];
      for (int c = col; c < k; ++c) M[r][c] -= f * M[col][c];
      y[r] -= f * y[col];
    }
  }
  for (int r = k - 1; r >= 0; --r) {
    double s = y[r];
    for (int c = r + 1; c < k; ++c) s -= M[r][c] * x[c];
    x[r] = s / M[r][r];
  }
  return true;
}

}  // namespace

FitResult fit_params(const simd::Machine& m, double known_o, int elem_bytes) {
  const bool long_mode = m.mode() == simd::MessageMode::kLong;
  const int k = long_mode ? 3 : 2;

  // Accumulate the normal equations (A^T A) x = A^T b directly — rows
  // never need to be materialized.  Row layout:
  //   long:  [1, V - M, M - 1] . (a, Ge, g) = charged    (Ge = G*bytes)
  //   short: [1, V - 1]        . (a, g)     = charged
  std::array<std::array<double, 3>, 3> ata{};
  std::array<double, 3> atb{};
  std::size_t rows = 0;
  for (int r = 0; r < m.nprocs(); ++r) {
    for_each_exchange(m.vp_spans(r), [&](const obs::SpanRecord& e, const PhaseDelta&) {
      if (e.elements == 0) return;  // nothing transmitted, nothing charged
      std::array<double, 3> row{1.0, 0.0, 0.0};
      if (long_mode) {
        row[1] = static_cast<double>(e.elements - e.messages);
        row[2] = static_cast<double>(e.messages) - 1.0;
      } else {
        row[1] = static_cast<double>(e.elements) - 1.0;
      }
      for (int a = 0; a < k; ++a) {
        for (int b = 0; b < k; ++b) ata[a][b] += row[a] * row[b];
        atb[a] += row[a] * e.sim_us();
      }
      ++rows;
    });
  }
  if (rows < static_cast<std::size_t>(k)) {
    throw std::invalid_argument("fit_params: fewer trace rows than unknowns");
  }
  std::array<double, 3> x{};
  if (!solve_inplace(k, ata, atb, x)) {
    throw std::invalid_argument(
        "fit_params: singular design (need exchanges with distinct V and, in long "
        "mode, at least two distinct message counts)");
  }

  FitResult fit;
  fit.long_mode = long_mode;
  fit.events = rows;
  fit.params.o = known_o;
  fit.params.L = x[0] - 2.0 * known_o;
  fit.params.g = long_mode ? x[2] : x[1];
  fit.params.G = long_mode ? x[1] / static_cast<double>(elem_bytes) : 0.0;

  // Residual audit: the machine charges the same formulas, so on clean
  // records the fit should be exact to rounding.
  for (int r = 0; r < m.nprocs(); ++r) {
    for_each_exchange(m.vp_spans(r), [&](const obs::SpanRecord& e, const PhaseDelta&) {
      if (e.elements == 0) return;
      const double V = static_cast<double>(e.elements);
      const double M = static_cast<double>(e.messages);
      const double pred =
          long_mode ? x[0] + x[1] * (V - M) + x[2] * (M - 1.0) : x[0] + x[1] * (V - 1.0);
      const double charged = e.sim_us();
      const double denom = std::max(std::abs(charged), 1e-12);
      fit.max_rel_residual =
          std::max(fit.max_rel_residual, std::abs(pred - charged) / denom);
    });
  }
  return fit;
}

FitResult calibrate(simd::Machine& m, double known_o, int elem_bytes) {
  const bool long_mode = m.mode() == simd::MessageMode::kLong;
  if (m.nprocs() < (long_mode ? 4 : 2)) {
    throw std::invalid_argument(
        "calibrate: need >= 2 procs (>= 4 in long mode to identify g)");
  }
  const bool was_recording = m.profiling();
  if (!was_recording) m.enable_profiling(64);

  m.run([](simd::Proc& p) {
    const auto me = static_cast<std::uint64_t>(p.rank());
    const auto P = static_cast<std::uint64_t>(p.nprocs());
    // Pairwise exchanges (M = 1): vary V to pin the per-element slope.
    for (const std::size_t sz : {std::size_t{16}, std::size_t{64}, std::size_t{256},
                                 std::size_t{1024}}) {
      const std::uint64_t peers[1] = {me ^ 1};
      const std::size_t sizes[1] = {sz};
      p.open_exchange(peers, sizes, peers);
      auto slot = p.send_slot(0);
      std::fill(slot.begin(), slot.end(), 0xC0FFEEu);
      p.commit_exchange();
    }
    // All-to-all exchanges (M = P - 1): a second message count so the
    // long-mode fit can separate g from L + 2o.
    std::vector<std::uint64_t> all(P);
    std::iota(all.begin(), all.end(), 0);
    for (const std::size_t sz : {std::size_t{16}, std::size_t{64}, std::size_t{256}}) {
      const std::vector<std::size_t> sizes(P, sz);
      p.open_exchange(all, sizes, all);
      for (std::uint64_t d = 0; d < P; ++d) {
        auto slot = p.send_slot(d);
        std::fill(slot.begin(), slot.end(), 0xC0FFEEu);
      }
      p.commit_exchange();
    }
  });

  try {
    FitResult fit = fit_params(m, known_o, elem_bytes);
    if (!was_recording) m.disable_profiling();
    return fit;
  } catch (...) {
    if (!was_recording) m.disable_profiling();
    throw;
  }
}

}  // namespace bsort::trace
