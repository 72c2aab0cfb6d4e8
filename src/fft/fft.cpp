#include "fft/fft.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <memory>
#include <numbers>

#include "layout/bit_layout.hpp"
#include "layout/remap.hpp"
#include "util/bits.hpp"

namespace bsort::fft {

namespace {

constexpr std::size_t kWordsPerComplex = sizeof(Complex) / sizeof(std::uint32_t);

/// Twiddle W_{2^s}^k = exp(-+ 2 pi i k / 2^s).
Complex twiddle(std::uint64_t k, int s, bool inverse) {
  const double angle = (inverse ? 2.0 : -2.0) * std::numbers::pi *
                       static_cast<double>(k) / static_cast<double>(std::uint64_t{1} << s);
  return Complex(std::cos(angle), std::sin(angle));
}

/// Store `c` as kWordsPerComplex payload words at `words`.
void write_complex(std::uint32_t* words, const Complex& c) {
  const double parts[2] = {c.real(), c.imag()};
  std::memcpy(words, parts, sizeof(parts));
}

Complex read_complex(const std::uint32_t* words) {
  double parts[2];
  std::memcpy(parts, words, sizeof(parts));
  return Complex(parts[0], parts[1]);
}

/// The bit-reversal permutation as a layout: the element with natural
/// index A lands at global position rev(A), distributed blocked.
layout::BitLayout bit_reversal_layout(int log_n, int log_p) {
  const int total = log_n + log_p;
  std::vector<int> local(static_cast<std::size_t>(log_n));
  std::vector<int> proc(static_cast<std::size_t>(log_p));
  for (int i = 0; i < log_n; ++i) local[static_cast<std::size_t>(i)] = total - 1 - i;
  for (int j = 0; j < log_p; ++j) proc[static_cast<std::size_t>(j)] = log_p - 1 - j;
  return layout::BitLayout(std::move(local), std::move(proc));
}

/// Mask-plan remap for complex payloads (4 words per element).
void remap_complex(simd::Proc& p, const layout::BitLayout& from,
                   const layout::BitLayout& to, std::span<const Complex> in,
                   std::span<Complex> out) {
  assert(in.size() == out.size());
  const auto rank = static_cast<std::uint64_t>(p.rank());
  std::shared_ptr<const layout::MaskPlan> shared;
  std::vector<std::uint64_t> send_peers;
  std::vector<std::uint64_t> recv_peers;
  std::vector<std::size_t> sizes;
  p.timed(simd::Phase::kPack, [&] {
    shared = layout::mask_plan(from, to);
    const std::size_t G = shared->group_size();
    send_peers.resize(G);
    recv_peers.resize(G);
    sizes.resize(G);
    for (std::size_t o = 0; o < G; ++o) {
      send_peers[o] = layout::mask_plan_dest(from, to, *shared, rank, o);
      recv_peers[o] = layout::mask_plan_src(from, to, *shared, rank, o);
      // The kept portion is copied straight from `in` at unpack.
      sizes[o] = send_peers[o] == rank ? 0 : shared->message_size() * kWordsPerComplex;
    }
  });
  const layout::MaskPlan& plan = *shared;
  p.open_exchange(send_peers, sizes, recv_peers);
  p.timed(simd::Phase::kPack, [&] {
    for (std::size_t o = 0; o < plan.group_size(); ++o) {
      if (send_peers[o] == rank) continue;
      std::uint32_t* msg = p.send_slot(o).data();
      const std::uint32_t pat = plan.dest_pattern[o];
      for (std::size_t j = 0; j < plan.message_size(); ++j) {
        write_complex(msg + j * kWordsPerComplex, in[plan.kept_order[j] | pat]);
      }
    }
  });
  p.commit_exchange();

  p.timed(simd::Phase::kUnpack, [&] {
    const std::size_t M = plan.message_size();
    for (std::size_t o = 0; o < plan.group_size(); ++o) {
      const std::uint32_t spat = plan.src_pattern[o];
      if (recv_peers[o] == rank) {
        const auto self = std::find(send_peers.begin(), send_peers.end(), rank);
        assert(self != send_peers.end());
        const std::uint32_t dpat = plan.dest_pattern[self - send_peers.begin()];
        for (std::size_t j = 0; j < M; ++j) {
          out[plan.recv_order[j] | spat] = in[plan.kept_order[j] | dpat];
        }
      } else {
        const auto msg = p.recv_exact(o, M * kWordsPerComplex);
        for (std::size_t j = 0; j < M; ++j) {
          out[plan.recv_order[j] | spat] = read_complex(&msg[j * kWordsPerComplex]);
        }
      }
    }
  });
}

/// Butterfly stage s applied to positions g = g_of(l): pairs differ in
/// local bit (pair_bit); twiddle index k = g mod 2^(s-1).
template <class GOf>
void local_stage(std::span<Complex> a, int s, int pair_bit, bool inverse,
                 const GOf& g_of) {
  const std::uint64_t half = std::uint64_t{1} << pair_bit;
  const std::uint64_t kmask = (std::uint64_t{1} << (s - 1)) - 1;
  for (std::uint64_t l = 0; l < a.size(); ++l) {
    if ((l & half) != 0) continue;
    const std::uint64_t lp = l | half;
    const std::uint64_t k = g_of(l) & kmask;
    const Complex w = twiddle(k, s, inverse);
    const Complex u = a[l];
    const Complex t = w * a[lp];
    a[l] = u + t;
    a[lp] = u - t;
  }
}

}  // namespace

void reference_fft(std::span<Complex> data, bool inverse) {
  const std::size_t N = data.size();
  assert(util::is_pow2(N));
  const int logN = util::ilog2(N);
  // Bit-reversal permutation.
  for (std::size_t i = 0; i < N; ++i) {
    std::size_t r = 0;
    for (int b = 0; b < logN; ++b) r |= ((i >> b) & 1u) << (logN - 1 - b);
    if (i < r) std::swap(data[i], data[r]);
  }
  for (int s = 1; s <= logN; ++s) {
    local_stage(data, s, s - 1, inverse, [](std::uint64_t l) { return l; });
  }
}

std::vector<Complex> naive_dft(std::span<const Complex> in, bool inverse) {
  const std::size_t N = in.size();
  std::vector<Complex> out(N);
  for (std::size_t i = 0; i < N; ++i) {
    Complex acc = 0;
    for (std::size_t j = 0; j < N; ++j) {
      const double angle = (inverse ? 2.0 : -2.0) * std::numbers::pi *
                           static_cast<double>(i * j % N) / static_cast<double>(N);
      acc += in[j] * Complex(std::cos(angle), std::sin(angle));
    }
    out[i] = acc;
  }
  return out;
}

void parallel_fft(simd::Proc& p, std::span<Complex> local, bool inverse) {
  const auto rank = static_cast<std::uint64_t>(p.rank());
  const int log_p = util::ilog2(static_cast<std::uint64_t>(p.nprocs()));
  const int log_n = util::ilog2(local.size());
  assert(log_n >= log_p && "parallel FFT needs N >= P^2 for the single remap");
  const int logN = log_n + log_p;

  std::vector<Complex> buf(local.size());
  const std::span<Complex> other(buf.data(), buf.size());
  const auto blocked = layout::BitLayout::blocked(log_n, log_p);

  // Bit-reversal permutation (one remap); data is then indexed by the
  // post-reversal position g, distributed blocked.
  remap_complex(p, blocked, bit_reversal_layout(log_n, log_p), local, other);

  // First lg n stages: local under the blocked layout; g = rank*n + l.
  const std::uint64_t g_base = rank << log_n;
  p.timed(simd::Phase::kCompute, [&] {
    for (int s = 1; s <= log_n; ++s) {
      local_stage(other, s, s - 1, inverse,
                  [g_base](std::uint64_t l) { return g_base | l; });
    }
  });

  // Remap to cyclic: g bits [lgP, lgN) become local, covering the
  // remaining stages' compare bits [lg n, lg N).
  const auto cyclic = layout::BitLayout::cyclic(log_n, log_p);
  remap_complex(p, blocked, cyclic, other, local);
  p.timed(simd::Phase::kCompute, [&] {
    for (int s = log_n + 1; s <= logN; ++s) {
      // g = rank | (l << lgP); pair bit in local space is s-1-lgP.
      local_stage(local, s, s - 1 - log_p, inverse,
                  [rank, log_p](std::uint64_t l) { return rank | (l << log_p); });
    }
  });

  // Back to the blocked layout (natural spectrum order).
  remap_complex(p, cyclic, blocked, local, other);
  p.timed(simd::Phase::kCompute,
          [&] { std::copy(other.begin(), other.end(), local.begin()); });
}

void parallel_fft_blocked(simd::Proc& p, std::span<Complex> local, bool inverse) {
  const auto rank = static_cast<std::uint64_t>(p.rank());
  const int log_p = util::ilog2(static_cast<std::uint64_t>(p.nprocs()));
  const int log_n = util::ilog2(local.size());
  const int logN = log_n + log_p;

  std::vector<Complex> buf(local.size());
  const std::span<Complex> other(buf.data(), buf.size());
  const auto blocked = layout::BitLayout::blocked(log_n, log_p);
  remap_complex(p, blocked, bit_reversal_layout(log_n, log_p), local, other);
  std::copy(other.begin(), other.end(), local.begin());

  const std::uint64_t g_base = rank << log_n;
  p.timed(simd::Phase::kCompute, [&] {
    for (int s = 1; s <= log_n; ++s) {
      local_stage(local, s, s - 1, inverse,
                  [g_base](std::uint64_t l) { return g_base | l; });
    }
  });

  // Remote stages: exchange the whole slice with the partner, combine
  // element-wise (the butterfly analogue of Blocked-Merge).
  for (int s = log_n + 1; s <= logN; ++s) {
    const int rank_bit = s - 1 - log_n;
    const std::uint64_t partner = rank ^ (std::uint64_t{1} << rank_bit);
    const std::uint64_t peers[1] = {partner};
    const std::size_t sizes[1] = {local.size() * kWordsPerComplex};
    p.open_exchange(peers, sizes, peers);
    p.timed(simd::Phase::kPack, [&] {
      std::uint32_t* payload = p.send_slot(0).data();
      for (std::size_t l = 0; l < local.size(); ++l) {
        write_complex(payload + l * kWordsPerComplex, local[l]);
      }
    });
    p.commit_exchange();
    const auto msg = p.recv_exact(0, local.size() * kWordsPerComplex);
    p.timed(simd::Phase::kCompute, [&] {
      const bool upper = util::bit(rank, rank_bit) == 0;  // holds u
      const std::uint64_t kmask = (std::uint64_t{1} << (s - 1)) - 1;
      for (std::uint64_t l = 0; l < local.size(); ++l) {
        const Complex mine = local[l];
        const Complex theirs = read_complex(&msg[l * kWordsPerComplex]);
        const std::uint64_t g = g_base | l;
        const Complex w = twiddle(g & kmask, s, inverse);
        if (upper) {
          local[l] = mine + w * theirs;
        } else {
          local[l] = theirs - w * mine;
        }
      }
    });
  }
}

}  // namespace bsort::fft
