#include "localsort/compare_exchange.hpp"

#include <algorithm>
#include <array>
#include <cassert>

#include "kernel/kernel.hpp"
#include "util/bits.hpp"

namespace bsort::localsort {

// Block-oriented formulation: indices with 0 in the compare bit come in
// contiguous runs of length 2^pos (the pair partner run sits 2^pos
// later), so one network step is a sequence of block compare-exchanges.
// The direction logic is hoisted OUT of the inner loop: depending on
// where the direction bit sits relative to the compare bit it is either
// constant for the whole step, constant per block, or splits each block
// into alternating contiguous sub-runs — in every case the inner loop
// is a straight-line kernel call over contiguous memory.
void local_network_step(const layout::BitLayout& lay, std::uint64_t rank,
                        std::span<std::uint32_t> data, int stage, int step) {
  assert(data.size() == lay.local_size());
  const int pos = lay.local_pos_of(step - 1);
  assert(pos >= 0 && "compare bit must be local under this layout");
  const std::uint64_t half = std::uint64_t{1} << pos;

  // Direction: the merge containing absolute address A is ascending iff
  // bit `stage` of A is 0.  That bit is either constant on this processor
  // (a processor bit, or beyond lg N for the final stage) or varies with
  // one local bit.  It is never the compare bit itself (stage > step-1).
  int dir_pos = -1;  // local bit carrying the direction, if any
  bool const_ascending = true;
  if (stage < lay.log_total()) {
    if (lay.is_local_bit(stage)) {
      dir_pos = lay.local_pos_of(stage);
    } else {
      const_ascending = util::bit(lay.abs_of(rank, 0), stage) == 0;
    }
  }
  assert(dir_pos != pos);

  const auto& K = kernel::active();
  const std::uint64_t n = data.size();
  if (dir_pos < 0) {
    for (std::uint64_t base = 0; base < n; base += 2 * half) {
      K.cmpex_blocks(&data[base], &data[base + half], half, const_ascending);
    }
  } else if (dir_pos > pos) {
    // Direction bit above the compare bit: constant within each block.
    const std::uint64_t dbit = std::uint64_t{1} << dir_pos;
    for (std::uint64_t base = 0; base < n; base += 2 * half) {
      K.cmpex_blocks(&data[base], &data[base + half], half, (base & dbit) == 0);
    }
  } else {
    // Direction bit below the compare bit: each block splits into
    // alternating ascending/descending sub-runs of length 2^dir_pos.
    const std::uint64_t sub = std::uint64_t{1} << dir_pos;
    for (std::uint64_t base = 0; base < n; base += 2 * half) {
      for (std::uint64_t off = 0; off < half; off += sub) {
        K.cmpex_blocks(&data[base + off], &data[base + half + off], sub,
                       (off & sub) == 0);
      }
    }
  }
}

// Multi-step execution batches runs of columns into fused kernel
// sweeps.  All steps of one stage share one direction rule (the
// direction bit is absolute bit `stage`, above every compare bit of the
// stage), so any contiguous run of steps within a stage whose compare
// positions fit the fused tile (<= kernel::kMaxFusedPos) maps onto ONE
// cmpex_multistep call: the kernel loads each tile once, runs every
// column register/L1-blocked, and stores once.  A lone fusible column
// goes there too: at stride 1 with the direction bit above it, the
// block path would pay one kernel call per key pair.  Larger-stride
// columns run one at a time — those are long contiguous streaming
// passes already.  The single-step path above is the differential
// ground truth (tests force the scalar kernel through it and compare).
void local_network_steps(const layout::BitLayout& lay, std::uint64_t rank,
                         std::span<std::uint32_t> data, int stage, int step, int count) {
  const auto& K = kernel::active();
  std::array<int, 64> pos_buf;
  while (count > 0) {
    const int run = std::min(step, count);  // steps left in this stage
    for (int i = 0; i < run; ++i) {
      pos_buf[static_cast<std::size_t>(i)] = lay.local_pos_of(step - 1 - i);
      assert(pos_buf[static_cast<std::size_t>(i)] >= 0 &&
             "compare bit must be local under this layout");
    }
    // Direction rule for the whole stage (same derivation as
    // local_network_step).
    int dir_pos = -1;
    bool const_ascending = true;
    if (stage < lay.log_total()) {
      if (lay.is_local_bit(stage)) {
        dir_pos = lay.local_pos_of(stage);
      } else {
        const_ascending = util::bit(lay.abs_of(rank, 0), stage) == 0;
      }
    }
    int i = 0;
    while (i < run) {
      if (pos_buf[static_cast<std::size_t>(i)] > kernel::kMaxFusedPos) {
        local_network_step(lay, rank, data, stage, step - i);
        ++i;
        continue;
      }
      int j = i + 1;
      while (j < run && pos_buf[static_cast<std::size_t>(j)] <= kernel::kMaxFusedPos) {
        ++j;
      }
      K.cmpex_multistep(data.data(), data.size(), pos_buf.data() + i, j - i, dir_pos,
                        const_ascending);
      i = j;
    }
    count -= run;
    step -= run;
    if (step == 0) {
      ++stage;
      step = stage;
    }
  }
}

}  // namespace bsort::localsort
