// Ablation for Lemma 5: per-processor transfer volume of the HeadRemap,
// TailRemap and MiddleRemap shift strategies, model (schedule layouts) vs
// measured (simulated machine), across regimes where they differ.  Exits
// non-zero when a measured volume differs from the model or the Lemma 5
// ordering V_tail <= V_head < V_middle1 fails.
#include <iostream>

#include "bench_common.hpp"
#include "bitonic/sorts.hpp"
#include "schedule/formulas.hpp"
#include "schedule/smart_schedule.hpp"
#include "util/table.hpp"

int main() {
  using namespace bsort;
  std::cout << "=== Lemma 5: remap shift strategies (volume per processor, in "
               "keys) ===\n\n";

  bool ok = true;
  util::Table t({"lg n", "lg P", "rem", "Head", "Tail", "Middle1", "Middle2",
                 "Tail<=Head", "measured Head", "measured Tail"});
  for (auto [log_n, log_p] :
       {std::pair{8, 4}, {9, 4}, {11, 5}, {12, 5}, {13, 5}, {10, 4}}) {
    // first_chunk = 0 is HeadRemap, = rem is TailRemap; MiddleRemap1
    // splits the remainder, MiddleRemap2 starts just above it.
    const int rem = schedule::remaining_steps(log_n, log_p);
    const auto model = [&](int first_chunk) {
      return schedule::schedule_volume_per_proc(
          schedule::make_smart_schedule(log_n, log_p, first_chunk));
    };
    const auto v_head = model(0);
    const auto v_tail = model(rem);
    const auto v_m1 = rem > 1 ? model(rem / 2) : 0;
    const auto v_m2 = (rem > 0 && rem < log_n - 1) ? model(rem + 1) : 0;

    const int P = 1 << log_p;
    const std::size_t n = std::size_t{1} << log_n;
    const auto measured = [&](int first_chunk) {
      const auto r = bench::run_blocked_sort(
          n * static_cast<std::size_t>(P), P, simd::MessageMode::kLong, 1.0,
          [&](simd::Proc& p, std::span<std::uint32_t> s) {
            bitonic::smart_sort(p, s, first_chunk);
          });
      if (!r.ok) {
        std::cerr << "ERROR: unsorted output (lg n " << log_n << ", lg P " << log_p
                  << ", first_chunk " << first_chunk << ")\n";
        ok = false;
      }
      return r.comm.elements_sent / static_cast<std::uint64_t>(P);
    };
    const auto mh = measured(0);
    const auto mt = measured(rem);

    const auto check = [&](bool holds, const char* what) {
      if (holds) return;
      std::cerr << "FAIL: lg n " << log_n << ", lg P " << log_p << ": " << what << "\n";
      ok = false;
    };
    check(mh == v_head, "measured Head volume differs from the model");
    check(mt == v_tail, "measured Tail volume differs from the model");
    check(v_tail <= v_head, "V_tail > V_head");
    if (rem > 1) check(v_m1 > v_head, "V_middle1 <= V_head");

    t.add_row({std::to_string(log_n), std::to_string(log_p), std::to_string(rem),
               std::to_string(v_head), std::to_string(v_tail),
               v_m1 ? std::to_string(v_m1) : "-", v_m2 ? std::to_string(v_m2) : "-",
               v_tail <= v_head ? "yes" : "NO", std::to_string(mh), std::to_string(mt)});
  }
  t.print(std::cout);
  std::cout << "\nLemma 5 shape: V_tail <= V_head < V_middle1 and V_tail <= "
               "V_middle2; measured volumes equal the model exactly.\n";
  return ok ? 0 : 1;
}
