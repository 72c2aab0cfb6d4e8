// Barrier-protocol stress: many VPs, randomized per-VP host delays, and
// repeated run() calls on one Machine, mixing all-to-all and pairwise
// pooled exchanges.  The assertions are deliberately about
// protocol correctness (right payloads, right sizes, machine reusable),
// not timing; the interesting part is what ThreadSanitizer sees.  Build
// with -DBSORT_SANITIZE=thread and run this binary to validate the
// happens-before edges of the arena/mailbox protocol.
#include <gtest/gtest.h>

#include <chrono>
#include <numeric>
#include <random>
#include <thread>

#include "loggp/params.hpp"
#include "simd/machine.hpp"
#include "test_helpers.hpp"

namespace bsort::simd {
namespace {

TEST(MachineStress, RepeatedRunsRandomDelaysAllToAll) {
  const int P = 16;
  Machine m(P, loggp::meiko_cs2(), MessageMode::kLong);
  std::vector<std::uint64_t> peers(P);
  std::iota(peers.begin(), peers.end(), 0);

  for (int round = 0; round < 6; ++round) {
    auto rep = m.run([&](Proc& p) {
      // Deterministic per-(rank, round) stream; only host scheduling is
      // randomized, so failures reproduce.
      std::mt19937 rng(static_cast<unsigned>(p.rank() * 7919 + round * 104729));
      std::uniform_int_distribution<int> delay_us(0, 40);

      for (int step = 0; step < 10; ++step) {
        // Jitter barrier arrival order.
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us(rng)));

        // Pooled all-to-all: rank r sends (r + step) % 5 copies of the
        // value r*31 + step to everyone (self included).
        std::vector<std::size_t> sizes(
            P, static_cast<std::size_t>((p.rank() + step) % 5));
        p.open_exchange(peers, sizes, peers);
        for (int d = 0; d < P; ++d) {
          auto slot = p.send_slot(static_cast<std::size_t>(d));
          std::fill(slot.begin(), slot.end(),
                    static_cast<std::uint32_t>(p.rank() * 31 + step));
        }
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us(rng)));
        p.commit_exchange();
        for (int s = 0; s < P; ++s) {
          const auto v = p.recv_view(static_cast<std::size_t>(s));
          ASSERT_EQ(v.size(), static_cast<std::size_t>((s + step) % 5));
          for (const auto x : v) {
            ASSERT_EQ(x, static_cast<std::uint32_t>(s * 31 + step));
          }
        }

        // Interleave a pairwise exchange on even steps (a different
        // pattern reusing the same arenas and mailbox cells).
        if (step % 2 == 0) {
          const auto partner = static_cast<std::uint64_t>(p.rank() ^ 1);
          const std::uint32_t payload[2] = {static_cast<std::uint32_t>(p.rank()),
                                            static_cast<std::uint32_t>(step)};
          const auto got = testing::swap_with(p, partner, payload);
          ASSERT_EQ(got.size(), 2u);
          ASSERT_EQ(got[0], static_cast<std::uint32_t>(partner));
          ASSERT_EQ(got[1], static_cast<std::uint32_t>(step));
        }
        p.barrier();
      }
    });
    EXPECT_EQ(rep.proc_us.size(), static_cast<std::size_t>(P));
    // 10 all-to-all + 5 pairwise exchanges per VP per run.
    for (const auto& c : rep.proc_comm) EXPECT_EQ(c.exchanges, 15u);
  }
}

TEST(MachineStress, PoisonUnderLoadThenRecover) {
  // A random VP dies mid-protocol each round; the rest must unwind from
  // whatever barrier they are parked in, and the next (healthy) run on
  // the same Machine must behave normally.
  const int P = 16;
  Machine m(P, loggp::meiko_cs2(), MessageMode::kLong);
  std::vector<std::uint64_t> peers(P);
  std::iota(peers.begin(), peers.end(), 0);

  for (int round = 0; round < 4; ++round) {
    const int victim = (round * 5) % P;
    EXPECT_THROW(
        m.run([&](Proc& p) {
          std::mt19937 rng(static_cast<unsigned>(p.rank() + round));
          std::uniform_int_distribution<int> delay_us(0, 30);
          for (int step = 0; step < 4; ++step) {
            std::this_thread::sleep_for(std::chrono::microseconds(delay_us(rng)));
            if (p.rank() == victim && step == 2) {
              throw std::runtime_error("victim died");
            }
            const std::vector<std::size_t> sizes(P, 3);
            p.open_exchange(peers, sizes, peers);
            for (int d = 0; d < P; ++d) {
              auto slot = p.send_slot(static_cast<std::size_t>(d));
              std::fill(slot.begin(), slot.end(), 0u);
            }
            p.commit_exchange();
          }
        }),
        std::runtime_error);

    m.run([&](Proc& p) {
      const std::vector<std::size_t> sizes(P, 1);
      p.open_exchange(peers, sizes, peers);
      for (int d = 0; d < P; ++d) {
        p.send_slot(static_cast<std::size_t>(d))[0] =
            static_cast<std::uint32_t>(p.rank());
      }
      p.commit_exchange();
      for (int s = 0; s < P; ++s) {
        ASSERT_EQ(p.recv_view(static_cast<std::size_t>(s))[0],
                  static_cast<std::uint32_t>(s));
      }
    });
  }
}

}  // namespace
}  // namespace bsort::simd
