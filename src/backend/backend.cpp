#include "backend/backend.hpp"

#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string_view>

#include "fault/error.hpp"
#include "loggp/cost.hpp"
#include "util/clock.hpp"

namespace bsort::backend {

namespace {

class SimulatedBackend final : public Backend {
 public:
  [[nodiscard]] Kind kind() const override { return Kind::kSimulated; }
  [[nodiscard]] const char* name() const override { return "simulated"; }
  [[nodiscard]] bool measured() const override { return false; }

  double collect(const ExchangeDesc& x,
                 std::span<std::span<const std::uint32_t>> /*views*/,
                 std::size_t /*self_view*/,
                 std::vector<std::uint32_t>& /*recv_arena*/) const override {
    if (x.elements == 0) return 0;
    return x.long_messages
               ? loggp::remap_time_long(*x.params, x.elements, x.messages,
                                        x.elem_bytes)
               : loggp::remap_time_short(*x.params, x.elements);
  }
};

class NativeBackend final : public Backend {
 public:
  [[nodiscard]] Kind kind() const override { return Kind::kNative; }
  [[nodiscard]] const char* name() const override { return "native"; }
  [[nodiscard]] bool measured() const override { return true; }

  double collect(const ExchangeDesc& /*x*/,
                 std::span<std::span<const std::uint32_t>> views,
                 std::size_t self_view,
                 std::vector<std::uint32_t>& recv_arena) const override {
    std::size_t total = 0;
    for (std::size_t i = 0; i < views.size(); ++i) {
      if (i == self_view) continue;
      total += views[i].size();
    }
    // Nothing to move, nothing to charge — on EITHER backend an empty
    // exchange costs zero, so "charges nothing" tests hold natively
    // (and clock-call noise never leaks into an empty exchange).
    if (total == 0) return 0;
    // Sizing the arena is allocator bookkeeping, not data movement:
    // keep it outside the measured window.  In steady state the arena
    // has reached its high-water mark and resize touches nothing.
    recv_arena.resize(total);
    const double t0 = util::thread_cpu_us();
    std::size_t off = 0;
    for (std::size_t i = 0; i < views.size(); ++i) {
      if (i == self_view || views[i].empty()) continue;
      std::memcpy(recv_arena.data() + off, views[i].data(),
                  views[i].size() * sizeof(std::uint32_t));
      views[i] = {recv_arena.data() + off, views[i].size()};
      off += views[i].size();
    }
    const double dt = util::thread_cpu_us() - t0;
    // A clock hiccup (thread-CPU accounting quirks under migration) must
    // never charge negative time to the simulated clock.
    return dt > 0 ? dt : 0;
  }
};

}  // namespace

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kSimulated:
      return "simulated";
    case Kind::kNative:
      return "native";
  }
  return "?";
}

Kind kind_from_env(Kind fallback) {
  const char* env = std::getenv("BSORT_BACKEND");
  if (env == nullptr || env[0] == '\0') return fallback;
  const std::string_view v(env);
  if (v == "simulated") return Kind::kSimulated;
  if (v == "native") return Kind::kNative;
  std::ostringstream os;
  os << "BSORT_BACKEND=" << v
     << " is not a backend (expected \"simulated\" or \"native\")";
  throw ConfigError(os.str());
}

std::unique_ptr<Backend> make_simulated() {
  return std::make_unique<SimulatedBackend>();
}

std::unique_ptr<Backend> make_native() { return std::make_unique<NativeBackend>(); }

std::unique_ptr<Backend> make(Kind k) {
  return k == Kind::kNative ? make_native() : make_simulated();
}

}  // namespace bsort::backend
