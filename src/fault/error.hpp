// Structured error hierarchy for the whole library.
//
// Every failure the simulator can diagnose is reported as a subtype of
// bsort::Error carrying machine-readable context (which VP raised it,
// at which exchange/remap ordinal) in addition to a human-readable
// what() that embeds the same context.  The subtypes:
//
//   * ConfigError    — caller broke an API contract (invalid machine
//                      shape, a barrier/exchange inside Proc::timed,
//                      algorithm shape constraints, ...);
//   * ExchangeError  — a malformed or injected-fault exchange
//                      (mismatched peer/size lists, out-of-range or
//                      duplicate peers, commit without open, a
//                      FaultPlan crash rule firing);
//   * IntegrityError — received bytes disagree with what the sender
//                      sealed (checksum or size mismatch under
//                      Machine::enable_integrity), or parallel_sort's
//                      self-check found unsorted/non-permutation output;
//   * BarrierTimeout — the barrier watchdog expired and poisoned the
//                      run; carries a per-VP snapshot (rank, last
//                      protocol step, exchange ordinal, simulated clock)
//                      of where every VP was stuck.
//
// All of these derive from std::runtime_error, so pre-existing callers
// that catch std::runtime_error (or std::exception) keep working.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace bsort {

/// Where an error was raised: -1 means "unknown / not applicable".
struct ErrorContext {
  int rank = -1;               ///< VP that raised the error
  std::int64_t exchange = -1;  ///< exchange ordinal on that VP (0-based)
  std::int64_t remap = -1;     ///< remap ordinal (only when recording is on)
};

class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what, ErrorContext ctx = {});
  [[nodiscard]] const ErrorContext& context() const { return ctx_; }
  [[nodiscard]] int rank() const { return ctx_.rank; }
  [[nodiscard]] std::int64_t exchange_ordinal() const { return ctx_.exchange; }

 private:
  ErrorContext ctx_;
};

class ConfigError : public Error {
 public:
  using Error::Error;
};

class ExchangeError : public Error {
 public:
  ExchangeError(const std::string& what, ErrorContext ctx = {},
                std::int64_t peer = -1, std::int64_t slot = -1);
  [[nodiscard]] std::int64_t peer() const { return peer_; }
  [[nodiscard]] std::int64_t slot() const { return slot_; }

 private:
  std::int64_t peer_;
  std::int64_t slot_;
};

class IntegrityError : public Error {
 public:
  IntegrityError(const std::string& what, ErrorContext ctx = {},
                 std::int64_t sender = -1, std::int64_t slot = -1);
  /// VP whose payload failed verification (receiver is context().rank).
  [[nodiscard]] std::int64_t sender() const { return sender_; }
  [[nodiscard]] std::int64_t slot() const { return slot_; }

 private:
  std::int64_t sender_;
  std::int64_t slot_;
};

class BarrierTimeout : public Error {
 public:
  /// One VP's state at the moment the watchdog expired.  `where` is a
  /// static string naming the last protocol step the VP published
  /// ("barrier", "open_exchange", "commit_exchange", "timed", ...).
  /// When the span profiler's stack is armed (it always is while a
  /// watchdog runs), `span`/`span_arg` name the innermost open
  /// structural span ("remap" 3, "merge" 5, ...) and `leaf` the leaf
  /// phase inside it ("unpack", "barrier-wait", ...), so the message
  /// reads "stuck in remap 3 / unpack".  Null when no span was open.
  struct VpSnapshot {
    int rank = -1;
    const char* where = "?";
    std::uint64_t exchanges = 0;  ///< exchanges committed so far
    double clock_us = 0;          ///< simulated clock when last published
    const char* span = nullptr;   ///< innermost open structural span
    std::int64_t span_arg = -1;   ///< its arg (remap ordinal / stage)
    const char* leaf = nullptr;   ///< innermost open leaf span

    /// Trace ID of the service request whose batch item this VP was
    /// serving when the watchdog expired (api::Config::batch_item_ids);
    /// 0 when the run was not dispatched by the service or the VP's
    /// owner cannot be determined uniquely.  Rendered as
    /// ", serving request 0x..." in what().
    std::uint64_t owner = 0;
  };

  BarrierTimeout(double deadline_seconds, std::vector<VpSnapshot> states);
  [[nodiscard]] double deadline_seconds() const { return deadline_seconds_; }
  [[nodiscard]] const std::vector<VpSnapshot>& states() const { return states_; }

 private:
  double deadline_seconds_;
  std::vector<VpSnapshot> states_;
};

}  // namespace bsort
