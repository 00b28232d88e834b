#ifndef HORNSAFE_UTIL_FAULT_H_
#define HORNSAFE_UTIL_FAULT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

namespace hornsafe {

/// The disk-tier fault classes the injector can produce. Each maps to a
/// concrete syscall-level failure mode of the PipelineCache disk tier:
///
///   kReadError   — the shard log cannot be read (EIO); transient.
///   kWriteError  — the append, or a Flush's fdatasync, fails with
///                  nothing written (EIO); transient.
///   kShortWrite  — only a prefix of the record reaches the file
///                  before the write fails; transient (the writer
///                  truncates the prefix away and retries).
///   kTornAppend  — only a strict prefix of a log record reaches the
///                  file and the writer does not notice (models a
///                  crash between the write and the Flush that would
///                  have synced the rest); persistent until the next
///                  store to that shard truncates the torn tail.
///   kBitFlip     — one bit of the read-back payload is flipped
///                  (models media corruption); the record checksum
///                  catches it and the reader drops the record.
///   kEnospc      — the filesystem is full (ENOSPC) at a store's write
///                  or at a Flush's fdatasync; persistent for that
///                  attempt, treated as a non-fatal skip.
///   kProcessKill — the process dies by SIGKILL at the wrap point
///                  (models a crash at that exact syscall: no
///                  destructors, no atexit handlers, held flocks
///                  dropped by the kernel). Drawn via MaybeCrash().
enum class FaultKind : uint8_t {
  kReadError = 0,
  kWriteError,
  kShortWrite,
  kTornAppend,
  kBitFlip,
  kEnospc,
  kProcessKill,
  kNumKinds,  // sentinel
};

const char* FaultKindName(FaultKind k);

/// Deterministic, process-wide fault injector for the disk tier.
///
/// Disabled (all probabilities zero) unless configured, so production
/// call sites pay one predicted-not-taken branch. Configuration comes
/// from `Configure(spec)` or the `HORNSAFE_FAULTS` environment variable
/// with the same syntax:
///
///   "read_error=0.1,bit_flip=0.05,seed=42"
///
/// Decisions are drawn from a seeded splitmix64 stream under a mutex,
/// so a given (spec, call sequence) always injects the same faults —
/// the serve soak compares a faulted run against a fault-free run and
/// needs the faulted run to be reproducible.
class FaultInjector {
 public:
  struct Counters {
    uint64_t injected[static_cast<size_t>(FaultKind::kNumKinds)] = {};
    uint64_t decisions = 0;
  };

  /// The process-wide injector used by the PipelineCache disk tier.
  /// Reads HORNSAFE_FAULTS once on first access.
  static FaultInjector& Global();

  FaultInjector() = default;

  /// Parses `spec` ("<kind>=<probability>,...,seed=<n>"); unknown keys
  /// or malformed numbers return false and leave the config unchanged.
  /// An empty spec disables injection.
  bool Configure(std::string_view spec);

  /// True when any fault has non-zero probability.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Draws one decision for `kind`. Never fires when disabled.
  ///
  /// Counter/injection parity contract: every decision that fires is
  /// counted exactly once in `counters().injected[kind]`, and every
  /// call site is wired so one fired decision surfaces in exactly one
  /// caller-side failure counter (see the parity tests in
  /// tests/util/fault_test and tests/core/cache_fault_test). Kinds
  /// with zero probability consume no random draw, so adding wrap
  /// points for a disabled kind never perturbs the decision sequence
  /// of an enabled one.
  bool ShouldInject(FaultKind kind);

  /// Draws kProcessKill and, when it fires, raises SIGKILL on the
  /// calling process — execution does not continue past this call. A
  /// kill is counted in `injected` before raising, but the counters
  /// die with the process; observers are the parent's waitpid status
  /// and the cache's crash-recovery path.
  void MaybeCrash();

  /// Flips one pseudo-randomly chosen bit of `*data` (no-op on empty).
  void CorruptOneBit(std::string* data);

  /// Deterministic truncation point for a torn write: a strict prefix
  /// length in [0, size).
  size_t TornLength(size_t size);

  Counters counters() const;
  void ResetCounters();

 private:
  uint64_t NextRandom();

  mutable std::mutex mu_;
  /// Atomic so the lock-free fast path in ShouldInject/enabled() can
  /// read it while Configure writes under mu_; relaxed is enough — a
  /// racing reconfigure may miss this one decision either way.
  std::atomic<bool> enabled_{false};
  double probability_[static_cast<size_t>(FaultKind::kNumKinds)] = {};
  uint64_t rng_state_ = 0x9e3779b97f4a7c15ULL;
  Counters counters_;
};

}  // namespace hornsafe

#endif  // HORNSAFE_UTIL_FAULT_H_
