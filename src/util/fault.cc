#include "util/fault.h"

#include <signal.h>
#include <unistd.h>

#include <cstdlib>

#include "util/rng.h"

namespace hornsafe {
namespace {

const char* kKindKeys[] = {
    "read_error", "write_error", "short_write",  "torn_append",
    "bit_flip",   "enospc",      "process_kill",
};
static_assert(sizeof(kKindKeys) / sizeof(kKindKeys[0]) ==
                  static_cast<size_t>(FaultKind::kNumKinds),
              "key table out of sync with FaultKind");

/// Parses a probability in [0, 1]; returns false on garbage.
bool ParseProbability(std::string_view text, double* out) {
  std::string buf(text);
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (end == buf.c_str() || *end != '\0' || v < 0.0 || v > 1.0) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

const char* FaultKindName(FaultKind k) {
  size_t i = static_cast<size_t>(k);
  return i < static_cast<size_t>(FaultKind::kNumKinds) ? kKindKeys[i] : "?";
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = [] {
    auto* inj = new FaultInjector();
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read once, inside the
    // magic-static initializer, before any worker threads exist.
    if (const char* spec = std::getenv("HORNSAFE_FAULTS")) {
      inj->Configure(spec);
    }
    return inj;
  }();
  return *injector;
}

bool FaultInjector::Configure(std::string_view spec) {
  double probs[static_cast<size_t>(FaultKind::kNumKinds)] = {};
  uint64_t seed = 0x9e3779b97f4a7c15ULL;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    std::string_view item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    size_t eq = item.find('=');
    if (eq == std::string_view::npos) return false;
    std::string_view key = item.substr(0, eq);
    std::string_view value = item.substr(eq + 1);
    if (key == "seed") {
      std::string buf(value);
      char* end = nullptr;
      unsigned long long s = std::strtoull(buf.c_str(), &end, 10);
      if (end == buf.c_str() || *end != '\0') return false;
      seed = s;
      continue;
    }
    bool known = false;
    for (size_t k = 0; k < static_cast<size_t>(FaultKind::kNumKinds); ++k) {
      if (key == kKindKeys[k]) {
        if (!ParseProbability(value, &probs[k])) return false;
        known = true;
        break;
      }
    }
    if (!known) return false;
  }

  std::lock_guard<std::mutex> lock(mu_);
  bool any = false;
  for (size_t k = 0; k < static_cast<size_t>(FaultKind::kNumKinds); ++k) {
    probability_[k] = probs[k];
    any |= probs[k] > 0.0;
  }
  enabled_.store(any, std::memory_order_relaxed);
  rng_state_ = seed;
  return true;
}

uint64_t FaultInjector::NextRandom() {
  // SplitMix64 step (mu_ held by the caller).
  Rng rng(rng_state_);
  uint64_t v = rng.Next();
  rng_state_ += 0x9e3779b97f4a7c15ULL;
  return v;
}

bool FaultInjector::ShouldInject(FaultKind kind) {
  if (!enabled_.load(std::memory_order_relaxed)) return false;
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.decisions;
  size_t i = static_cast<size_t>(kind);
  if (probability_[i] <= 0.0) return false;
  double draw =
      static_cast<double>(NextRandom() >> 11) * (1.0 / (1ULL << 53));
  if (draw >= probability_[i]) return false;
  ++counters_.injected[i];
  return true;
}

void FaultInjector::MaybeCrash() {
  if (!ShouldInject(FaultKind::kProcessKill)) return;
  // SIGKILL cannot be caught: the process ends at this syscall exactly
  // as a real crash would — no flushing, no destructors. Held flocks
  // are released by the kernel; everything else is the crash-recovery
  // path's problem.
  ::kill(::getpid(), SIGKILL);
  // Not reached (but keeps the compiler honest if kill ever fails).
  std::abort();
}

void FaultInjector::CorruptOneBit(std::string* data) {
  if (data->empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t bit = NextRandom() % (data->size() * 8);
  (*data)[bit / 8] ^= static_cast<char>(1u << (bit % 8));
}

size_t FaultInjector::TornLength(size_t size) {
  if (size == 0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<size_t>(NextRandom() % size);
}

FaultInjector::Counters FaultInjector::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void FaultInjector::ResetCounters() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_ = Counters();
}

}  // namespace hornsafe
