#ifndef HORNSAFE_UTIL_PROC_H_
#define HORNSAFE_UTIL_PROC_H_

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/status.h"

namespace hornsafe {

/// RAII advisory lock (flock) on a lock file. The kernel releases the
/// lock when the holding process dies — even via SIGKILL — which is
/// what makes it the right primitive for crash-safe multi-process
/// cache coordination: a writer that is killed mid-store can never
/// leave a shard locked. The lock file itself is never deleted
/// (deleting the inode would split concurrent lockers across two
/// inodes).
class FileLock {
 public:
  FileLock() = default;
  ~FileLock() { Release(); }
  FileLock(FileLock&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  FileLock& operator=(FileLock&& other) noexcept {
    if (this != &other) {
      Release();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

  /// Acquires LOCK_EX, blocking until the incumbent releases. Creates
  /// the lock file if missing. Errors only on open/flock syscall
  /// failure (not contention).
  static Result<FileLock> Acquire(const std::string& path);

  /// Non-blocking acquire: on contention returns an un-held lock
  /// (`held() == false`) rather than an error, so a compactor can
  /// skip a pass another process is already running.
  static Result<FileLock> TryAcquire(const std::string& path);

  bool held() const { return fd_ >= 0; }

  /// Releases the lock (no-op when not held).
  void Release();

 private:
  explicit FileLock(int fd) : fd_(fd) {}
  int fd_ = -1;
};

// --- Subprocess helpers (fleet driver) ---------------------------------

struct SpawnOptions {
  /// Extra "KEY=VALUE" entries appended to the inherited environment
  /// (later entries win for duplicate keys, per execvpe semantics).
  std::vector<std::string> extra_env;
  /// Redirect the child's stdout/stderr to these files (append mode);
  /// empty inherits the parent's descriptors.
  std::string stdout_path;
  std::string stderr_path;
};

/// fork/execs `argv` (argv[0] is the executable path). Returns the
/// child pid; the caller must reap it with WaitProcess.
Result<pid_t> SpawnProcess(const std::vector<std::string>& argv,
                           const SpawnOptions& options = {});

struct WaitResult {
  bool exited = false;  ///< normal exit; `exit_code` is valid
  int exit_code = -1;
  bool signaled = false;  ///< killed by signal; `term_signal` is valid
  int term_signal = 0;
};

/// Blocks until `pid` terminates and reaps it.
Result<WaitResult> WaitProcess(pid_t pid);

/// Non-blocking poll: nullopt while `pid` is still running, the reaped
/// status once it has terminated.
Result<std::optional<WaitResult>> PollProcess(pid_t pid);

/// Sends SIGKILL (best-effort; the caller still reaps via WaitProcess).
void KillProcess(pid_t pid);

/// Path of the running executable (readlink /proc/self/exe), or
/// `fallback` when unreadable.
std::string SelfExePath(const std::string& fallback = "");

}  // namespace hornsafe

#endif  // HORNSAFE_UTIL_PROC_H_
