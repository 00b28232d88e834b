#include "util/proc.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/strings.h"

extern char** environ;

namespace hornsafe {
namespace {

std::string ErrnoText(const char* what) {
  return StrCat(what, ": ", std::strerror(errno));
}

int OpenLockFile(const std::string& path) {
  // O_CREAT without O_EXCL: every locker must converge on one inode.
  return ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
}

}  // namespace

Result<FileLock> FileLock::Acquire(const std::string& path) {
  int fd = OpenLockFile(path);
  if (fd < 0) return Status::Unavailable(ErrnoText("open lock file"));
  int rc;
  do {
    rc = ::flock(fd, LOCK_EX);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    ::close(fd);
    return Status::Unavailable(ErrnoText("flock"));
  }
  return FileLock(fd);
}

Result<FileLock> FileLock::TryAcquire(const std::string& path) {
  int fd = OpenLockFile(path);
  if (fd < 0) return Status::Unavailable(ErrnoText("open lock file"));
  int rc;
  do {
    rc = ::flock(fd, LOCK_EX | LOCK_NB);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    ::close(fd);
    if (errno == EWOULDBLOCK || errno == EAGAIN) return FileLock();  // busy
    return Status::Unavailable(ErrnoText("flock"));
  }
  return FileLock(fd);
}

void FileLock::Release() {
  if (fd_ < 0) return;
  // close() drops the flock with it.
  ::close(fd_);
  fd_ = -1;
}

Result<pid_t> SpawnProcess(const std::vector<std::string>& argv,
                           const SpawnOptions& options) {
  if (argv.empty()) return Status::Internal("empty argv");

  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);

  std::vector<char*> cenv;
  if (!options.extra_env.empty()) {
    for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
      cenv.push_back(*e);
    }
    for (const std::string& e : options.extra_env) {
      cenv.push_back(const_cast<char*>(e.c_str()));
    }
    cenv.push_back(nullptr);
  }

  pid_t pid = ::fork();
  if (pid < 0) return Status::Unavailable(ErrnoText("fork"));
  if (pid == 0) {
    // Child: redirect, then exec. Only async-signal-safe calls here.
    if (!options.stdout_path.empty()) {
      int fd = ::open(options.stdout_path.c_str(),
                      O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::close(fd);
      }
    }
    if (!options.stderr_path.empty()) {
      int fd = ::open(options.stderr_path.c_str(),
                      O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDERR_FILENO);
        ::close(fd);
      }
    }
    if (cenv.empty()) {
      ::execv(cargv[0], cargv.data());
    } else {
      ::execve(cargv[0], cargv.data(), cenv.data());
    }
    ::_exit(127);
  }
  return pid;
}

namespace {

WaitResult DecodeStatus(int status) {
  WaitResult out;
  if (WIFEXITED(status)) {
    out.exited = true;
    out.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    out.signaled = true;
    out.term_signal = WTERMSIG(status);
  }
  return out;
}

}  // namespace

Result<WaitResult> WaitProcess(pid_t pid) {
  int status = 0;
  pid_t rc;
  do {
    rc = ::waitpid(pid, &status, 0);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) return Status::Unavailable(ErrnoText("waitpid"));
  return DecodeStatus(status);
}

Result<std::optional<WaitResult>> PollProcess(pid_t pid) {
  int status = 0;
  pid_t rc;
  do {
    rc = ::waitpid(pid, &status, WNOHANG);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) return Status::Unavailable(ErrnoText("waitpid"));
  if (rc == 0) return std::optional<WaitResult>();
  return std::optional<WaitResult>(DecodeStatus(status));
}

void KillProcess(pid_t pid) {
  if (pid > 0) ::kill(pid, SIGKILL);
}

std::string SelfExePath(const std::string& fallback) {
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return fallback;
  buf[n] = '\0';
  return std::string(buf, static_cast<size_t>(n));
}

}  // namespace hornsafe
