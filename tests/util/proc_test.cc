#include "util/proc.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

namespace hornsafe {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("hornsafe_proc_test_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string file(const char* name) const { return (path / name).string(); }
};

TEST(FileLockTest, AcquireCreatesAndHolds) {
  TempDir dir;
  auto lock = FileLock::Acquire(dir.file("a.lock"));
  ASSERT_TRUE(lock.ok()) << lock.status().ToString();
  EXPECT_TRUE(lock->held());
  EXPECT_TRUE(fs::exists(dir.file("a.lock")));
  lock->Release();
  EXPECT_FALSE(lock->held());
  // The lock file is never deleted — only its lock state changes.
  EXPECT_TRUE(fs::exists(dir.file("a.lock")));
}

TEST(FileLockTest, TryAcquireReportsContentionWithoutError) {
  TempDir dir;
  auto first = FileLock::TryAcquire(dir.file("c.lock"));
  ASSERT_TRUE(first.ok() && first->held());
  // flock is per open-description: a second open of the same file
  // contends even within one process.
  auto second = FileLock::TryAcquire(dir.file("c.lock"));
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->held());
  first->Release();
  auto third = FileLock::TryAcquire(dir.file("c.lock"));
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->held());
}

TEST(FileLockTest, KernelReleasesLockWhenHolderDies) {
  // The crash-safety property everything rests on: SIGKILL the holder
  // and the flock comes free with no cleanup code having run.
  TempDir dir;
  std::string path = dir.file("k.lock");
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto lock = FileLock::Acquire(path);
    if (!lock.ok() || !lock->held()) _exit(2);
    // Signal readiness via a side file, then hang until killed.
    std::ofstream(dir.file("ready")) << "1";
    for (;;) pause();
  }
  while (!fs::exists(dir.file("ready"))) usleep(1000);
  {
    auto contended = FileLock::TryAcquire(path);
    ASSERT_TRUE(contended.ok());
    EXPECT_FALSE(contended->held());
  }
  KillProcess(pid);
  auto reaped = WaitProcess(pid);
  ASSERT_TRUE(reaped.ok());
  EXPECT_TRUE(reaped->signaled);
  auto after = FileLock::TryAcquire(path);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->held());
}

TEST(SpawnTest, RunsArgvAndCapturesExitCode) {
  auto pid = SpawnProcess({"/bin/sh", "-c", "exit 7"});
  ASSERT_TRUE(pid.ok()) << pid.status().ToString();
  auto result = WaitProcess(*pid);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->exited);
  EXPECT_EQ(result->exit_code, 7);
}

TEST(SpawnTest, RedirectsStdoutAndAppliesExtraEnv) {
  TempDir dir;
  SpawnOptions opts;
  opts.stdout_path = dir.file("out.txt");
  opts.extra_env = {"HORNSAFE_PROC_TEST_VAR=hello"};
  auto pid = SpawnProcess(
      {"/bin/sh", "-c", "printf '%s' \"$HORNSAFE_PROC_TEST_VAR\""}, opts);
  ASSERT_TRUE(pid.ok()) << pid.status().ToString();
  auto result = WaitProcess(*pid);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->exit_code, 0);
  std::ifstream in(dir.file("out.txt"));
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "hello");
}

TEST(SpawnTest, ExecFailureSurfacesAs127) {
  auto pid = SpawnProcess({"/nonexistent/definitely/not/a/binary"});
  ASSERT_TRUE(pid.ok());  // the fork succeeded; exec fails in the child
  auto result = WaitProcess(*pid);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->exited);
  EXPECT_EQ(result->exit_code, 127);
}

TEST(SpawnTest, PollTransitionsFromRunningToReaped) {
  auto pid = SpawnProcess({"/bin/sh", "-c", "sleep 0.1"});
  ASSERT_TRUE(pid.ok());
  auto first = PollProcess(*pid);
  ASSERT_TRUE(first.ok());
  // Usually still running; either way the terminal poll must reap.
  for (int i = 0; i < 5000; ++i) {
    auto poll = PollProcess(*pid);
    ASSERT_TRUE(poll.ok());
    if (poll->has_value()) {
      EXPECT_TRUE((*poll)->exited);
      EXPECT_EQ((*poll)->exit_code, 0);
      return;
    }
    usleep(1000);
  }
  FAIL() << "child never reaped";
}

TEST(SpawnTest, KillProcessTerminatesBySigkill) {
  auto pid = SpawnProcess({"/bin/sh", "-c", "sleep 30"});
  ASSERT_TRUE(pid.ok());
  KillProcess(*pid);
  auto result = WaitProcess(*pid);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->signaled);
  EXPECT_EQ(result->term_signal, SIGKILL);
}

TEST(SelfExeTest, PointsAtThisTestBinary) {
  std::string path = SelfExePath("fallback");
  ASSERT_NE(path, "fallback");
  EXPECT_NE(path.find("proc_test"), std::string::npos) << path;
  EXPECT_TRUE(fs::exists(path));
}

}  // namespace
}  // namespace hornsafe
