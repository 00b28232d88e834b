#include "util/fault.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <string>

namespace hornsafe {
namespace {

TEST(FaultInjectorTest, DisabledByDefault) {
  FaultInjector inj;
  EXPECT_FALSE(inj.enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(inj.ShouldInject(FaultKind::kReadError));
  }
  EXPECT_EQ(inj.counters().decisions, 0u);
}

TEST(FaultInjectorTest, ConfigureParsesSpec) {
  FaultInjector inj;
  EXPECT_TRUE(inj.Configure("read_error=0.5,bit_flip=0.25,seed=7"));
  EXPECT_TRUE(inj.enabled());
  EXPECT_TRUE(inj.Configure(""));  // empty spec disables
  EXPECT_FALSE(inj.enabled());
}

TEST(FaultInjectorTest, ConfigureRejectsGarbage) {
  FaultInjector inj;
  ASSERT_TRUE(inj.Configure("read_error=0.5"));
  EXPECT_FALSE(inj.Configure("unknown_kind=0.5"));
  EXPECT_FALSE(inj.Configure("read_error=notanumber"));
  EXPECT_FALSE(inj.Configure("read_error=1.5"));   // out of [0,1]
  EXPECT_FALSE(inj.Configure("read_error=-0.1"));
  EXPECT_FALSE(inj.Configure("read_error"));       // missing '='
  EXPECT_FALSE(inj.Configure("seed=xyz"));
  // A rejected spec leaves the previous config in place.
  EXPECT_TRUE(inj.enabled());
}

TEST(FaultInjectorTest, ProbabilityOneAlwaysFires) {
  FaultInjector inj;
  ASSERT_TRUE(inj.Configure("write_error=1"));
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(inj.ShouldInject(FaultKind::kWriteError));
    EXPECT_FALSE(inj.ShouldInject(FaultKind::kReadError));
  }
  EXPECT_EQ(inj.counters()
                .injected[static_cast<size_t>(FaultKind::kWriteError)],
            50u);
}

TEST(FaultInjectorTest, SameSeedSameDecisionSequence) {
  auto draw = [](const char* spec) {
    FaultInjector inj;
    EXPECT_TRUE(inj.Configure(spec));
    std::string bits;
    for (int i = 0; i < 200; ++i) {
      bits += inj.ShouldInject(FaultKind::kBitFlip) ? '1' : '0';
    }
    return bits;
  };
  std::string a = draw("bit_flip=0.3,seed=42");
  std::string b = draw("bit_flip=0.3,seed=42");
  std::string c = draw("bit_flip=0.3,seed=43");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // astronomically unlikely to collide
  EXPECT_NE(a.find('1'), std::string::npos);
  EXPECT_NE(a.find('0'), std::string::npos);
}

TEST(FaultInjectorTest, CorruptOneBitChangesExactlyOneBit) {
  FaultInjector inj;
  ASSERT_TRUE(inj.Configure("bit_flip=1,seed=1"));
  std::string original(64, '\x5a');
  std::string corrupted = original;
  inj.CorruptOneBit(&corrupted);
  int differing_bits = 0;
  for (size_t i = 0; i < original.size(); ++i) {
    unsigned char diff = static_cast<unsigned char>(original[i]) ^
                         static_cast<unsigned char>(corrupted[i]);
    while (diff != 0) {
      differing_bits += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(differing_bits, 1);

  std::string empty;
  inj.CorruptOneBit(&empty);  // must not crash
  EXPECT_TRUE(empty.empty());
}

TEST(FaultInjectorTest, TornLengthIsStrictPrefix) {
  FaultInjector inj;
  ASSERT_TRUE(inj.Configure("torn_append=1,seed=9"));
  for (int i = 0; i < 100; ++i) {
    size_t len = inj.TornLength(100);
    EXPECT_LT(len, 100u);
  }
  EXPECT_EQ(inj.TornLength(0), 0u);
}

TEST(FaultInjectorTest, CountersTrackDecisionsAndReset) {
  FaultInjector inj;
  ASSERT_TRUE(inj.Configure("enospc=1"));
  inj.ShouldInject(FaultKind::kEnospc);
  inj.ShouldInject(FaultKind::kReadError);
  FaultInjector::Counters c = inj.counters();
  EXPECT_EQ(c.decisions, 2u);
  EXPECT_EQ(c.injected[static_cast<size_t>(FaultKind::kEnospc)], 1u);
  inj.ResetCounters();
  EXPECT_EQ(inj.counters().decisions, 0u);
}

TEST(FaultKindTest, NamesMatchSpecKeys) {
  EXPECT_STREQ(FaultKindName(FaultKind::kReadError), "read_error");
  EXPECT_STREQ(FaultKindName(FaultKind::kTornAppend), "torn_append");
  EXPECT_STREQ(FaultKindName(FaultKind::kEnospc), "enospc");
  EXPECT_STREQ(FaultKindName(FaultKind::kProcessKill), "process_kill");
}

TEST(FaultKindTest, EveryKindRoundTripsThroughConfigure) {
  FaultInjector inj;
  for (size_t k = 0; k < static_cast<size_t>(FaultKind::kNumKinds); ++k) {
    std::string spec = std::string(FaultKindName(static_cast<FaultKind>(k))) +
                       "=1";
    EXPECT_TRUE(inj.Configure(spec)) << spec;
    EXPECT_TRUE(inj.ShouldInject(static_cast<FaultKind>(k))) << spec;
  }
}

TEST(FaultInjectorTest, ZeroProbabilityKindsConsumeNoRandomDraw) {
  // Adding wrap points for a disabled kind must not perturb the
  // decision sequence of an enabled one — otherwise a fault spec used
  // by a replay test would diverge the moment a new wrap point lands.
  auto draw = [](bool interleave_disabled) {
    FaultInjector inj;
    EXPECT_TRUE(inj.Configure("bit_flip=0.5,seed=11"));
    std::string bits;
    for (int i = 0; i < 100; ++i) {
      if (interleave_disabled) {
        inj.ShouldInject(FaultKind::kProcessKill);  // prob 0: no draw
        inj.ShouldInject(FaultKind::kTornAppend);
      }
      bits += inj.ShouldInject(FaultKind::kBitFlip) ? '1' : '0';
    }
    return bits;
  };
  EXPECT_EQ(draw(false), draw(true));
}

TEST(FaultInjectorTest, MaybeCrashIsANoOpWhenDisabled) {
  FaultInjector inj;
  ASSERT_TRUE(inj.Configure("read_error=1"));  // process_kill stays 0
  inj.MaybeCrash();                            // must return
  EXPECT_EQ(inj.counters()
                .injected[static_cast<size_t>(FaultKind::kProcessKill)],
            0u);
}

TEST(FaultInjectorTest, MaybeCrashKillsTheProcessWithSigkill) {
  // The real thing, observed from a parent: the child configures
  // process_kill=1, calls MaybeCrash, and must die by SIGKILL without
  // reaching _exit(0).
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    FaultInjector inj;
    if (!inj.Configure("process_kill=1,seed=2")) _exit(3);
    inj.MaybeCrash();
    _exit(0);  // not reached
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
}

}  // namespace
}  // namespace hornsafe
