// Tests for the runtime lock-rank validator (common/lock_rank.h): the
// enforced half of the lock hierarchy DESIGN.md §4f documents. Every
// test installs a capturing violation handler (report mode) instead of
// letting the default abort, so a seeded inversion is an assertion,
// not a death.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/lock_rank.h"
#include "common/thread_annotations.h"

// This binary deliberately acquires mutexes out of rank order to prove
// the validator reports inversions. TSan's own deadlock detector sees
// those seeded cycles too (the capturing handler falls through, so the
// out-of-order acquisitions really happen). Suppress deadlock reports
// whose stack passes through this file — TSan still watches everything
// else the binary does, and the real inversion coverage for production
// code comes from the full suite running with SDW_LOCK_RANK_CHECKS=1.
#if defined(__SANITIZE_THREAD__)
#define SDW_LOCK_RANK_TEST_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SDW_LOCK_RANK_TEST_UNDER_TSAN 1
#endif
#endif
#ifdef SDW_LOCK_RANK_TEST_UNDER_TSAN
extern "C" const char* __tsan_default_suppressions() {
  return "deadlock:lock_rank_test.cc\n";
}
#endif

namespace sdw::common {
namespace {

/// Captures every violation the handler sees. The handler is a plain
/// function pointer (it must be installable before any C++ runtime
/// machinery), so the capture buffer is a global.
std::vector<LockRankViolation>* g_captured = nullptr;

void CaptureViolation(const LockRankViolation& violation) {
  g_captured->push_back(violation);
}

class LockRankTest : public ::testing::Test {
 protected:
  void SetUp() override {
    captured_.clear();
    g_captured = &captured_;
    previous_handler_ = SetLockRankViolationHandler(&CaptureViolation);
    previously_enabled_ = LockRankChecksEnabled();
    EnableLockRankChecks(true);
  }

  void TearDown() override {
    EnableLockRankChecks(previously_enabled_);
    SetLockRankViolationHandler(previous_handler_);
    g_captured = nullptr;
  }

  std::vector<LockRankViolation> captured_;
  LockRankViolationHandler previous_handler_ = nullptr;
  bool previously_enabled_ = false;
};

TEST_F(LockRankTest, AscendingOrderIsClean) {
  Mutex writer{LockRank::kWarehouseWriter};
  Mutex store{LockRank::kBlockStore};
  Mutex registry{LockRank::kMetricsRegistry};
  {
    MutexLock a(writer);
    MutexLock b(store);
    MutexLock c(registry);
    EXPECT_EQ(internal::HeldRankedLocks(), 3);
  }
  EXPECT_EQ(internal::HeldRankedLocks(), 0);
  EXPECT_TRUE(captured_.empty());
}

TEST_F(LockRankTest, InversionIsDetectedAndReportsBothStacks) {
  Mutex store{LockRank::kBlockStore};
  Mutex head{LockRank::kShardHead};
  {
    MutexLock a(store);
    // kShardHead (450) under kBlockStore (550): the reverse of GC's
    // head_mu_ -> store nesting, i.e. a real inversion.
    MutexLock b(head);
  }
  ASSERT_EQ(captured_.size(), 1u);
  const LockRankViolation& v = captured_[0];
  EXPECT_EQ(v.acquired, LockRank::kShardHead);
  EXPECT_EQ(v.held, LockRank::kBlockStore);
  // The report names both ranks and carries both acquisition stacks.
  EXPECT_NE(v.report.find("lock-rank violation"), std::string::npos);
  EXPECT_NE(v.report.find("kShardHead"), std::string::npos);
  EXPECT_NE(v.report.find("kBlockStore"), std::string::npos);
  EXPECT_NE(v.report.find("stack acquiring"), std::string::npos);
  EXPECT_NE(v.report.find("stack that acquired the held"), std::string::npos);
}

TEST_F(LockRankTest, EqualRanksNeverNest) {
  // Two instances of the same layer (e.g. two BlockStores) held
  // together is an ABBA hazard between threads taking them in opposite
  // orders, so strict ordering rejects equal ranks too.
  Mutex a{LockRank::kBlockStore};
  Mutex b{LockRank::kBlockStore};
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  ASSERT_EQ(captured_.size(), 1u);
  EXPECT_EQ(captured_[0].acquired, LockRank::kBlockStore);
  EXPECT_EQ(captured_[0].held, LockRank::kBlockStore);
}

TEST_F(LockRankTest, ReportModeDoesNotCascadeOnRelease) {
  // A non-aborting handler must leave the held-lock bookkeeping
  // consistent: after the inversion both locks release cleanly and a
  // fresh well-ordered sequence reports nothing new.
  Mutex store{LockRank::kBlockStore};
  Mutex head{LockRank::kShardHead};
  {
    MutexLock a(store);
    MutexLock b(head);
  }
  EXPECT_EQ(internal::HeldRankedLocks(), 0);
  ASSERT_EQ(captured_.size(), 1u);
  {
    MutexLock b(head);
    MutexLock a(store);
  }
  EXPECT_EQ(captured_.size(), 1u);  // no new violation
}

TEST_F(LockRankTest, UnrankedLocksAreExempt) {
  Mutex ranked{LockRank::kBlockStore};
  Mutex unranked;  // LockRank::kUnranked
  {
    MutexLock a(ranked);
    MutexLock b(unranked);  // below a ranked lock: fine
    EXPECT_EQ(internal::HeldRankedLocks(), 1);
  }
  {
    MutexLock b(unranked);
    MutexLock a(ranked);  // above one: also fine
  }
  EXPECT_TRUE(captured_.empty());
}

TEST_F(LockRankTest, TryLockRecordsButSkipsOrderCheck) {
  // try_lock cannot deadlock (it never blocks), so an out-of-order
  // try_lock is legal — but once held, the lock still participates in
  // ordering for later blocking acquisitions.
  Mutex store{LockRank::kBlockStore};
  Mutex head{LockRank::kShardHead};
  Mutex node{LockRank::kComputeNode};
  MutexLock a(store);
  ASSERT_TRUE(head.try_lock());  // inversion, but non-blocking: clean
  EXPECT_TRUE(captured_.empty());
  EXPECT_EQ(internal::HeldRankedLocks(), 2);
  {
    MutexLock c(node);  // 400 under held 550: real blocking inversion
  }
  EXPECT_EQ(captured_.size(), 1u);
  head.unlock();
}

TEST_F(LockRankTest, DisabledValidatorRecordsNothing) {
  EnableLockRankChecks(false);
  Mutex store{LockRank::kBlockStore};
  Mutex head{LockRank::kShardHead};
  {
    MutexLock a(store);
    MutexLock b(head);  // would be a violation if enabled
    EXPECT_EQ(internal::HeldRankedLocks(), 0);
  }
  EXPECT_TRUE(captured_.empty());
}

TEST_F(LockRankTest, SharedLocksObeyTheSameOrder) {
  SharedMutex data{LockRank::kWarehouseData};
  Mutex writer{LockRank::kWarehouseWriter};
  {
    ReaderMutexLock read(data);
    MutexLock w(writer);  // kWarehouseWriter (100) under data (150)
  }
  ASSERT_EQ(captured_.size(), 1u);
  EXPECT_EQ(captured_[0].acquired, LockRank::kWarehouseWriter);
  EXPECT_EQ(captured_[0].held, LockRank::kWarehouseData);
}

TEST_F(LockRankTest, HeldStacksArePerThread) {
  // A lock held on one thread must not order acquisitions on another:
  // each thread owns its own held-lock stack.
  Mutex store{LockRank::kBlockStore};
  Mutex head{LockRank::kShardHead};
  MutexLock a(store);
  std::thread other([&] {
    MutexLock b(head);  // clean: this thread holds nothing
    EXPECT_EQ(internal::HeldRankedLocks(), 1);
  });
  other.join();
  EXPECT_TRUE(captured_.empty());
  EXPECT_EQ(internal::HeldRankedLocks(), 1);
}

TEST_F(LockRankTest, CondVarRelockStaysBalanced) {
  // CondVar::Wait unlocks and relocks through the hooked Mutex, so the
  // held stack must stay balanced across a wait.
  Mutex mu{LockRank::kThreadPool};
  CondVar cv;
  bool ready = false;
  std::thread waker([&] {
    MutexLock lock(mu);
    ready = true;
    cv.NotifyAll();
  });
  {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
    EXPECT_EQ(internal::HeldRankedLocks(), 1);
  }
  waker.join();
  EXPECT_EQ(internal::HeldRankedLocks(), 0);
  EXPECT_TRUE(captured_.empty());
}

}  // namespace
}  // namespace sdw::common
