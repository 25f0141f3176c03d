#include "server/admission.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace adaptidx {
namespace server {
namespace {

TEST(AdmissionTest, GlobalAndPerConnectionCapsAreAllOrNothing) {
  AdmissionOptions opts;
  opts.global_inflight = 4;
  opts.per_connection_inflight = 2;
  AdmissionController ac(opts);

  EXPECT_TRUE(ac.TryAdmit(1));
  EXPECT_TRUE(ac.TryAdmit(1));
  // Per-connection cap: connection 1 is full, others still fit.
  EXPECT_FALSE(ac.TryAdmit(1));
  EXPECT_TRUE(ac.TryAdmit(2));
  EXPECT_TRUE(ac.TryAdmit(3));
  // Global cap: everything refuses now, even a fresh connection.
  EXPECT_FALSE(ac.TryAdmit(4));
  EXPECT_EQ(ac.global_in_flight(), 4u);
  EXPECT_EQ(ac.shed_total(), 2u);
  EXPECT_EQ(ac.state(), OverloadState::kCritical);

  ac.Release(1, 2);
  EXPECT_EQ(ac.connection_in_flight(1), 0u);
  // All-or-nothing: a 3-unit batch exceeds the per-connection cap, so
  // nothing of it is admitted; a 2-unit batch fits whole.
  EXPECT_FALSE(ac.TryAdmit(4, 3));
  EXPECT_TRUE(ac.TryAdmit(4, 2));
  EXPECT_EQ(ac.global_in_flight(), 4u);

  ac.Release(2);
  ac.Release(3);
  ac.Release(4, 2);
  EXPECT_EQ(ac.global_in_flight(), 0u);
  EXPECT_EQ(ac.state(), OverloadState::kNormal);
  EXPECT_EQ(ac.admitted_total(), 6u);
}

TEST(AdmissionTest, OverloadGaugeWalksThreeStates) {
  AdmissionOptions opts;
  opts.global_inflight = 8;
  AdmissionController ac(opts);
  EXPECT_EQ(ac.state(), OverloadState::kNormal);
  ASSERT_TRUE(ac.TryAdmit(1, 3));
  ASSERT_TRUE(ac.TryAdmit(2, 2));
  EXPECT_EQ(ac.state(), OverloadState::kNormal);  // 5/8 < 0.75
  ASSERT_TRUE(ac.TryAdmit(2, 1));
  EXPECT_EQ(ac.state(), OverloadState::kElevated);  // 6/8 >= 0.75
  ASSERT_TRUE(ac.TryAdmit(3, 2));
  EXPECT_EQ(ac.state(), OverloadState::kCritical);  // at the cap
  ac.Release(3, 2);
  ac.Release(2, 3);
  ac.Release(1, 3);
  EXPECT_EQ(ac.state(), OverloadState::kNormal);
}

TEST(AdmissionTest, RssMonitorShedsWhenOverBudget) {
  AdmissionOptions opts;
  opts.global_inflight = 100;
  opts.max_rss_bytes = 1;  // any real process is over this immediately
  AdmissionController ac(opts);
  EXPECT_GT(ac.sampled_rss_bytes(), 1u);  // eager first sample
  EXPECT_FALSE(ac.TryAdmit(1));
  EXPECT_EQ(ac.state(), OverloadState::kCritical);
  EXPECT_EQ(ac.shed_total(), 1u);
}

TEST(AdmissionTest, RssIsResampledOncePerPeriod) {
  AdmissionOptions opts;
  opts.max_rss_bytes = 1;
  AdmissionController ac(opts);
  const size_t first = ac.sampled_rss_bytes();
  // Grow the resident set by 32 MiB; only a re-sample can see it.
  std::vector<char> ballast(size_t{32} << 20);
  std::memset(ballast.data(), 1, ballast.size());
  for (size_t i = 1; i < AdmissionController::kRssSamplePeriod; ++i) {
    ac.TryAdmit(1);
    ASSERT_EQ(ac.sampled_rss_bytes(), first) << "re-sampled at decision " << i;
  }
  ac.TryAdmit(1);
  EXPECT_GE(ac.sampled_rss_bytes(), first + (size_t{16} << 20));
  EXPECT_EQ(ballast[ballast.size() / 2], 1);
}

TEST(AdmissionTest, ReadRssReportsALiveProcess) {
  // /proc/self/statm exists on every Linux this repo targets; a resident
  // set below one page would mean the parse failed.
  EXPECT_GT(AdmissionController::ReadRssBytes(), 4096u);
}

}  // namespace
}  // namespace server
}  // namespace adaptidx
