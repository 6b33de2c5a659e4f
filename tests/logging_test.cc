#include "util/logging.h"

#include <gtest/gtest.h>

namespace rpdbscan {
namespace {

TEST(LoggingTest, CheckPassesOnTrue) {
  RPDBSCAN_CHECK(1 + 1 == 2) << "never shown";
  SUCCEED();
}

TEST(LoggingDeathTest, CheckAbortsOnFalse) {
  EXPECT_DEATH({ RPDBSCAN_CHECK(false) << "boom"; }, "Check failed");
}

TEST(LoggingDeathTest, CheckMessageIncludesCondition) {
  EXPECT_DEATH({ RPDBSCAN_CHECK(2 < 1); }, "2 < 1");
}

}  // namespace
}  // namespace rpdbscan
