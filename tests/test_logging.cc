/**
 * @file
 * Unit tests for base/logging.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"

namespace limit {
namespace {

TEST(Logging, ConcatMixesTypes)
{
    EXPECT_EQ(detail::concat("x=", 42, " y=", 1.5), "x=42 y=1.5");
    EXPECT_EQ(detail::concat(), "");
}

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH({ panic("boom ", 1); }, "panic: boom 1");
}

TEST(LoggingDeathTest, PanicIfFiresOnlyWhenTrue)
{
    panic_if(false, "must not fire");
    EXPECT_DEATH({ panic_if(2 > 1, "fired"); }, "fired");
}

TEST(LoggingDeathTest, FatalExitsWithOne)
{
    EXPECT_EXIT({ fatal("bad config"); }, ::testing::ExitedWithCode(1),
                "fatal: bad config");
}

TEST(LoggingDeathTest, FatalIfFiresOnlyWhenTrue)
{
    fatal_if(false, "must not fire");
    EXPECT_EXIT({ fatal_if(true, "cfg"); }, ::testing::ExitedWithCode(1),
                "cfg");
}

} // namespace
} // namespace limit
