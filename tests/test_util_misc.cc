// Coverage for the small utilities: checked assertions and the logger.
#include <gtest/gtest.h>

#include "sparse/csr.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace hh {
namespace {

TEST(Check, PassingCheckIsSilent) {
  EXPECT_NO_THROW(HH_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(HH_CHECK_MSG(true, "never shown"));
}

TEST(Check, FailingCheckThrowsWithLocation) {
  try {
    HH_CHECK(2 + 2 == 5);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos);
    EXPECT_NE(what.find("test_util_misc.cc"), std::string::npos);
  }
}

// A library check names its file from the source tree, not by the build
// machine's absolute path.
TEST(Check, LibraryCheckNamesItsFileFromTheSourceTree) {
  CsrMatrix m(1, 2);
  m.indptr = {0, 1};
  m.indices = {5};
  m.values = {1};
  try {
    m.validate();
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(" at src/sparse/csr.cc:"), std::string::npos) << what;
    EXPECT_NE(what.find("column 5 out of range in row 0"), std::string::npos)
        << what;
  }
}

TEST(Check, MessageIsStreamed) {
  try {
    const int x = 41;
    HH_CHECK_MSG(x == 42, "x was " << x);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("x was 41"), std::string::npos);
  }
}

TEST(Check, CheckErrorIsRuntimeError) {
  EXPECT_THROW(HH_CHECK(false), std::runtime_error);
}

TEST(Log, LevelRoundTrip) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  set_log_level(LogLevel::kSilent);
  EXPECT_EQ(log_level(), LogLevel::kSilent);
  // Silent level swallows messages without crashing.
  HH_LOG_INFO << "suppressed";
  HH_LOG_DEBUG << "suppressed too";
  set_log_level(before);
}

}  // namespace
}  // namespace hh
