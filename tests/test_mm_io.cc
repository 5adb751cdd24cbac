#include "sparse/mm_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "sparse/equality.hpp"
#include "test_util.hpp"
#include "util/status.hpp"

namespace hh {
namespace {

TEST(MmIo, WriteReadRoundTrip) {
  const CsrMatrix m = test::random_csr(10, 8, 0.3, 21);
  std::stringstream ss;
  write_matrix_market(ss, m);
  const CsrMatrix back = read_matrix_market(ss);
  std::string why;
  EXPECT_TRUE(approx_equal(m, back, 1e-9, &why)) << why;
}

TEST(MmIo, ReadsPatternAsOnes) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 1\n"
      "2 2\n");
  const CsrMatrix m = read_matrix_market(ss);
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_DOUBLE_EQ(m.values[0], 1.0);
}

TEST(MmIo, MirrorsSymmetric) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 2\n"
      "2 1 5.0\n"
      "3 3 7.0\n");
  const CsrMatrix m = read_matrix_market(ss);
  EXPECT_EQ(m.nnz(), 3);  // (1,0), (0,1), (2,2)
  EXPECT_EQ(m.row_nnz(0), 1);
  EXPECT_EQ(m.row_indices(0)[0], 1);
  EXPECT_DOUBLE_EQ(m.row_values(0)[0], 5.0);
}

TEST(MmIo, SkipsComments) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "% another\n"
      "1 1 1\n"
      "1 1 4.5\n");
  const CsrMatrix m = read_matrix_market(ss);
  EXPECT_EQ(m.nnz(), 1);
  EXPECT_DOUBLE_EQ(m.values[0], 4.5);
}

// ---- Malformed-input corpus: every rejection is a typed ParseError (a
// HhError with StatusCode::kParseError), never a silent mis-parse.

void expect_parse_error(const std::string& text) {
  std::stringstream ss(text);
  try {
    read_matrix_market(ss);
    FAIL() << "accepted malformed input:\n" << text;
  } catch (const ParseError& e) {
    EXPECT_EQ(e.code(), StatusCode::kParseError) << e.what();
  }
}

TEST(MmIo, RejectsEmptyStream) { expect_parse_error(""); }

TEST(MmIo, RejectsMissingBanner) { expect_parse_error("1 1 1\n1 1 4.5\n"); }

TEST(MmIo, RejectsUnsupportedObject) {
  expect_parse_error("%%MatrixMarket vector coordinate real general\n1 1 0\n");
}

TEST(MmIo, RejectsArrayFormat) {
  expect_parse_error("%%MatrixMarket matrix array real general\n2 2\n");
}

TEST(MmIo, RejectsComplexField) {
  expect_parse_error(
      "%%MatrixMarket matrix coordinate complex general\n1 1 0\n");
}

TEST(MmIo, RejectsUnknownSymmetry) {
  expect_parse_error(
      "%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n");
}

TEST(MmIo, RejectsMissingSizeLine) {
  expect_parse_error(
      "%%MatrixMarket matrix coordinate real general\n% only comments\n");
}

TEST(MmIo, RejectsNonNumericSizeLine) {
  expect_parse_error(
      "%%MatrixMarket matrix coordinate real general\nthree by three\n");
}

TEST(MmIo, RejectsPartialSizeLine) {
  expect_parse_error("%%MatrixMarket matrix coordinate real general\n3 3\n");
}

TEST(MmIo, RejectsNegativeDimensions) {
  expect_parse_error(
      "%%MatrixMarket matrix coordinate real general\n-2 2 0\n");
}

TEST(MmIo, RejectsDimensionOverflow) {
  // 3e9 rows does not fit the 32-bit index type; must not wrap silently.
  expect_parse_error(
      "%%MatrixMarket matrix coordinate real general\n3000000000 5 1\n"
      "1 1 1.0\n");
}

TEST(MmIo, RejectsEntryCountExceedingCells) {
  expect_parse_error(
      "%%MatrixMarket matrix coordinate real general\n2 2 5\n"
      "1 1 1\n1 2 1\n2 1 1\n2 2 1\n1 1 2\n");
}

TEST(MmIo, RejectsHugeClaimedEntryCountOverTruncatedBody) {
  // The size line is untrusted: a claim of 4e18 entries over a one-entry
  // body must fail as truncated, not size memory from the header.
  expect_parse_error(
      "%%MatrixMarket matrix coordinate real general\n"
      "2147483647 2147483647 4000000000000000000\n1 1 1.0\n");
  expect_parse_error(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "2147483647 2147483647 4000000000000000000\n1 1 1.0\n");
}

TEST(MmIo, RejectsNonNumericEntryTokens) {
  // operator>> would otherwise leave r=c=0 and "accept" an out-of-range 0 0.
  expect_parse_error(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\nx y z\n");
}

TEST(MmIo, RejectsNonNumericValue) {
  expect_parse_error(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 NaNopeN\n");
}

TEST(MmIo, RejectsMissingValueToken) {
  expect_parse_error(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n");
}

TEST(MmIo, RejectsTrailingJunkOnEntry) {
  expect_parse_error(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 4.5 oops\n");
}

TEST(MmIo, RejectsTrailingJunkOnSizeLine) {
  expect_parse_error(
      "%%MatrixMarket matrix coordinate real general\n2 2 1 junk\n1 1 4.5\n");
}

TEST(MmIo, RejectsOutOfRangeEntry) {
  expect_parse_error(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n");
}

TEST(MmIo, RejectsZeroBasedEntry) {
  expect_parse_error(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n");
}

TEST(MmIo, RejectsTruncatedEntries) {
  expect_parse_error(
      "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n");
}

TEST(MmIo, ParseErrorIsAlsoCatchableAsHhError) {
  std::stringstream ss("not a matrix\n");
  try {
    read_matrix_market(ss);
    FAIL() << "accepted malformed input";
  } catch (const HhError& e) {
    EXPECT_EQ(e.code(), StatusCode::kParseError);
    EXPECT_FALSE(e.status().ok());
  }
}

TEST(MmIo, FileRoundTrip) {
  const CsrMatrix m = test::random_csr(6, 6, 0.4, 9);
  const std::string path = testing::TempDir() + "/hh_mmio_test.mtx";
  write_matrix_market_file(path, m);
  const CsrMatrix back = read_matrix_market_file(path);
  std::string why;
  EXPECT_TRUE(approx_equal(m, back, 1e-9, &why)) << why;
}

TEST(MmIo, MissingFileThrows) {
  EXPECT_THROW(read_matrix_market_file("/nonexistent/nope.mtx"), ParseError);
}

}  // namespace
}  // namespace hh
