#include "sparse/mm_io.hpp"

#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace hh {
namespace {

std::string lower(std::string s) {
  for (char& ch : s) ch = static_cast<char>(std::tolower(ch));
  return s;
}

[[noreturn]] void fail(const std::string& what, const std::string& line) {
  std::ostringstream os;
  os << "MatrixMarket: " << what;
  if (!line.empty()) os << " in line \"" << line << "\"";
  throw ParseError(os.str());
}

/// Strict numeric token: istream's operator>> leaves the target untouched on
/// garbage, which would silently read "x y z" as zeros. Extract-and-check.
template <typename T>
T parse_token(std::istringstream& s, const char* what,
              const std::string& line) {
  T v{};
  if (!(s >> v)) fail(std::string("expected ") + what, line);
  return v;
}

void reject_trailing(std::istringstream& s, const std::string& line) {
  std::string junk;
  if (s >> junk) fail("unexpected trailing token \"" + junk + "\"", line);
}

}  // namespace

CsrMatrix read_matrix_market(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) fail("empty stream", "");
  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  if (banner != "%%MatrixMarket") fail("missing banner", line);
  if (lower(object) != "matrix") fail("unsupported object " + object, line);
  if (lower(format) != "coordinate") {
    fail("only coordinate format is supported", line);
  }
  field = lower(field);
  symmetry = lower(symmetry);
  const bool pattern = field == "pattern";
  if (!pattern && field != "real" && field != "integer") {
    fail("unsupported field " + field, line);
  }
  const bool symmetric = symmetry == "symmetric";
  if (!symmetric && symmetry != "general") {
    fail("unsupported symmetry " + symmetry, line);
  }

  // Skip comments, read size line.
  bool have_size_line = false;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') {
      have_size_line = true;
      break;
    }
  }
  if (!have_size_line) fail("missing size line", "");
  std::istringstream size_line(line);
  const auto rows = parse_token<long long>(size_line, "row count", line);
  const auto cols = parse_token<long long>(size_line, "column count", line);
  const auto entries = parse_token<long long>(size_line, "entry count", line);
  reject_trailing(size_line, line);
  if (rows <= 0 || cols <= 0 || entries < 0) fail("bad size line", line);
  constexpr long long kMaxDim = std::numeric_limits<index_t>::max();
  if (rows > kMaxDim || cols > kMaxDim) {
    fail("dimension overflows index type", line);
  }
  // Coordinate entries are distinct positions, so more of them than the
  // matrix has cells means a corrupt size line. This does not bound memory
  // (a huge matrix admits a huge claim), so the entry arrays are not sized
  // from the header: they grow with the entries actually read, and a
  // truncated body fails before it costs more than its own size.
  if (static_cast<unsigned long long>(entries) >
      static_cast<unsigned long long>(rows) *
          static_cast<unsigned long long>(cols)) {
    fail("entry count exceeds rows*cols", line);
  }

  std::vector<index_t> tr, tc;
  std::vector<value_t> tv;
  for (long long i = 0; i < entries; ++i) {
    if (!std::getline(in, line)) {
      std::ostringstream os;
      os << "truncated entry list: got " << i << " of " << entries
         << " entries";
      fail(os.str(), "");
    }
    std::istringstream es(line);
    const auto r = parse_token<long long>(es, "row index", line);
    const auto c = parse_token<long long>(es, "column index", line);
    double v = 1.0;
    if (!pattern) v = parse_token<double>(es, "value", line);
    reject_trailing(es, line);
    if (r < 1 || r > rows || c < 1 || c > cols) {
      fail("entry out of range", line);
    }
    tr.push_back(static_cast<index_t>(r - 1));
    tc.push_back(static_cast<index_t>(c - 1));
    tv.push_back(v);
    if (symmetric && r != c) {
      tr.push_back(static_cast<index_t>(c - 1));
      tc.push_back(static_cast<index_t>(r - 1));
      tv.push_back(v);
    }
  }
  return csr_from_triplets(static_cast<index_t>(rows),
                           static_cast<index_t>(cols), tr, tc, tv);
}

CsrMatrix read_matrix_market_file(const std::string& path) {
  std::ifstream f(path);
  if (!f.good()) throw ParseError("cannot open " + path);
  return read_matrix_market(f);
}

void write_matrix_market(std::ostream& out, const CsrMatrix& m) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out.precision(17);  // round-trip exact doubles
  out << m.rows << " " << m.cols << " " << m.nnz() << "\n";
  for (index_t r = 0; r < m.rows; ++r) {
    for (offset_t k = m.indptr[r]; k < m.indptr[r + 1]; ++k) {
      out << (r + 1) << " " << (m.indices[k] + 1) << " " << m.values[k]
          << "\n";
    }
  }
}

void write_matrix_market_file(const std::string& path, const CsrMatrix& m) {
  std::ofstream f(path);
  if (!f.good()) throw ParseError("cannot open " + path + " for writing");
  write_matrix_market(f, m);
}

}  // namespace hh
