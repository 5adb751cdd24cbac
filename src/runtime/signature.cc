#include "runtime/signature.hpp"

#include <cmath>
#include <sstream>
#include <vector>

#include "fault/checksum.hpp"
#include "powerlaw/fit.hpp"
#include "powerlaw/histogram.hpp"
#include "sparse/row_stats.hpp"

namespace hh {
namespace {

// The seed of both signature digests: FNV-1a's offset basis with its last
// decimal digit dropped, as the digests were first written. Plan-cache keys,
// tune-report keys and every recorded digest depend on it.
constexpr std::uint64_t kSignatureSeed = 1469598103934665603ull;

}  // namespace

MatrixSignature matrix_signature(const CsrMatrix& m) {
  MatrixSignature sig;
  sig.rows = m.rows;
  sig.cols = m.cols;
  sig.nnz = m.nnz();

  const std::vector<offset_t> row_sizes = row_nnz_vector(m);

  // Fitted α over the nonempty rows, quantized to 1e-3 so the key is stable
  // against last-bit float noise. A small xmin-candidate cap keeps the scan
  // cheap — the signature needs stability, not estimator quality.
  std::vector<std::int64_t> positive;
  positive.reserve(row_sizes.size());
  for (const offset_t s : row_sizes) {
    if (s > 0) positive.push_back(s);
  }
  if (positive.size() >= 2) {
    const PowerLawFit fit = fit_power_law(positive, /*max_xmin_candidates=*/8);
    sig.alpha_milli = std::llround(fit.alpha * 1000.0);
  }

  // Digest of the full log2 row-size histogram (bin bounds + counts).
  std::uint64_t h = kSignatureSeed;
  if (!row_sizes.empty()) {
    for (const HistogramBin& bin : log2_histogram(row_sizes)) {
      checksum_mix_i64(h, bin.lo);
      checksum_mix_i64(h, bin.count);
    }
  }
  sig.degree_digest = h;
  return sig;
}

std::string to_string(const MatrixSignature& s) {
  std::ostringstream os;
  os << s.rows << "x" << s.cols << " nnz=" << s.nnz
     << " alpha=" << static_cast<double>(s.alpha_milli) / 1000.0 << " digest=0x"
     << std::hex << s.degree_digest;
  return os.str();
}

std::size_t MatrixSignatureHash::operator()(const MatrixSignature& s) const {
  std::uint64_t h = kSignatureSeed;
  checksum_mix_i64(h, s.rows);
  checksum_mix_i64(h, s.cols);
  checksum_mix_i64(h, s.nnz);
  checksum_mix_i64(h, s.alpha_milli);
  checksum_mix(h, s.degree_digest);
  return static_cast<std::size_t>(h);
}

}  // namespace hh
