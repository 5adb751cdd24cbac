#include "runtime/wave.hpp"

#include <sstream>
#include <unordered_set>

namespace hh {

void WaveStats::accumulate(const WaveStats& o) {
  waves += o.waves;
  wave_requests += o.wave_requests;
  uploads += o.uploads;
  deduped_uploads += o.deduped_uploads;
  coalesced_uploads += o.coalesced_uploads;
  batched_launches += o.batched_launches;
  evictions += o.evictions;
  h2d_bytes += o.h2d_bytes;
}

std::string WaveStats::to_json() const {
  std::ostringstream os;
  os << "{\"waves\":" << waves << ",\"requests\":" << wave_requests
     << ",\"uploads\":" << uploads
     << ",\"deduped_uploads\":" << deduped_uploads
     << ",\"coalesced_uploads\":" << coalesced_uploads
     << ",\"batched_launches\":" << batched_launches
     << ",\"evictions\":" << evictions << ",\"h2d_bytes\":" << h2d_bytes
     << "}";
  return os.str();
}

std::string WaveStats::to_string() const {
  std::ostringstream os;
  os << waves << " over " << wave_requests << " requests; " << uploads
     << " uploads (" << coalesced_uploads << " coalesced, " << deduped_uploads
     << " deduped, " << h2d_bytes << " bytes), " << batched_launches
     << " batched launches, " << evictions << " evictions";
  return os.str();
}

std::vector<WaveBounds> form_waves(
    const std::vector<std::array<std::uint32_t, 2>>& operand_ids,
    std::size_t max_requests, std::size_t max_operands) {
  std::vector<WaveBounds> waves;
  const std::size_t n = operand_ids.size();
  std::size_t begin = 0;
  std::unordered_set<std::uint32_t> ops;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t a = operand_ids[i][0];
    const std::uint32_t b = operand_ids[i][1];
    std::size_t fresh = ops.count(a) == 0 ? 1 : 0;
    if (b != a && ops.count(b) == 0) ++fresh;
    const bool req_ok = max_requests == 0 || i - begin < max_requests;
    const bool ops_ok =
        max_operands == 0 || ops.size() + fresh <= max_operands;
    if (i != begin && !(req_ok && (fresh == 0 || ops_ok))) {
      waves.push_back({begin, i});
      begin = i;
      ops.clear();
    }
    ops.insert(a);
    ops.insert(b);
  }
  if (begin < n) waves.push_back({begin, n});
  return waves;
}

}  // namespace hh
