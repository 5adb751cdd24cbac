// FNV-1a digests of raw bytes.
//
// matrix_checksum digests a CSR operand: the service keys device residency
// by it (one device copy per distinct content), and the replay harness
// digests outputs with it. structure_checksum digests the structure alone:
// the service picks a cached symbolic result by it (runtime/service.hpp).
// No transfer is digested: the PCIe transfers are simulated, and a
// corrupted one is the fault injector's decision (fault/fault.hpp). The
// service re-sends it, and only a clean upload enters the residency map, so
// no later request reuses a damaged operand.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "sparse/csr.hpp"

namespace hh {

inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;

/// FNV-1a over raw bytes; chainable via the seed parameter.
std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                      std::uint64_t seed = kFnv1aOffset);

// Field-by-field chaining over scalars: each value is digested from its own
// bytes, so no struct padding ever enters the stream. Shared by the shard
// snapshot checksum (shard/snapshot.cc) and the workload flight recorder
// (obs/record.cc), which must agree on the mixing discipline so a record
// verified on parse is the record that was written.
inline void checksum_mix(std::uint64_t& h, std::uint64_t v) {
  h = fnv1a64(&v, sizeof(v), h);
}
inline void checksum_mix_i64(std::uint64_t& h, std::int64_t v) {
  checksum_mix(h, static_cast<std::uint64_t>(v));
}
inline void checksum_mix_f64(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  checksum_mix(h, bits);
}

/// Digest of a CSR operand's structure (shape + indptr ‖ indices), without
/// its values.
std::uint64_t structure_checksum(const CsrMatrix& m);

/// Digest of a CSR operand (indptr ‖ indices ‖ values + shape): the
/// structure digest chained with the values.
std::uint64_t matrix_checksum(const CsrMatrix& m);

}  // namespace hh
