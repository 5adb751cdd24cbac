#include "obs/record.hpp"

#include <sstream>
#include <type_traits>

#include "fault/checksum.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/status.hpp"

namespace hh {
namespace {

// Every payload field with its JSON key, in log order: the one list the
// checksum, the writer and the reader walk, so they cannot disagree.
template <class Record, class Visit>
void for_each_field(Record& r, Visit visit) {
  visit("id", r.id);
  visit("drain", r.drain);
  visit("shard", r.shard);
  visit("label", r.label);
  visit("a_rows", r.a.rows);
  visit("a_cols", r.a.cols);
  visit("a_nnz", r.a.nnz);
  visit("a_alpha_milli", r.a.alpha_milli);
  visit("a_degree_digest", r.a.degree_digest);
  visit("b_rows", r.b.rows);
  visit("b_cols", r.b.cols);
  visit("b_nnz", r.b.nnz);
  visit("b_alpha_milli", r.b.alpha_milli);
  visit("b_degree_digest", r.b.degree_digest);
  visit("submit_s", r.submit_s);
  visit("deadline_s", r.deadline_s);
  visit("pin_ta", r.pin_ta);
  visit("pin_tb", r.pin_tb);
  visit("ta", r.ta);
  visit("tb", r.tb);
  visit("status", r.status);
  visit("cache_hit", r.cache_hit);
  visit("degraded", r.degraded);
  visit("deadline_missed", r.deadline_missed);
  visit("latency_s", r.latency_s);
  visit("queue_wait_s", r.queue_wait_s);
  visit("phase1_s", r.phase1_s);
  visit("phase2_s", r.phase2_s);
  visit("phase3_s", r.phase3_s);
  visit("phase4_s", r.phase4_s);
  visit("tx_in_s", r.tx_in_s);
  visit("tx_out_s", r.tx_out_s);
  visit("output_nnz", r.output_nnz);
  visit("faults", r.faults);
  visit("retries", r.retries);
}

void read_header(const JsonValue& j, std::size_t record_lines,
                 WorkloadLog& log) {
  if (!j.at("hh_workload_log").as<bool>()) {
    throw ParseError("not a workload log header");
  }
  log.version = j.at("version").as<int>();
  if (log.version != kWorkloadLogVersion) {
    throw ParseError("unsupported workload log version " +
                     std::to_string(log.version) + " (expected " +
                     std::to_string(kWorkloadLogVersion) + ")");
  }
  log.chain_seed = j.at("chain_seed").as<std::uint64_t>();
  log.total_appended = j.at("total_appended").as<std::uint64_t>();
  log.rotations = j.at("rotations").as<std::uint64_t>();
  const std::uint64_t declared = j.at("records").as<std::uint64_t>();
  if (declared != record_lines) {
    throw ParseError("header declares " + std::to_string(declared) +
                     " records but the log has " +
                     std::to_string(record_lines) + " (truncated or padded?)");
  }
}

WorkloadRecord read_record(const JsonValue& j) {
  WorkloadRecord r;
  for_each_field(r, [&](const char* key, auto& v) {
    v = j.at(key).as<std::decay_t<decltype(v)>>();
  });
  r.checksum = j.at("checksum").as<std::uint64_t>();
  return r;
}

}  // namespace

std::uint64_t WorkloadRecord::payload_checksum(std::uint64_t seed) const {
  std::uint64_t h = seed;
  for_each_field(*this, [&](const char*, const auto& v) {
    using T = std::decay_t<decltype(v)>;
    if constexpr (std::is_same_v<T, std::string>) {
      checksum_mix(h, v.size());
      h = fnv1a64(v.data(), v.size(), h);
    } else if constexpr (std::is_same_v<T, double>) {
      checksum_mix_f64(h, v);
    } else {
      checksum_mix(h, static_cast<std::uint64_t>(v));
    }
  });
  return h;
}

std::string WorkloadRecord::to_jsonl() const {
  std::ostringstream os;
  char sep = '{';
  for_each_field(*this, [&](const char* key, const auto& v) {
    using T = std::decay_t<decltype(v)>;
    os << sep << '"' << key << "\":";
    if constexpr (std::is_same_v<T, std::string>) {
      os << fmt_json_str(v);
    } else if constexpr (std::is_same_v<T, double>) {
      os << fmt_exact(v);
    } else if constexpr (std::is_same_v<T, bool>) {
      os << fmt_bool(v);
    } else {
      os << v;
    }
    sep = ',';
  });
  os << ",\"checksum\":" << checksum << "}";
  return os.str();
}

std::string WorkloadLog::to_jsonl() const {
  std::ostringstream os;
  os << "{\"hh_workload_log\":true,\"version\":" << version
     << ",\"chain_seed\":" << chain_seed
     << ",\"total_appended\":" << total_appended
     << ",\"rotations\":" << rotations << ",\"records\":" << records.size()
     << "}\n";
  for (const WorkloadRecord& r : records) os << r.to_jsonl() << "\n";
  return os.str();
}

WorkloadLog parse_workload_log(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(std::move(line));
  }
  if (lines.empty()) {
    throw ParseError("workload log is empty (no header line)");
  }

  WorkloadLog log;
  std::uint64_t prev = 0;
  log.records.reserve(lines.size() - 1);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    try {
      const JsonValue j = parse_json(lines[i]);
      if (i == 0) {
        read_header(j, lines.size() - 1, log);
        prev = log.chain_seed;
        continue;
      }
      WorkloadRecord r = read_record(j);
      const std::uint64_t want = r.payload_checksum(prev);
      if (want != r.checksum) {
        throw ParseError("record checksum mismatch (stored " +
                         std::to_string(r.checksum) + ", recomputed " +
                         std::to_string(want) +
                         "): tampered, edited or reordered");
      }
      prev = r.checksum;
      log.records.push_back(std::move(r));
    } catch (const ParseError& e) {
      std::ostringstream os;
      os << "workload log line " << i + 1 << ": " << e.what();
      throw ParseError(os.str());
    }
  }
  return log;
}

}  // namespace hh
