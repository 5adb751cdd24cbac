#include "obs/timeseries.hpp"

#include <sstream>

#include "util/check.hpp"
#include "util/format.hpp"

namespace hh {
MetricsTimeline::MetricsTimeline(const MetricsRegistry* registry,
                                 double interval_s)
    : registry_(registry), interval_s_(interval_s) {
  HH_CHECK_MSG(registry_ != nullptr, "metrics timeline needs a registry");
}

void MetricsTimeline::snapshot(double now_s) {
  const std::size_t sample = t_s_.size();
  t_s_.push_back(now_s);
  for (const FlatMetric& m : registry_->flattened()) {
    auto it = by_name_.find(m.name);
    if (it == by_name_.end()) {
      it = by_name_.emplace(m.name, series_.size()).first;
      series_.push_back({m.name, m.kind, std::vector<double>(sample, 0)});
    }
    series_[it->second].values.push_back(m.value);
  }
  // A registry never drops instruments, so every series was just extended;
  // guard anyway so a stale series stays aligned instead of shearing.
  for (Series& s : series_) {
    if (s.values.size() < t_s_.size()) s.values.push_back(0);
  }
}

bool MetricsTimeline::maybe_snapshot(double now_s) {
  if (interval_s_ <= 0) return false;
  if (!t_s_.empty() && now_s < t_s_.back() + interval_s_) return false;
  snapshot(now_s);
  return true;
}

std::string MetricsTimeline::to_json() const {
  std::ostringstream os;
  os << "{\"interval_s\":" << fmt_num(interval_s_)
     << ",\"samples\":" << t_s_.size() << ",\"t_s\":[";
  for (std::size_t i = 0; i < t_s_.size(); ++i) {
    os << (i ? "," : "") << fmt_num(t_s_[i]);
  }
  os << "],\"series\":{";
  for (std::size_t si = 0; si < series_.size(); ++si) {
    const Series& s = series_[si];
    if (si > 0) os << ",";
    os << fmt_json_str(s.name) << ":{\"kind\":\"" << s.kind
       << "\",\"values\":[";
    for (std::size_t i = 0; i < s.values.size(); ++i) {
      os << (i ? "," : "") << fmt_num(s.values[i]);
    }
    os << "],\"deltas\":[";
    for (std::size_t i = 0; i < s.values.size(); ++i) {
      const double d = i == 0 ? s.values[0] : s.values[i] - s.values[i - 1];
      os << (i ? "," : "") << fmt_num(d);
    }
    os << "],\"rates\":[";
    for (std::size_t i = 0; i < s.values.size(); ++i) {
      double rate = 0;
      if (i > 0) {
        const double dt = t_s_[i] - t_s_[i - 1];
        if (dt > 0) rate = (s.values[i] - s.values[i - 1]) / dt;
      }
      os << (i ? "," : "") << fmt_num(rate);
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

}  // namespace hh
