#include "trace/metrics.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>

#include "util/check.hpp"
#include "util/format.hpp"
#include "util/status.hpp"

namespace hh {
Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {
  HH_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
               "histogram upper bounds must be ascending");
}

void Histogram::observe(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  counts_[static_cast<std::size_t>(it - bounds_.begin())]++;
  count_++;
  sum_ += x;
  if (count_ == 1) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
}

double Histogram::percentile(double q) const {
  HH_CHECK_MSG(q > 0 && q <= 1, "percentile requires q in (0, 1]");
  if (count_ == 0) return 0;
  // Continuous rank: the q-quantile sits `rank` observations into the
  // distribution. The selected bucket is the first whose cumulative count
  // covers it (necessarily non-empty, since rank > 0).
  const double rank = q * static_cast<double>(count_);
  std::int64_t before = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (static_cast<double>(before + counts_[i]) >= rank) {
      const double lo =
          i == 0 ? std::min(min_, bounds_.empty() ? min_ : bounds_[0])
                 : bounds_[i - 1];
      const double hi = i < bounds_.size() ? bounds_[i] : max_;
      const double frac =
          (rank - static_cast<double>(before)) / static_cast<double>(counts_[i]);
      return std::clamp(lo + frac * (hi - lo), min_, max_);
    }
    before += counts_[i];
  }
  return max_;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  const auto head = static_cast<unsigned char>(name.front());
  if (!std::isalpha(head) && name.front() != '_') return false;
  for (const char c : name) {
    const auto u = static_cast<unsigned char>(c);
    if (!std::isalnum(u) && c != '_' && c != '.' && c != ':' && c != '-') {
      return false;
    }
  }
  return true;
}

namespace {

const char* kind_name(int kind) {
  switch (kind) {
    case 0: return "counter";
    case 1: return "gauge";
    default: return "histogram";
  }
}

}  // namespace

const MetricsRegistry::Entry* MetricsRegistry::find(
    const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &order_[it->second];
}

MetricsRegistry::Entry& MetricsRegistry::registered(const std::string& name,
                                                    Kind kind) {
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    Entry& e = order_[it->second];
    if (e.kind != kind) {
      std::ostringstream os;
      os << "metric '" << name << "' already registered as a "
         << kind_name(static_cast<int>(e.kind)) << ", requested as a "
         << kind_name(static_cast<int>(kind));
      throw InvalidArgumentError(os.str());
    }
    return e;
  }
  if (!valid_metric_name(name)) {
    std::ostringstream os;
    os << "invalid metric name '" << name
       << "': names match [A-Za-z_][A-Za-z0-9_.:-]*";
    throw InvalidArgumentError(os.str());
  }
  std::size_t index = 0;
  switch (kind) {
    case Kind::kCounter: index = counters_.size(); counters_.emplace_back(); break;
    case Kind::kGauge: index = gauges_.size(); gauges_.emplace_back(); break;
    case Kind::kHistogram: index = histograms_.size(); break;  // caller adds
  }
  by_name_.emplace(name, order_.size());
  order_.push_back({name, kind, index});
  return order_.back();
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return counters_[registered(name, Kind::kCounter).index];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return gauges_[registered(name, Kind::kGauge).index];
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds) {
  const Entry* existing = find(name);
  if (existing != nullptr) {
    if (existing->kind != Kind::kHistogram) {
      std::ostringstream os;
      os << "metric '" << name << "' already registered as a "
         << kind_name(static_cast<int>(existing->kind))
         << ", requested as a histogram";
      throw InvalidArgumentError(os.str());
    }
    return histograms_[existing->index];
  }
  Entry& e = registered(name, Kind::kHistogram);
  histograms_.emplace_back(std::move(upper_bounds));
  return histograms_[e.index];
}

std::vector<FlatMetric> MetricsRegistry::flattened() const {
  std::vector<FlatMetric> out;
  out.reserve(order_.size());
  for (const Entry& e : order_) {
    switch (e.kind) {
      case Kind::kCounter:
        out.push_back(
            {e.name, 'c',
             static_cast<double>(counters_[e.index].value())});
        break;
      case Kind::kGauge:
        out.push_back({e.name, 'g', gauges_[e.index].value()});
        break;
      case Kind::kHistogram: {
        const Histogram& h = histograms_[e.index];
        out.push_back(
            {e.name + ".count", 'h', static_cast<double>(h.count())});
        out.push_back({e.name + ".sum", 'h', h.sum()});
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::to_string() const {
  std::ostringstream os;
  for (const Entry& e : order_) {
    switch (e.kind) {
      case Kind::kCounter:
        os << e.name << " " << counters_[e.index].value() << "\n";
        break;
      case Kind::kGauge:
        os << e.name << " " << fmt_num(gauges_[e.index].value()) << "\n";
        break;
      case Kind::kHistogram: {
        const Histogram& h = histograms_[e.index];
        os << e.name << "_count " << h.count() << "\n";
        os << e.name << "_sum " << fmt_num(h.sum()) << "\n";
        std::int64_t cum = 0;
        for (std::size_t i = 0; i < h.upper_bounds().size(); ++i) {
          cum += h.bucket_counts()[i];
          os << e.name << "{le=\"" << fmt_num(h.upper_bounds()[i]) << "\"} "
             << cum << "\n";
        }
        os << e.name << "{le=\"+Inf\"} " << h.count() << "\n";
        break;
      }
    }
  }
  return os.str();
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const Entry& e : order_) {
    if (!first) os << ",";
    first = false;
    os << fmt_json_str(e.name) << ":";
    switch (e.kind) {
      case Kind::kCounter:
        os << counters_[e.index].value();
        break;
      case Kind::kGauge:
        os << fmt_num(gauges_[e.index].value());
        break;
      case Kind::kHistogram: {
        const Histogram& h = histograms_[e.index];
        os << "{\"count\":" << h.count() << ",\"sum\":" << fmt_num(h.sum())
           << ",\"min\":" << fmt_num(h.min()) << ",\"max\":" << fmt_num(h.max())
           << ",\"bounds\":[";
        for (std::size_t i = 0; i < h.upper_bounds().size(); ++i) {
          os << (i ? "," : "") << fmt_num(h.upper_bounds()[i]);
        }
        os << "],\"buckets\":[";
        for (std::size_t i = 0; i < h.bucket_counts().size(); ++i) {
          os << (i ? "," : "") << h.bucket_counts()[i];
        }
        os << "]}";
        break;
      }
    }
  }
  os << "}";
  return os.str();
}

std::vector<double> latency_buckets_s() {
  // Half-decade ladder: 1e-5, 3.16e-5, 1e-4, ... 100 s.
  std::vector<double> bounds;
  for (int e = -5; e <= 2; ++e) {
    const double decade = std::pow(10.0, e);
    bounds.push_back(decade);
    if (e < 2) bounds.push_back(decade * std::sqrt(10.0));
  }
  return bounds;
}

}  // namespace hh
