#include "obs/slo.hpp"

#include <sstream>
#include <unordered_set>

#include "util/format.hpp"
#include "util/status.hpp"

namespace hh {
SloMonitor::SloMonitor(std::vector<SloObjective> objectives)
    : objectives_(std::move(objectives)) {
  std::unordered_set<std::string> seen;
  for (const SloObjective& o : objectives_) {
    if (!valid_metric_name(o.name)) {
      throw InvalidArgumentError("SLO objective name '" + o.name +
                                 "' is not a valid metric name");
    }
    if (!seen.insert(o.name).second) {
      throw InvalidArgumentError("duplicate SLO objective name '" + o.name +
                                 "'");
    }
    if (!(o.target > 0 && o.target < 1)) {
      throw InvalidArgumentError("SLO '" + o.name +
                                 "': target must be in (0, 1)");
    }
    if (o.window == 0) {
      throw InvalidArgumentError("SLO '" + o.name +
                                 "': window must be positive");
    }
    if (o.latency_threshold_s < 0) {
      throw InvalidArgumentError("SLO '" + o.name +
                                 "': latency threshold must be >= 0");
    }
    if (o.burn_alert <= 0) {
      throw InvalidArgumentError("SLO '" + o.name +
                                 "': burn_alert must be positive");
    }
  }
  states_.resize(objectives_.size());
}

double SloMonitor::window_bad_fraction(std::size_t i) const {
  const State& st = states_[i];
  if (st.window_bad.empty()) return 0;
  return static_cast<double>(st.window_bad_count) /
         static_cast<double>(st.window_bad.size());
}

double SloMonitor::burn_rate(std::size_t i) const {
  return window_bad_fraction(i) / (1 - objectives_[i].target);
}

void SloMonitor::observe(double latency_s, bool completed,
                         bool deadline_missed, double now_s) {
  ++observations_;
  for (std::size_t i = 0; i < objectives_.size(); ++i) {
    const SloObjective& o = objectives_[i];
    State& st = states_[i];
    const bool is_good =
        o.latency_threshold_s > 0
            ? completed && latency_s <= o.latency_threshold_s
            : completed && !deadline_missed;
    (is_good ? st.good : st.bad)++;
    st.window_bad.push_back(!is_good);
    if (!is_good) ++st.window_bad_count;
    while (st.window_bad.size() > o.window) {
      if (st.window_bad.front()) --st.window_bad_count;
      st.window_bad.pop_front();
    }

    const double burn = burn_rate(i);
    const bool now_alerting = burn >= o.burn_alert;
    const bool rising = now_alerting && !st.alerting;
    const bool clearing = !now_alerting && st.alerting;
    if (rising) ++st.alerts;
    if (trace_ != nullptr && trace_->enabled()) {
      if (rising) {
        trace_->instant(TraceCategory::kSlo, "slo-burn-alert", now_s);
      } else if (clearing) {
        trace_->instant(TraceCategory::kSlo, "slo-burn-clear", now_s);
      }
    }
    st.alerting = now_alerting;

    if (metrics_ != nullptr) {
      const std::string base = "slo." + o.name;
      // Touch every counter so reconciliation can always read a value (a
      // never-incremented counter still renders as 0).
      Counter& good_c = metrics_->counter(base + ".good");
      Counter& bad_c = metrics_->counter(base + ".bad");
      Counter& alerts_c = metrics_->counter(base + ".alerts");
      (is_good ? good_c : bad_c).inc();
      if (rising) alerts_c.inc();
      metrics_->gauge(base + ".burn_rate").set(burn);
      metrics_->gauge(base + ".budget_remaining").set(1 - burn);
      metrics_->gauge(base + ".window_bad_fraction")
          .set(window_bad_fraction(i));
    }
  }
}

std::string SloMonitor::to_string() const {
  std::ostringstream os;
  os << "slo: " << observations_ << " observations\n";
  for (std::size_t i = 0; i < objectives_.size(); ++i) {
    const SloObjective& o = objectives_[i];
    const State& st = states_[i];
    os << "  " << o.name << " (target " << fmt_num(o.target);
    if (o.latency_threshold_s > 0) {
      os << ", latency <= " << fmt_num(o.latency_threshold_s) << " s";
    } else {
      os << ", deadline-hit";
    }
    os << "): " << st.good << " good / " << st.bad << " bad, burn "
       << fmt_num(burn_rate(i)) << ", budget " << fmt_num(budget_remaining(i))
       << (st.alerting ? " [ALERTING]" : "") << ", " << st.alerts
       << " alert(s)\n";
  }
  return os.str();
}

std::string SloMonitor::to_json() const {
  std::ostringstream os;
  os << "{\"observations\":" << observations_ << ",\"objectives\":[";
  for (std::size_t i = 0; i < objectives_.size(); ++i) {
    const SloObjective& o = objectives_[i];
    const State& st = states_[i];
    if (i > 0) os << ",";
    os << "{\"name\":" << fmt_json_str(o.name)
       << ",\"target\":" << fmt_num(o.target)
       << ",\"window\":" << o.window
       << ",\"latency_threshold_s\":" << fmt_num(o.latency_threshold_s)
       << ",\"burn_alert\":" << fmt_num(o.burn_alert) << ",\"good\":" << st.good
       << ",\"bad\":" << st.bad
       << ",\"window_bad_fraction\":" << fmt_num(window_bad_fraction(i))
       << ",\"burn_rate\":" << fmt_num(burn_rate(i))
       << ",\"budget_remaining\":" << fmt_num(budget_remaining(i))
       << ",\"alerting\":" << fmt_bool(st.alerting)
       << ",\"alerts\":" << st.alerts << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace hh
