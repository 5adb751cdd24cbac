// TuneReport: the observable state of the online autotuner.
//
// The tuner's state (one entry per tuned signature pair, in first-seen
// order, each carrying the analytic starting point, the current — possibly
// promoted — incumbent, the measured variants and the convergence state),
// rendered as it is. Rendering is deterministic: entry order is insertion
// order, variant order is measurement-first order, and numbers print with a
// fixed format, so two same-seed replays produce byte-identical JSON.
#pragma once

#include <string>

#include "tune/tuner.hpp"

namespace hh {

struct TuneReport {
  bool enabled = false;
  TunerSnapshot tuner;

  std::string to_string() const;
  std::string to_json() const;
};

}  // namespace hh
