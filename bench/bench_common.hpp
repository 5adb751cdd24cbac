// Shared plumbing for the figure-reproduction benches.
//
// Every bench runs on the simulated i7-980 + K20c platform (DESIGN.md §1)
// against Table I analogues shrunk by HH_SCALE (default 0.1, read by
// default_bench_scale()); capacities of the simulated machine shrink with
// the instance (make_scaled_platform). All reported times are simulated
// milliseconds.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/baselines.hpp"
#include "core/hh_cpu.hpp"
#include "core/threshold.hpp"
#include "gen/datasets.hpp"
#include "sparse/equality.hpp"
#include "util/thread_pool.hpp"

namespace hh::bench {

/// Non-negative number from the environment variable `name`; `fallback`
/// when it is unset or negative.
inline double env_double(const char* name, double fallback) {
  if (const char* env = std::getenv(name)) {
    const double v = std::atof(env);
    if (v >= 0) return v;
  }
  return fallback;
}

/// A bench's hard pass/fail checks. Each failure prints "<kind> VIOLATION:
/// <what>" to stderr and is counted; the bench exits 1 when any fired.
struct Violations {
  const char* kind;
  int count = 0;

  void fail(const std::string& what) {
    std::fprintf(stderr, "%s VIOLATION: %s\n", kind, what.c_str());
    ++count;
  }
  void check(bool ok, const char* what) {
    if (!ok) fail(what);
  }
};

/// HH-CPU at the per-matrix empirically best threshold (the paper's §III-A
/// method: sweep candidates offline, keep the best).
inline RunResult run_hh_best(const CsrMatrix& a, const HeteroPlatform& plat,
                             ThreadPool& pool) {
  const ThresholdChoice c = pick_threshold_empirical(a, a, plat, pool);
  HhCpuOptions opt;
  opt.threshold_a = c.t;
  opt.threshold_b = c.t;
  return run_hh_cpu(a, a, opt, plat, pool);
}

inline void check_same(const CsrMatrix& want, const RunResult& res) {
  std::string why;
  if (!approx_equal(want, res.c, 1e-9, &why)) {
    std::fprintf(stderr, "RESULT MISMATCH (%s): %s\n",
                 res.report.algorithm.c_str(), why.c_str());
    std::exit(1);
  }
}

inline void print_header(const char* what) {
  std::printf("== %s ==\n", what);
  std::printf("simulated platform: Intel i7-980 + Tesla K20c (see DESIGN.md);"
              " instance scale %.2f\n\n", default_bench_scale());
}

}  // namespace hh::bench
