#include "core/report.hpp"

#include <sstream>

#include "util/format.hpp"

namespace hh {

std::string RunReport::to_string() const {
  std::ostringstream os;
  os << algorithm << ": total " << fmt_ms(total_s) << "\n";
  os << "  phase I   " << fmt_ms(phase1_s) << "  (t_A=" << threshold_a
     << ", t_B=" << threshold_b << ", |A_H|=" << high_rows_a
     << ", |B_H|=" << high_rows_b << ")\n";
  os << "  phase II  " << fmt_ms(phase2_s) << "  (cpu " << fmt_ms(phase2_cpu_s)
     << ", gpu " << fmt_ms(phase2_gpu_s) << ")\n";
  os << "  phase III " << fmt_ms(phase3_s) << "  (cpu " << fmt_ms(phase3_cpu_s)
     << ", gpu " << fmt_ms(phase3_gpu_s) << ", units " << queue_cpu_units << "/"
     << queue_gpu_units << ")\n";
  os << "  phase IV  " << fmt_ms(phase4_s) << "  (" << merge.tuples_in
     << " tuples -> " << merge.tuples_out << ")\n";
  os << "  transfers in " << fmt_ms(transfer_in_s) << ", out "
     << fmt_ms(transfer_out_s) << "\n";
  os << "  flops " << flops << ", output nnz " << output_nnz << "\n";
  return os.str();
}

std::string RunReport::to_json() const {
  std::ostringstream os;
  os << "{\"algorithm\":" << fmt_json_str(algorithm)
     << ",\"total_s\":" << fmt_num(total_s)
     << ",\"phase1_s\":" << fmt_num(phase1_s)
     << ",\"phase2_s\":" << fmt_num(phase2_s)
     << ",\"phase3_s\":" << fmt_num(phase3_s)
     << ",\"phase4_s\":" << fmt_num(phase4_s)
     << ",\"transfer_in_s\":" << fmt_num(transfer_in_s)
     << ",\"transfer_out_s\":" << fmt_num(transfer_out_s)
     << ",\"phase2_cpu_s\":" << fmt_num(phase2_cpu_s)
     << ",\"phase2_gpu_s\":" << fmt_num(phase2_gpu_s)
     << ",\"phase3_cpu_s\":" << fmt_num(phase3_cpu_s)
     << ",\"phase3_gpu_s\":" << fmt_num(phase3_gpu_s)
     << ",\"threshold_a\":" << threshold_a
     << ",\"threshold_b\":" << threshold_b
     << ",\"high_rows_a\":" << high_rows_a
     << ",\"high_rows_b\":" << high_rows_b << ",\"flops\":" << flops
     << ",\"output_nnz\":" << output_nnz
     << ",\"merge_tuples_in\":" << merge.tuples_in
     << ",\"merge_tuples_out\":" << merge.tuples_out
     << ",\"queue_cpu_units\":" << queue_cpu_units
     << ",\"queue_gpu_units\":" << queue_gpu_units << "}";
  return os.str();
}

}  // namespace hh
