#include "spgemm/workspace.hpp"

#include <algorithm>
#include <utility>

namespace hh {

void SpaWorkspace::begin_product(index_t cols) {
  const auto n = static_cast<std::size_t>(cols);
  // Generation 0 is reserved so row_tag() can never collide with the -1
  // fill of fresh marker entries; wrap long before the 31-bit field packs.
  if (++generation_ >= (std::int64_t{1} << 30)) {
    generation_ = 1;
    std::fill(marker.begin(), marker.end(), std::int64_t{-1});
  }
  if (acc.size() < n) {
    acc.resize(n, value_t{0});
    acc2.resize(n, value_t{0});
    marker.resize(n, std::int64_t{-1});
    bits.resize((n + 63) / 64, 0);
  }
}

std::unique_ptr<SpaWorkspace> WorkspacePool::acquire_spa() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.spa_acquires;
  ++stats_.spa_live;
  if (!free_spa_.empty()) {
    ++stats_.spa_reuses;
    auto ws = std::move(free_spa_.back());
    free_spa_.pop_back();
    return ws;
  }
  return std::make_unique<SpaWorkspace>();
}

void WorkspacePool::release_spa(std::unique_ptr<SpaWorkspace> ws) {
  if (ws == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  --stats_.spa_live;
  free_spa_.push_back(std::move(ws));
}

WorkspacePool::Stats WorkspacePool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace hh
