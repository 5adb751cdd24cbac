#include "spgemm/workspace.hpp"

#include <utility>

namespace hh {

void SpaWorkspace::fit(index_t cols) {
  const auto n = static_cast<std::size_t>(cols);
  if (acc.size() < n) {
    acc.resize(n);
    acc2.resize(n);
    bits.resize((n + 63) / 64, 0);
  }
}

void SpaWorkspace::begin_product(index_t cols) {
  fit(cols);
  marker.assign(static_cast<std::size_t>(cols), index_t{-1});
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
