#include "linalg/workspace.hpp"

#include "obs/metrics.hpp"

namespace arams::linalg {

Matrix& Workspace::mat(std::size_t slot, std::size_t rows, std::size_t cols) {
  if (slot >= mats_.size()) mats_.resize(slot + 1);
  Matrix& m = mats_[slot];
  const std::size_t before = m.capacity_bytes();
  m.reshape(rows, cols);
  if (m.capacity_bytes() != before) publish_bytes();
  return m;
}

std::span<double> Workspace::vec(std::size_t slot, std::size_t n) {
  if (slot >= vecs_.size()) vecs_.resize(slot + 1);
  auto& v = vecs_[slot];
  const std::size_t before = v.capacity();
  v.resize(n);
  if (v.capacity() != before) publish_bytes();
  return v;
}

std::span<std::size_t> Workspace::idx(std::size_t slot, std::size_t n) {
  if (slot >= idxs_.size()) idxs_.resize(slot + 1);
  auto& v = idxs_[slot];
  const std::size_t before = v.capacity();
  v.resize(n);
  if (v.capacity() != before) publish_bytes();
  return v;
}

std::size_t Workspace::bytes() const {
  std::size_t total = 0;
  for (const auto& m : mats_) total += m.bytes();
  for (const auto& v : vecs_) total += v.size() * sizeof(double);
  for (const auto& v : idxs_) total += v.size() * sizeof(std::size_t);
  total += eig_.vectors.bytes();
  total += eig_.values.size() * sizeof(double);
  total += svd_.w.bytes();
  total += svd_.sigma.size() * sizeof(double);
  return total;
}

std::size_t Workspace::capacity_bytes() const {
  std::size_t total = 0;
  for (const auto& m : mats_) total += m.capacity_bytes();
  for (const auto& v : vecs_) total += v.capacity() * sizeof(double);
  for (const auto& v : idxs_) total += v.capacity() * sizeof(std::size_t);
  total += eig_.vectors.capacity_bytes();
  total += eig_.values.capacity() * sizeof(double);
  total += svd_.w.capacity_bytes();
  total += svd_.sigma.capacity() * sizeof(double);
  return total;
}

void Workspace::publish_bytes() const {
  static obs::Gauge& gauge = obs::metrics().gauge("linalg.workspace_bytes");
  gauge.set(static_cast<double>(capacity_bytes()));
}

}  // namespace arams::linalg
