#include "monitor/sample_store.hpp"

#include <cstring>
#include <stdexcept>

namespace fluxpower::monitor {

namespace {

/// Write a sample's per-domain watts into slot p, materializing (zero-filled
/// to the physical length `len`) any column this sample is the first to need.
template <std::size_t N, typename Watts>
void assign_domains(std::vector<double> (&cols)[N], const Watts& w,
                    std::size_t p, std::size_t len) {
  for (std::size_t c = 0; c < w.size(); ++c) {
    if (cols[c].empty()) cols[c].resize(len, 0.0);
    cols[c][p] = w[c];
  }
}

template <std::size_t N>
void append_domains(std::vector<double> (&cols)[N]) {
  for (auto& col : cols) {
    if (!col.empty()) col.push_back(0.0);
  }
}

/// Every materialized column spans the physical ring; unused ones are empty.
template <std::size_t N>
bool domains_sized(const std::vector<double> (&cols)[N], std::size_t len) {
  for (const auto& col : cols) {
    if (!col.empty() && col.size() != len) return false;
  }
  return true;
}

}  // namespace

ColumnarSampleStore::ColumnarSampleStore(std::size_t capacity)
    : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("ColumnarSampleStore capacity must be positive");
  }
}

std::uint32_t ColumnarSampleStore::intern_hostname(
    const hwsim::FixedHostname& h) {
  // A node-agent's hostname never changes and a replica mirrors one node,
  // so the table is one or two entries deep; linear search wins.
  for (std::size_t i = 0; i < host_table_.size(); ++i) {
    if (host_table_[i] == h) return static_cast<std::uint32_t>(i);
  }
  host_table_.push_back(h);
  return static_cast<std::uint32_t>(host_table_.size() - 1);
}

void ColumnarSampleStore::assign_slot(std::size_t p,
                                      const hwsim::PowerSample& s) {
  timestamp_[p] = s.timestamp_s;
  best_w_[p] = s.best_node_w();
  node_w_[p] = s.node_w.watts;
  node_estimate_w_[p] = s.node_estimate_w.watts;
  mem_w_[p] = s.mem_w.watts;
  assign_domains(cpu_w_, s.cpu_w, p, phys_len());
  assign_domains(gpu_w_, s.gpu_w, p, phys_len());
  cpu_count_[p] = static_cast<std::uint8_t>(s.cpu_w.size());
  gpu_count_[p] = static_cast<std::uint8_t>(s.gpu_w.size());
  host_idx_[p] = intern_hostname(s.hostname);
  node_present_.set(p, s.node_w.has_value());
  estimate_present_.set(p, s.node_estimate_w.has_value());
  mem_present_.set(p, s.mem_w.has_value());
  gpu_is_oam_.set(p, s.gpu_is_oam);
  sensor_fault_.set(p, s.sensor_fault);
}

void ColumnarSampleStore::append_slot(const hwsim::PowerSample& s) {
  const std::size_t p = timestamp_.size();
  timestamp_.push_back(0.0);
  best_w_.push_back(0.0);
  node_w_.push_back(0.0);
  node_estimate_w_.push_back(0.0);
  mem_w_.push_back(0.0);
  append_domains(cpu_w_);
  append_domains(gpu_w_);
  cpu_count_.push_back(0);
  gpu_count_.push_back(0);
  host_idx_.push_back(0);
  node_present_.resize_for(p + 1);
  estimate_present_.resize_for(p + 1);
  mem_present_.resize_for(p + 1);
  gpu_is_oam_.resize_for(p + 1);
  sensor_fault_.resize_for(p + 1);
  assign_slot(p, s);
}

void ColumnarSampleStore::push(const hwsim::PowerSample& s) {
  if (size_ == capacity_) {
    // Overwrite the oldest in place; the ring is necessarily fully grown.
    assign_slot(head_, s);
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  } else {
    const std::size_t p = phys(size_);
    if (p == phys_len()) {
      append_slot(s);
    } else {
      assign_slot(p, s);
    }
    ++size_;
  }
  ++total_pushed_;
}

hwsim::PowerSample ColumnarSampleStore::get(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("ColumnarSampleStore index");
  const std::size_t p = phys(i);
  hwsim::PowerSample s;
  s.timestamp_s = timestamp_[p];
  s.hostname = host_table_[host_idx_[p]];
  if (node_present_.get(p)) s.node_w = node_w_[p];
  if (estimate_present_.get(p)) s.node_estimate_w = node_estimate_w_[p];
  for (std::size_t c = 0; c < cpu_count_[p]; ++c) {
    s.cpu_w.push_back(cpu_w_[c][p]);
  }
  if (mem_present_.get(p)) s.mem_w = mem_w_[p];
  for (std::size_t g = 0; g < gpu_count_[p]; ++g) {
    s.gpu_w.push_back(gpu_w_[g][p]);
  }
  s.gpu_is_oam = gpu_is_oam_.get(p);
  s.sensor_fault = sensor_fault_.get(p);
  return s;
}

double ColumnarSampleStore::timestamp_at(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("ColumnarSampleStore index");
  return timestamp_[phys(i)];
}

double ColumnarSampleStore::best_w_at(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("ColumnarSampleStore index");
  return best_w_[phys(i)];
}

std::pair<std::size_t, std::size_t> ColumnarSampleStore::window_range(
    double start_s, double end_s) const {
  // Timestamps are monotone non-decreasing in logical order, so the window
  // is a contiguous logical range found by two binary searches — O(log n)
  // against the old layout's full linear scan.
  std::size_t a = 0, b = size_;
  while (a < b) {
    const std::size_t mid = a + (b - a) / 2;
    if (timestamp_[phys(mid)] < start_s) {
      a = mid + 1;
    } else {
      b = mid;
    }
  }
  const std::size_t lo = a;
  b = size_;
  while (a < b) {
    const std::size_t mid = a + (b - a) / 2;
    if (timestamp_[phys(mid)] <= end_s) {
      a = mid + 1;
    } else {
      b = mid;
    }
  }
  return {lo, a};
}

ColumnarSampleStore::Segments ColumnarSampleStore::best_w_segments(
    std::size_t lo, std::size_t hi) const {
  if (hi > size_ || lo > hi) throw std::out_of_range("segment range");
  Segments seg;
  if (lo == hi) return seg;
  const std::size_t p0 = phys(lo);
  const std::size_t n = hi - lo;
  const std::size_t first_len = std::min(n, capacity_ - p0);
  seg.first = {best_w_.data() + p0, first_len};
  seg.second = {best_w_.data(), n - first_len};
  return seg;
}

ColumnarSampleStore::Segments ColumnarSampleStore::timestamp_segments(
    std::size_t lo, std::size_t hi) const {
  if (hi > size_ || lo > hi) throw std::out_of_range("segment range");
  Segments seg;
  if (lo == hi) return seg;
  const std::size_t p0 = phys(lo);
  const std::size_t n = hi - lo;
  const std::size_t first_len = std::min(n, capacity_ - p0);
  seg.first = {timestamp_.data() + p0, first_len};
  seg.second = {timestamp_.data(), n - first_len};
  return seg;
}

void ColumnarSampleStore::copy_best_w(std::size_t lo, std::size_t hi,
                                      std::vector<double>& out) const {
  const Segments seg = best_w_segments(lo, hi);
  out.resize(seg.size());
  if (!seg.first.empty()) {
    std::memcpy(out.data(), seg.first.data(),
                seg.first.size() * sizeof(double));
  }
  if (!seg.second.empty()) {
    std::memcpy(out.data() + seg.first.size(), seg.second.data(),
                seg.second.size() * sizeof(double));
  }
}

void ColumnarSampleStore::prune_front(double min_ts_s) {
  // The dropped prefix is contiguous in logical order; find its length by
  // binary search and advance the head past it.
  std::size_t a = 0, b = size_;
  while (a < b) {
    const std::size_t mid = a + (b - a) / 2;
    if (timestamp_[phys(mid)] < min_ts_s) {
      a = mid + 1;
    } else {
      b = mid;
    }
  }
  if (a == 0) return;
  head_ = phys(a);
  size_ -= a;
  if (size_ == 0) head_ = 0;
}

void ColumnarSampleStore::clear() noexcept {
  head_ = 0;
  size_ = 0;
  timestamp_.clear();
  best_w_.clear();
  node_w_.clear();
  node_estimate_w_.clear();
  mem_w_.clear();
  for (auto& col : cpu_w_) col.clear();
  for (auto& col : gpu_w_) col.clear();
  cpu_count_.clear();
  gpu_count_.clear();
  host_idx_.clear();
  host_table_.clear();
  node_present_.clear();
  estimate_present_.clear();
  mem_present_.clear();
  gpu_is_oam_.clear();
  sensor_fault_.clear();
  // total_pushed_ deliberately retained (see header).
}

bool ColumnarSampleStore::check_integrity() const noexcept {
  const std::size_t n = phys_len();
  if (n > capacity_ || size_ > capacity_ || size_ > n) return false;
  if (best_w_.size() != n || node_w_.size() != n ||
      node_estimate_w_.size() != n || mem_w_.size() != n ||
      cpu_count_.size() != n || gpu_count_.size() != n ||
      host_idx_.size() != n) {
    return false;
  }
  if (!domains_sized(cpu_w_, n) || !domains_sized(gpu_w_, n)) return false;
  const std::size_t words = (n + 63) / 64;
  if (node_present_.words.size() != words ||
      estimate_present_.words.size() != words ||
      mem_present_.words.size() != words ||
      gpu_is_oam_.words.size() != words ||
      sensor_fault_.words.size() != words) {
    return false;
  }
  if (size_ > 0 && head_ >= n) return false;
  for (std::size_t i = 0; i < size_; ++i) {
    const std::size_t p = phys(i);
    if (cpu_count_[p] > hwsim::kMaxSockets) return false;
    if (gpu_count_[p] > hwsim::kMaxGpuSensors) return false;
    if (host_idx_[p] >= host_table_.size()) return false;
    // A retained slot's domains must live in materialized columns.
    for (std::size_t c = 0; c < cpu_count_[p]; ++c) {
      if (cpu_w_[c].empty()) return false;
    }
    for (std::size_t g = 0; g < gpu_count_[p]; ++g) {
      if (gpu_w_[g].empty()) return false;
    }
    // The derived best_w column must agree with the validity bitmaps: the
    // direct sensor when present, else the estimate, else zero.
    const double expect = node_present_.get(p)
                              ? node_w_[p]
                              : (estimate_present_.get(p)
                                     ? node_estimate_w_[p]
                                     : 0.0);
    if (best_w_[p] != expect) return false;
    if (i > 0 && timestamp_[phys(i - 1)] > timestamp_[p]) return false;
  }
  return true;
}

}  // namespace fluxpower::monitor
