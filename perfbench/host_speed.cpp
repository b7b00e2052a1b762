// host_speed.cpp — the reference kernel behind HostSpeed (see bench.hpp).
//
// The kernel is a fixed, seeded imitation of a discrete-event simulator's
// inner loop: a binary heap of timed events, a hash-table lookup, a random
// write into a 256 KiB state array, a little floating-point arithmetic and
// a small heap allocation every eighth event. It is part of the benchmark
// and calls nothing in src/, so a change to the simulator cannot move it.
// Its working set fits in one core's L2 cache. An 8 MiB variant evicted
// the workload's data on every slice, and runs normalised with it spread
// 2-4x wider on site_fortnight.
#include <pthread.h>
#include <sched.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {

namespace {

/// The kernel's state, built once per sampler thread.
class Kernel {
 public:
  Kernel() : state_(std::size_t{1} << 15, 1.0) {
    for (std::uint32_t i = 0; i < 1024; ++i) {
      heap_.push({static_cast<double>(next() % 1000), i});
    }
    for (int i = 0; i < 4096; ++i) {
      keys_.push_back(next());
      table_[keys_.back()] = 0.5;
    }
  }

  void run(int events) {
    for (int s = 0; s < events; ++s) {
      const Event e = heap_.top();
      heap_.pop();
      const std::uint64_t r = next();
      double& v = table_[keys_[r % keys_.size()]];
      double& st = state_[(e.second * 2654435761ULL + r) & (state_.size() - 1)];
      st = st * 0.999 + std::sqrt(v + e.first * 1e-3);
      v = std::fmod(v + st, 7.0);
      if ((s & 7) == 0) {
        const std::vector<double> tmp(8 + (r & 15), st);
        acc_ += tmp.back();
      }
      acc_ += st;
      heap_.push({e.first + 1.0 + static_cast<double>(r % 64), e.second});
    }
  }
  double acc() const noexcept { return acc_; }

 private:
  using Event = std::pair<double, std::uint32_t>;
  std::uint64_t next() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }
  std::uint64_t x_ = 0x9E3779B97F4A7C15ULL;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> heap_;
  std::vector<double> state_;
  std::unordered_map<std::uint64_t, double> table_;
  std::vector<std::uint64_t> keys_;
  double acc_ = 0.0;
};

}  // namespace

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

bool pin_this_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
}

HostSpeed::HostSpeed(const std::vector<int>& cpus) {
  if (cpus.empty()) throw std::runtime_error("HostSpeed: no CPU to sample");
  try {
    for (int cpu : cpus) {
      threads_.emplace_back([this, cpu] { sample_loop(cpu); });
    }
  } catch (...) {
    stop();
    throw;
  }
  // Return once every sampler has warmed its kernel and there are enough
  // samples for scale() to answer at once.
  std::unique_lock lock(mutex_);
  wake_.wait(lock, [&] {
    return ready_ == threads_.size() && samples_.size() >= kMinSamples;
  });
}

HostSpeed::~HostSpeed() { stop(); }

void HostSpeed::stop() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void HostSpeed::sample_loop(int cpu) {
  pin_this_thread({cpu});
  Kernel kernel;
  kernel.run(kSliceEvents);
  {
    std::lock_guard lock(mutex_);
    ++ready_;
  }
  wake_.notify_all();
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kPeriodS));
  auto due = Clock::now();
  due -= due.time_since_epoch() % period;
  std::unique_lock lock(mutex_);
  for (;;) {
    // Every sampler wakes on the same ticks, so a workload's threads are
    // preempted together rather than one at a time.
    const auto now = Clock::now();
    while (due <= now) due += period;
    if (wake_.wait_until(lock, due, [this] { return stop_; })) break;
    lock.unlock();
    const auto t0 = Clock::now();
    kernel.run(kSliceEvents);
    const double seconds = seconds_since(t0);
    lock.lock();
    samples_.push_back({t0, seconds});
    if (samples_.size() <= kMinSamples) wake_.notify_all();
  }
  sink_ += kernel.acc();
}

double HostSpeed::scale(Clock::time_point from, Clock::time_point to) const {
  std::lock_guard lock(mutex_);
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kPeriodS));
  for (Clock::duration margin{0};; margin = 2 * margin + period) {
    double sum = 0.0;
    int n = 0;
    for (const Sample& s : samples_) {
      if (s.start >= from - margin && s.start <= to + margin) {
        sum += s.seconds;
        ++n;
      }
    }
    if (n >= static_cast<int>(kMinSamples) ||
        (n > 0 && margin > std::chrono::seconds(60))) {
      return kNominalSliceS * n / sum;
    }
    if (margin > std::chrono::seconds(60)) {
      throw std::runtime_error("HostSpeed: no sample within 60 s");
    }
  }
}

double HostSpeed::mean_slice_s() const {
  std::lock_guard lock(mutex_);
  double sum = 0.0;
  for (const Sample& s : samples_) sum += s.seconds;
  return samples_.empty() ? 0.0 : sum / static_cast<double>(samples_.size());
}

}  // namespace perfbench
