#include "apps/trace_replay.hpp"

#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/csv.hpp"

namespace fluxpower::apps {

namespace {

/// Column map resolved from a header row.
struct Columns {
  int timestamp = -1;
  std::vector<int> cpu;
  int mem = -1;
  std::vector<int> gpu;
};

Columns resolve_columns(const std::vector<std::string>& header) {
  Columns cols;
  for (std::size_t i = 0; i < header.size(); ++i) {
    const std::string& name = header[i];
    const int idx = static_cast<int>(i);
    if (name == "timestamp_s" || name == "timestamp") {
      cols.timestamp = idx;
    } else if (name.rfind("cpu", 0) == 0 && name.ends_with("_w") &&
               name.find("cap") == std::string::npos) {
      // Cap columns (cpu0_cap_w) are control state, not demand — the same
      // exclusion the GPU branch always had.
      cols.cpu.push_back(idx);
    } else if (name == "mem_w") {
      cols.mem = idx;
    } else if ((name.rfind("gpu", 0) == 0 || name.rfind("oam", 0) == 0) &&
               name.ends_with("_w") && name.find("cap") == std::string::npos) {
      cols.gpu.push_back(idx);
    }
  }
  if (cols.timestamp < 0) {
    throw std::invalid_argument("trace: no timestamp column in header");
  }
  return cols;
}

/// The cell at `idx` as a finite number; an absent or empty cell is 0. The
/// whole token must parse ("12abc" is rejected, not read as 12), and
/// "nan", "inf" and out-of-range values like "1e400" are rejected too.
double cell_number(const std::vector<std::string>& row, int idx) {
  if (idx < 0 || static_cast<std::size_t>(idx) >= row.size() ||
      row[static_cast<std::size_t>(idx)].empty()) {
    return 0.0;
  }
  const std::string& cell = row[static_cast<std::size_t>(idx)];
  double v = 0.0;
  const char* end = cell.data() + cell.size();
  const auto [ptr, ec] = std::from_chars(cell.data(), end, v);
  if (ec != std::errc{} || ptr != end || !std::isfinite(v)) {
    throw std::invalid_argument("trace: non-numeric cell '" + cell + "'");
  }
  return v;
}

}  // namespace

double DiurnalModel::level_at(double t_s) const noexcept {
  constexpr double kDayS = 86400.0;
  constexpr double kWeekS = 7.0 * kDayS;
  double week = std::fmod(t_s, kWeekS);
  if (week < 0.0) week += kWeekS;
  const int day = static_cast<int>(week / kDayS);
  const double h = std::fmod(week, kDayS) / 3600.0;

  double level = night_level;
  if (h >= ramp_start_h && h < ramp_end_h) {
    const double f = (h - ramp_start_h) / (ramp_end_h - ramp_start_h);
    level = night_level + (day_level - night_level) * f;
  } else if (h >= ramp_end_h && h < decline_start_h) {
    level = day_level;
  } else if (h >= decline_start_h && h < decline_end_h) {
    const double f = (h - decline_start_h) / (decline_end_h - decline_start_h);
    level = day_level + (night_level - day_level) * f;
  }
  if (day >= 5) level *= weekend_factor;
  return level;
}

PowerTrace make_diurnal_trace(const DiurnalModel& model, double duration_s,
                              double step_s, const hwsim::LoadDemand& peak) {
  if (duration_s <= 0.0 || step_s <= 0.0) {
    throw std::invalid_argument("make_diurnal_trace: nonpositive duration/step");
  }
  PowerTrace trace;
  const std::size_t steps = static_cast<std::size_t>(duration_s / step_s) + 1;
  trace.points.reserve(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    TracePoint p;
    p.t_s = static_cast<double>(i) * step_s;
    const double level = model.level_at(p.t_s);
    for (double w : peak.cpu_w) p.demand.cpu_w.push_back(w * level);
    for (double w : peak.gpu_w) p.demand.gpu_w.push_back(w * level);
    p.demand.mem_w = peak.mem_w * level;
    trace.points.push_back(std::move(p));
  }
  return trace;
}

PowerTrace PowerTrace::from_csv(const std::string& csv_text) {
  std::istringstream lines(csv_text);
  std::string line;
  if (!std::getline(lines, line)) {
    throw std::invalid_argument("trace: empty input");
  }
  const Columns cols = resolve_columns(util::parse_csv_line(line));

  PowerTrace trace;
  double t0 = 0.0;
  double prev_t = -1.0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const auto row = util::parse_csv_line(line);
    TracePoint p;
    const double t = cell_number(row, cols.timestamp);
    if (trace.points.empty()) t0 = t;
    p.t_s = t - t0;
    if (p.t_s < prev_t) {
      throw std::invalid_argument("trace: timestamps must be nondecreasing");
    }
    prev_t = p.t_s;
    for (int idx : cols.cpu) p.demand.cpu_w.push_back(cell_number(row, idx));
    for (int idx : cols.gpu) p.demand.gpu_w.push_back(cell_number(row, idx));
    p.demand.mem_w = cell_number(row, cols.mem);
    trace.points.push_back(std::move(p));
  }
  if (trace.points.empty()) {
    throw std::invalid_argument("trace: no data rows");
  }
  return trace;
}

TraceReplayRuntime::TraceReplayRuntime(sim::Simulation& sim,
                                       std::vector<hwsim::Node*> nodes,
                                       PowerTrace trace)
    : sim_(sim), nodes_(std::move(nodes)), trace_(std::move(trace)) {
  if (nodes_.empty()) {
    throw std::invalid_argument("TraceReplayRuntime: no nodes");
  }
  if (trace_.points.empty()) {
    throw std::invalid_argument("TraceReplayRuntime: empty trace");
  }
}

TraceReplayRuntime::~TraceReplayRuntime() { cancel(); }

void TraceReplayRuntime::start(std::function<void()> on_complete) {
  if (running_) {
    throw std::logic_error("TraceReplayRuntime::start: already running");
  }
  running_ = true;
  on_complete_ = std::move(on_complete);
  apply_point(0);
}

void TraceReplayRuntime::cancel() {
  if (!running_) return;
  running_ = false;
  if (pending_ != sim::kInvalidEvent) {
    sim_.cancel(pending_);
    pending_ = sim::kInvalidEvent;
  }
  for (hwsim::Node* n : nodes_) n->idle();
}

void TraceReplayRuntime::apply_point(std::size_t index) {
  pending_ = sim::kInvalidEvent;
  if (!running_) return;
  const TracePoint& p = trace_.points[index];
  for (hwsim::Node* n : nodes_) n->set_demand(p.demand);
  if (index + 1 >= trace_.points.size()) {
    // Hold the final point for one nominal gap, then finish. Single-point
    // traces hold for 2 s (one telemetry period).
    const double hold =
        trace_.points.size() > 1
            ? p.t_s - trace_.points[index - 1].t_s
            : 2.0;
    pending_ = sim_.schedule_after(std::max(hold, 1e-3), [this] { finish(); });
    return;
  }
  const double dt = trace_.points[index + 1].t_s - p.t_s;
  pending_ = sim_.schedule_after(std::max(dt, 1e-3),
                                 [this, index] { apply_point(index + 1); });
}

void TraceReplayRuntime::finish() {
  pending_ = sim::kInvalidEvent;
  if (!running_) return;
  running_ = false;
  for (hwsim::Node* n : nodes_) n->idle();
  if (on_complete_) {
    auto cb = std::move(on_complete_);
    cb();
  }
}

}  // namespace fluxpower::apps
