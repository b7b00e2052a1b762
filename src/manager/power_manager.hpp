// power_manager.hpp — the flux-power-manager broker module (§III-B).
//
// Hierarchical and state-aware:
//   * cluster-level-manager (root rank): knows every running job; ensures
//     total cluster draw never exceeds the global bound P_G. Implements the
//     proportional-sharing policy of §III-B1: a new job gets peak power per
//     node when P_avail suffices, otherwise power is redistributed across
//     *all* jobs at P_n = P_G / total allocated nodes.
//   * job-level-manager (root rank): splits a job's power limit equally
//     over its nodes and pushes per-node limits over the TBON.
//   * node-level-manager (every rank): enforces the node limit through
//     Variorum according to the configured NodePolicy, tracks local power
//     in its own control loop, and runs the per-GPU FPP controllers.
// All three communicate exclusively via RPC messages.
//
// Node policies are a closed enum (manager::NodePolicy) dispatched here: one
// switch in enforce_node_limit(), the periodic tasks load() wires up per
// policy, and one plain progress-state member shared by the two
// progress-driven policies. node_policy_name() is the only name table.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "flux/broker.hpp"
#include "flux/jobspec.hpp"
#include "flux/module.hpp"
#include "manager/fpp.hpp"
#include "manager/policy.hpp"
#include "sim/simulation.hpp"
#include "util/ring_buffer.hpp"

namespace fluxpower::manager {

inline constexpr const char* kSetNodeLimitTopic = "power-manager.set-node-limit";
inline constexpr const char* kClusterStatusTopic = "power-manager.cluster-status";
inline constexpr const char* kNodeStatusTopic = "power-manager.node-status";
inline constexpr const char* kSetClusterBoundTopic =
    "power-manager.set-cluster-bound";
inline constexpr const char* kSetLowPowerTopic = "power-manager.set-low-power";
inline constexpr const char* kHistoryTopic = "power-manager.history";

class PowerManagerModule final : public flux::Module {
 public:
  /// Throws std::invalid_argument when config.quarantine_threshold < 1.
  explicit PowerManagerModule(PowerManagerConfig config = {});
  ~PowerManagerModule() override;

  const char* name() const override { return "power-manager"; }
  void load(flux::Broker& broker) override;
  void unload() override;

  const PowerManagerConfig& config() const noexcept { return config_; }

  // -- Node-level introspection (tests / timeline benches) -------------------
  double node_limit_w() const noexcept { return node_limit_w_; }
  double last_gpu_budget_w() const noexcept { return last_gpu_budget_w_; }
  /// Enforcement attempts that hit a transient IoError and were rescheduled
  /// with backoff. Backed by the broker registry
  /// (fluxpower_manager_cap_retries_total) once loaded.
  std::uint64_t cap_retries() const noexcept {
    return cap_retries_total_ != nullptr ? cap_retries_total_->value() : 0;
  }
  /// True while a backoff retry is queued.
  bool cap_retry_pending() const noexcept {
    return cap_retry_event_ != sim::kInvalidEvent;
  }
  const std::vector<std::unique_ptr<FppController>>& fpp_controllers() const {
    return fpp_;
  }
  /// Progress-driven policies (ProgressBased, PiBound): latest measured
  /// work/s (-1 before a signal), active cap (0 = follow the budget), and
  /// whether ProgressBased has latched its hold. Every other policy reads
  /// -1, 0 and false.
  double progress_rate() const noexcept { return progress_.rate; }
  double progress_cap_w() const noexcept { return progress_.cap_w; }
  bool progress_holding() const noexcept {
    return progress_.phase == ProgressPhase::Hold;
  }

  // -- Cluster-level introspection (root only) --------------------------------
  struct JobAllocation {
    std::vector<flux::Rank> ranks;
    double job_power_w = 0.0;   ///< job-level power limit P_i
    double node_power_w = 0.0;  ///< per-node limit
    /// Self-imposed per-node cap from the jobspec (0 = none). The job never
    /// receives more than this; its unused share flows to other jobs.
    double requested_node_power_w = 0.0;
  };
  const std::map<flux::JobId, JobAllocation>& allocations() const {
    return allocations_;
  }
  /// Sum of job power limits P_k (root only).
  double allocated_power_w() const;

  /// Quarantined ranks (root only): nodes whose limit pushes kept failing.
  /// Their budget is reserved at node_peak_w until a push succeeds again.
  const std::set<flux::Rank>& quarantined() const noexcept {
    return quarantined_;
  }
  /// Lifetime count of quarantine entries (a rank entering twice counts
  /// twice) — the flap-rate denominator for reliability tables. Backed by
  /// the broker registry (fluxpower_manager_quarantine_events_total).
  std::uint64_t quarantine_events() const noexcept {
    return quarantine_events_total_ != nullptr
               ? quarantine_events_total_->value()
               : 0;
  }

  // -- Twin-codec introspection ----------------------------------------------
  /// Consecutive failed limit pushes per rank (root only).
  const std::map<flux::Rank, int>& push_strikes() const noexcept {
    return push_strikes_;
  }
  /// Node-level backoff-ladder position (0 = at rest).
  double cap_retry_delay_s() const noexcept { return cap_retry_delay_s_; }
  int emergency_strike_count() const noexcept { return emergency_strikes_; }
  /// FPP control-loop phase (twin codec: the rotation position decides
  /// which controller probes next under stagger_probes).
  std::size_t fpp_control_round() const noexcept { return fpp_control_round_; }
  double time_since_fpp_control_s() const noexcept {
    return time_since_fpp_control_s_;
  }
  bool emergency_active() const noexcept { return emergency_active_; }
  /// Append the node policy's mutable state to `out` for the twin's POL
  /// section: a fixed-width blob for ProgressBased and PiBound, nothing for
  /// the other policies.
  void encode_policy_state(std::vector<std::uint8_t>& out) const;

 private:
  // Cluster-level-manager (root).
  void on_job_event(const flux::Message& event);
  void reallocate();
  void update_idle_states();
  /// Acknowledged per-rank push; the ack (or its absence) feeds
  /// record_push_result.
  void push_node_limit(flux::Rank rank, double limit_w);
  /// Strike/clear bookkeeping for a limit-push outcome; drives quarantine.
  /// `retrying` means the rank answered but its local backoff ladder is
  /// still converging — responsive, so neither a strike nor a clear.
  void record_push_result(flux::Rank rank, bool applied, bool retrying);
  /// Arm the next recovery probe for a quarantined rank.
  void schedule_quarantine_probe(flux::Rank rank);
  /// Re-push a striking (but not yet quarantined) rank's share after
  /// push_timeout_s, so an unresponsive rank accrues its strikes without
  /// waiting for the next allocation event. One in flight per rank.
  void schedule_push_retry(flux::Rank rank);
  /// Coalesce forced redistributions: any burst of quarantine flips within
  /// the damping window causes one reallocate, not one per push ack.
  void request_forced_reallocate();

  /// Wrap a deferred callback (sim event, RPC handler or its timeout) that
  /// unload() cannot cancel: it runs only while this load is live. The
  /// broker destroys an unloaded module at once, so a callback that fires
  /// later must not touch the module; it holds a weak reference to
  /// load_token_, which unload() drops.
  template <class Fn>
  auto while_loaded(Fn fn) {
    return [token = std::weak_ptr<const int>(load_token_),
            fn = std::move(fn)](const auto&... args) {
      if (!token.expired()) fn(args...);
    };
  }

  // Node-level-manager (all ranks).
  void handle_set_node_limit(const flux::Message& req);
  /// Apply the active limit as config_.node_policy says; false when any
  /// cap write failed transiently (CapStatus::IoError) — permanent
  /// refusals are not failures.
  bool enforce_node_limit();
  /// enforce_node_limit plus the backoff ladder: on transient failure,
  /// schedule a re-enforcement after the current backoff delay (doubling
  /// up to cap_retry_max_s); on success, reset the ladder.
  bool enforce_with_retry();
  void control_tick();
  double derive_gpu_budget_w();
  bool apply_uniform_cap(double cap_w);
  /// FPP: a raised or fresh limit starts a new epoch with rebuilt
  /// controllers.
  void restart_fpp_epoch();

  /// Which device class FPP / budget enforcement manages on this node:
  /// GPUs when present, CPU sockets otherwise (device-agnostic FPP).
  bool manages_gpus() const;
  FppConfig domain_fpp_config() const;
  int managed_domain_count() const;

  PowerManagerConfig config_;
  flux::Broker* broker_ = nullptr;
  /// Alive from load() to unload(); see while_loaded.
  std::shared_ptr<const int> load_token_;

  // Node-level state.
  double node_limit_w_ = 0.0;  ///< 0 = unconstrained
  double last_gpu_budget_w_ = 0.0;
  double cap_retry_delay_s_ = 0.0;  ///< 0 = ladder at rest
  sim::EventId cap_retry_event_ = sim::kInvalidEvent;
  /// Sim time when the current enforcement attempt (possibly a whole
  /// backoff ladder) started; < 0 when no attempt is in flight. Feeds the
  /// cap-write latency histogram on success.
  double cap_attempt_start_s_ = -1.0;
  // Instruments in the owning broker's registry (bound and reset in
  // load(); the registry outlives the module).
  obs::Counter* cap_retries_total_ = nullptr;
  obs::Counter* quarantine_events_total_ = nullptr;
  obs::Counter* push_strikes_total_ = nullptr;
  obs::Counter* limit_pushes_total_ = nullptr;
  obs::Histogram* cap_backoff_seconds_ = nullptr;
  obs::Histogram* cap_write_latency_ = nullptr;
  obs::Gauge* quarantined_nodes_ = nullptr;
  std::vector<std::unique_ptr<FppController>> fpp_;
  std::unique_ptr<sim::PeriodicTask> control_task_;
  std::unique_ptr<sim::PeriodicTask> sample_task_;
  std::unique_ptr<sim::PeriodicTask> fft_task_;
  double time_since_fpp_control_s_ = 0.0;
  std::size_t fpp_control_round_ = 0;

  // Progress-driven policies (ProgressBased, PiBound): the job.progress
  // subscription, the control task, and the state both controllers read.
  // The fields each policy serializes are listed in encode_policy_state.
  enum class ProgressPhase : std::uint32_t { Baseline, Probing, Hold };
  struct ProgressState {
    ProgressPhase phase = ProgressPhase::Baseline;  ///< ProgressBased
    double last_work = -1.0;
    double last_t = 0.0;
    double rate = -1.0;        ///< latest measured work/s
    double baseline = -1.0;    ///< rate at the full budget
    double cap_w = 0.0;        ///< active cap (0 = follow budget)
    double last_good_w = 0.0;  ///< ProgressBased: last unharmed cap
    double integral = 0.0;     ///< PiBound: accumulated error
  };
  bool progress_driven() const noexcept;
  void on_progress_event(const flux::Message& event);
  /// A new job or new headroom: forget everything but the last sample time.
  void reset_progress();
  /// ProgressBased tick: probe the cap down while progress holds, restore
  /// the last good cap and hold once it degrades.
  void progress_probe_tick();
  /// PiBound tick: PI loop steering the cap to the degradation bound.
  void pi_bound_tick();
  /// The uniform cap under `budget`: the progress cap when one is active.
  double progress_capped(double budget) const noexcept;
  ProgressState progress_;
  std::uint64_t progress_subscription_ = 0;
  std::unique_ptr<sim::PeriodicTask> progress_task_;

  // Cluster-level state (root only).
  std::map<flux::JobId, JobAllocation> allocations_;
  std::vector<std::uint64_t> subscriptions_;
  /// Consecutive failed limit pushes per rank; reset by any applied ack.
  std::map<flux::Rank, int> push_strikes_;
  std::set<flux::Rank> quarantined_;
  /// Ranks with a queued strike re-push (bounds retries to one in flight).
  std::set<flux::Rank> push_retry_pending_;
  sim::EventId forced_reallocate_event_ = sim::kInvalidEvent;
  std::unique_ptr<sim::PeriodicTask> refresh_task_;
  /// Allocation history ring: {t, bound, allocated_w, nodes, jobs} sampled
  /// every history_period_s, served via kHistoryTopic for dashboards.
  struct HistoryPoint {
    double t_s = 0.0;
    double bound_w = 0.0;
    double allocated_w = 0.0;
    int allocated_nodes = 0;
    int jobs = 0;
  };
  std::unique_ptr<util::RingBuffer<HistoryPoint>> history_;
  std::unique_ptr<sim::PeriodicTask> history_task_;

  // Emergency power response (root only).
  void emergency_check();
  void engage_emergency();
  void release_emergency();
  std::unique_ptr<sim::PeriodicTask> emergency_task_;
  int emergency_strikes_ = 0;
  bool emergency_active_ = false;
};

}  // namespace fluxpower::manager
