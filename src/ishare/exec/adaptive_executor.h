// Adaptive pace-schedule executor (DESIGN.md §6): keeps the paper's
// final-work goals when observed work drifts from the cost estimator's
// predictions or the stream arrives non-ideally. Extends PaceExecutor's
// semantics with mid-window pace re-derivation, graceful degradation under
// overload, and catch-up executions after bursts — all deterministic given
// the observed stream. Instrumented with obs spans/counters under
// exec.adaptive.* (DESIGN.md §7).
//
// Like PaceExecutor, the window is driven stepwise so the recovery layer
// (DESIGN.md §8) can checkpoint between event points and resume after a
// crash; every adaptation decision is work-based (never wall-clock), so a
// restored run replays the exact same skips, catch-ups and re-derivations.

#ifndef ISHARE_EXEC_ADAPTIVE_EXECUTOR_H_
#define ISHARE_EXEC_ADAPTIVE_EXECUTOR_H_

#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "ishare/common/status.h"
#include "ishare/cost/estimator.h"
#include "ishare/exec/pace_executor.h"
#include "ishare/exec/subplan_exec.h"
#include "ishare/flow/memory_budget.h"
#include "ishare/opt/pace_optimizer.h"
#include "ishare/recovery/checkpointable.h"

namespace ishare {

// Knobs of the adaptive runtime (see DESIGN.md, "Runtime robustness").
// Every decision is deterministic given the observed stream, so a run is
// replayable from a seeded FaultPlan.
struct AdaptivePolicy {
  // Re-derive the remaining paces when the observed/predicted work ratio
  // moves by more than this relative amount since the last correction.
  double drift_threshold = 0.5;
  // Declare overload when cumulative observed work exceeds this multiple
  // of the (drift-corrected) pro-rata work budget for the window so far.
  double overload_factor = 2.0;
  // Run an unscheduled catch-up execution when a subplan's pending input
  // exceeds this multiple of what its last execution consumed.
  double backlog_factor = 3.0;
  // Constraint headroom below which a query counts as at-risk; at-risk
  // queries' subplans are never degraded.
  double risk_margin = 0.05;
  // Drift and overload decisions need at least this many observed
  // scheduled executions (early executions are noise-dominated).
  int min_drift_samples = 3;
  // Hard cap on mid-window re-derivations (each costs optimizer time).
  int max_rederivations = 4;

  bool enable_rederive = true;
  bool enable_degradation = true;
  bool enable_catchup = true;

  // ---- Memory flow control (DESIGN.md §9) -------------------------------
  // All of these are inert until ExecOptions::flow.budget is set.
  //
  // Budget pressure (used/budget) at which slack-ordered deferral starts.
  // The deferral quota ramps linearly from 0 here to every sheddable
  // subplan at pressure 1.0 (flow::ShedQuota), so a slacker subplan is
  // always shed before a less-slack one.
  double shed_pressure_start = 0.7;
  // Defer scheduled intermediate executions of sheddable subplans under
  // pressure. Pure deferral: the trigger still runs over all remaining
  // input, so results are unchanged — only peak memory and latency move.
  bool enable_shed_defer = true;
  // At/over the hard budget, additionally *drop* pending input of the
  // slackest subplans (with exact accounting in FlowStats) until usage
  // fits. Off by default: drops trade result completeness of slack
  // queries for the hard memory bound; zero-slack queries are never
  // dropped from.
  bool enable_shed_drop = false;
  // Pressure at/above which the drop pass fires, and the level it drains
  // back below. 1.0 = act only once the hard budget is breached; lower
  // values leave headroom for the growth the upcoming executions will
  // add before the next drop pass can run.
  double drop_pressure_target = 1.0;
};

// What the adaptive layer did during one run.
struct AdaptationStats {
  int rederivations = 0;
  int64_t skipped_execs = 0;   // degraded (merged into a later execution)
  int64_t catchup_execs = 0;   // unscheduled executions against backlog
  double drift_ratio = 1.0;    // final observed/predicted work ratio
  double rederive_seconds = 0; // optimizer time spent mid-window
  // Pace configurations in effect over the run: the initial one plus one
  // entry per re-derivation.
  std::vector<PaceConfig> pace_history;
};

// One hard-budget drop: which subplan's pending input was discarded, at
// what slack. Reporting-only — not checkpointed and not part of the state
// fingerprint (a recovered run's log covers only post-restore drops).
struct ShedDropEvent {
  int64_t step = 0;    // 1-based step whose drop pass emitted this
  int subplan = 0;
  double slack = 0;    // subplan slack at drop time (the ordering key)
  int64_t tuples = 0;  // pending input discarded
};

struct AdaptiveRunResult {
  RunResult run;
  AdaptationStats stats;
  // Flow-control ledger (empty counts when no budget was attached).
  flow::FlowStats flow;
  std::vector<ShedDropEvent> drop_log;
};

// Pace-schedule executor that keeps the paper's final-work goals when the
// world diverges from the plan. Unlike PaceExecutor, which replays a
// precomputed ideal schedule, this executor
//   1. monitors drift between observed per-execution work and the cost
//      estimator's prediction, and re-derives the remaining paces
//      mid-window (PaceOptimizer, warm-started from the schedule in
//      flight, aimed at drift-corrected constraints);
//   2. degrades gracefully under overload: scheduled intermediate
//      executions of subplans whose queries have slack are skipped, which
//      merges their pending deltas into the next execution instead of
//      replaying a stale schedule;
//   3. catches up after bursts: a subplan whose input backlog spikes gets
//      an unscheduled execution so the backlog does not land in the final
//      (latency-critical) execution.
// Correctness is invariant under all three: the trigger execution always
// runs over all remaining input, so materialized results match the batch
// results — only work and latency change.
class AdaptiveExecutor : public recovery::Checkpointable {
 public:
  using StepHook = std::function<Status(int64_t step)>;
  using SubplanHook = std::function<Status(int64_t step, int subplan)>;
  // Fires after dependency level `wave` (0-based index among the step's
  // dispatched levels) finishes executing, before any metrics publish;
  // see PaceExecutor::WaveHook. Parallel path only.
  using WaveHook = std::function<Status(int64_t step, int wave)>;

  // `estimator` supplies the prediction baseline and the re-derivation
  // search space; `abs_constraints` are absolute final-work constraints
  // indexed by query id (same units as the estimator). The stream source
  // must be freshly constructed or Reset().
  AdaptiveExecutor(CostEstimator* estimator, StreamSource* source,
                   std::vector<double> abs_constraints,
                   AdaptivePolicy policy = AdaptivePolicy(),
                   ExecOptions opts = ExecOptions(),
                   PaceOptimizerOptions opt_opts = PaceOptimizerOptions());

  // Zeros the aggregated base-bytes component in the arbiter. Subplan
  // buffers and executors release their own components; the base
  // component is the executor's and would otherwise double-count across
  // churn epochs (DESIGN.md §13).
  ~AdaptiveExecutor();

  // Executes the whole trigger window starting from `initial_paces`.
  // Equivalent to BeginWindow + ResumeWindow.
  Result<AdaptiveRunResult> Run(const PaceConfig& initial_paces);

  // Stepwise spine, mirroring PaceExecutor's.
  Status BeginWindow(const PaceConfig& initial_paces);
  Result<AdaptiveRunResult> ResumeWindow();

  // Mid-window entry for churn epoch switches (DESIGN.md §13): like
  // BeginWindow, but the window starts at event points strictly after
  // `from` with the step counter seeded at `completed_steps`. The stream
  // source must already sit at `from` — the previous epoch's executor
  // left it there — and carried state is installed by the caller between
  // construction and the first RunStep().
  Status BeginWindowAt(const PaceConfig& paces, const Fraction& from,
                       int64_t completed_steps);

  // One event point of the window: execute, advance the step counter,
  // fire the after-step hook. InvalidArgument with no active window or no
  // remaining points. ResumeWindow() == loop RunStep() + CompleteWindow().
  Status RunStep();
  bool HasPendingSteps() const { return ws_.active && !ws_.points.empty(); }
  // Finalizes per-query aggregates and deactivates the window; valid only
  // when no points remain.
  Result<AdaptiveRunResult> CompleteWindow();
  // Last completed event point (the stream-source position).
  Fraction position() const { return ws_.last_point; }

  bool window_active() const { return ws_.active; }
  int64_t completed_steps() const { return ws_.step; }

  void set_after_step_hook(StepHook h) { after_step_ = std::move(h); }
  void set_before_subplan_hook(SubplanHook h) {
    before_subplan_ = std::move(h);
  }
  void set_after_wave_hook(WaveHook h) { after_wave_ = std::move(h); }

  // Owned worker pool, or nullptr when the executor runs serial (always
  // nullptr when a memory budget is attached; see the ctor). The chaos
  // injector targets it for worker stall/delay events.
  sched::WorkerPool* worker_pool() const { return pool_.get(); }

  // Live flow-control ledger and drop log of the window in flight; the
  // chaos Supervisor polls these per step to derive defer/shed activity.
  const flow::FlowStats& flow_stats() const { return ws_.out.flow; }
  const std::vector<ShedDropEvent>& drop_log() const {
    return ws_.out.drop_log;
  }

  // Checkpointable (DESIGN.md §8): pace table + drift state + remaining
  // event points + adaptation stats + the execution substrate. Restore
  // must be called on a freshly constructed executor over the same
  // estimator/graph and an un-advanced source.
  Status Snapshot(recovery::CheckpointWriter* w) const override;
  Status Restore(recovery::CheckpointReader* r) override;

  // Deterministic state digest excluding wall-clock timings (see
  // PaceExecutor::StateFingerprint).
  std::string StateFingerprint() const;

  // Leaf deltas already in buffers that the next executions will re-read;
  // right after Restore this is the recovery replay backlog.
  int64_t ReplayBacklog() const;

  // Total leaf tuples the engine has taken responsibility for (consumed
  // offsets across every subplan's leaves). The flow-accounting identity
  // the overload harness checks is
  //   ConsumedInput() == flow.admitted_tuples + flow.dropped_tuples.
  int64_t ConsumedInput() const;

  // Output buffer of query q's root subplan (valid after Run()).
  DeltaBuffer* query_output(QueryId q) const;
  DeltaBuffer* subplan_output(int subplan) const {
    return buffers_[subplan].get();
  }
  // The executor running subplan i; churn uses it to snapshot and carry
  // per-subplan operator state across an epoch switch.
  SubplanExecutor* subplan_executor(int i) const {
    return executors_[static_cast<size_t>(i)].get();
  }

  // Per-query time slackness under the current drift-corrected
  // predictions (see QuerySlackFractions); the shedding policy's ranking
  // signal. Valid after BeginWindow.
  const std::vector<double>& query_slack() const { return slack_; }

  // True when subplan s serves an at-risk query and is therefore exempt
  // from degradation and shedding. Valid after BeginWindow.
  bool subplan_protective(int s) const { return protective_[s]; }

 private:
  // Refreshes per-subplan work predictions and per-query risk flags for
  // the current pace configuration and drift estimate.
  void RecomputePredictions();
  void RebuildPoints(const Fraction& after);
  double DriftRatio() const;
  void PublishBaseBytes();
  Status ShedDropPass(const std::vector<int>& shed_order);
  Status StepOnce();
  // Level-parallel variant of StepOnce's decision/execution loop
  // (DESIGN.md §10): decisions are made level by level (a subplan's
  // catch-up test reads its children's freshly appended output, so
  // children's level must finish first), executions within a level fan
  // out on the pool, and metrics/stats apply serially in topo order
  // afterward. Only used when no memory budget is attached — admission
  // and shedding decisions are order-sensitive and stay serial.
  Status RunLevelsParallel(const Fraction& f, int64_t step, bool is_trigger,
                           bool overloaded);
  AdaptiveRunResult FinishWindow();
  Status SnapshotImpl(recovery::CheckpointWriter* w,
                      bool include_timings) const;

  const SubplanGraph* graph_;
  std::vector<int> topo_;  // graph_->TopoChildrenFirst(), computed once
  StreamSource* source_;
  CostEstimator* estimator_;
  std::vector<double> constraints_;
  AdaptivePolicy policy_;
  ExecOptions opts_;
  PaceOptimizerOptions opt_opts_;

  PaceConfig paces_;
  double corrected_ratio_ = 1.0;  // drift ratio at the last re-derivation
  std::vector<double> pred_final_;     // per-subplan final execution work
  std::vector<double> pred_nonfinal_;  // per-subplan avg intermediate work
  double pred_total_ = 0;              // whole-window work under paces_
  std::vector<bool> protective_;       // subplan serves an at-risk query
  // Queries admitted with zero initial slackness (window-start slack
  // <= 1e-9, before any drift correction). Their at-risk status is
  // sticky: a mid-window drift estimate that predicts spare headroom is
  // never grounds to shed work the window was admitted with no slack
  // for. Serialized in checkpoints so recovery preserves the guarantee.
  std::vector<bool> zero_slack_sticky_;
  std::vector<double> slack_;          // per-query time slackness [0, 1]
  std::vector<double> subplan_slack_;  // min slack over the served queries
  std::vector<bool> sheddable_;        // == !protective_, the shed universe
  // Aggregated base-buffer bytes component in opts_.flow.budget (-1 when
  // no budget); see PaceExecutor::base_component_.
  int base_component_ = -1;

  // Window state, all deterministic given the observed stream (the
  // *_seconds fields are reporting-only and never feed decisions).
  struct WindowState {
    AdaptiveRunResult out;
    std::set<Fraction> points;   // remaining event points
    Fraction last_point{0, 1};   // last completed point (source position)
    double drift_obs = 0;        // scheduled-execution observed work
    double drift_pred = 0;       // matching predicted work
    int64_t sched_execs = 0;
    double observed_total = 0;
    int64_t step = 0;            // completed event points (1-based count)
    bool active = false;
  };
  WindowState ws_;
  StepHook after_step_;
  SubplanHook before_subplan_;
  WaveHook after_wave_;

  // Owned worker pool (nullptr = serial) and the graph's static
  // dependency levels; both fixed at construction (DESIGN.md §10).
  std::unique_ptr<sched::WorkerPool> pool_;
  std::vector<std::vector<int>> levels_;

  std::vector<std::unique_ptr<DeltaBuffer>> buffers_;
  std::vector<std::unique_ptr<SubplanExecutor>> executors_;
};

}  // namespace ishare

#endif  // ISHARE_EXEC_ADAPTIVE_EXECUTOR_H_
