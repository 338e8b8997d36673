/**
 * @file
 * Fault-tolerant sharded serving: replay a request trace against a
 * multi-chip replica while a FaultSchedule degrades the cluster
 * underneath it.
 *
 * The server drives the serve::ServeSimulator session API in
 * *epochs* bounded by fault timestamps.  At each event it closes
 * the current health window, applies the event to its
 * ClusterHealth (the surviving chips, the pace and the link scale
 * all come from there), and resumes:
 *
 *  - chip loss: every in-flight request is drained (the sharded
 *    replica spans all chips, so losing one kills the whole
 *    batch's shards), its KV reservations are released, the tokens
 *    it already generated are counted as wasted, and the request
 *    is re-offered after a capped exponential backoff — retryable,
 *    never silently dropped;
 *  - replan: planShards() re-runs over the surviving chips for a
 *    new (tp, pp), the cost tables and the pooled-KV budget are
 *    rebuilt, and the session resumes against them.  When no
 *    feasible plan exists (weights no longer fit, or no chips
 *    survive) the server enters *outage* mode: the clock jumps to
 *    the next event, and a schedule that ends in outage rejects
 *    all outstanding work so every request is still accounted;
 *  - recovery: the chip re-admits, and full health restores the
 *    exact initial plan and cost tables (no re-planning drift);
 *  - link degrade: tables rebuild on the scaled fabric; in-flight
 *    work keeps running.
 *  - chip slowdown (gray failure): no drain and no replan — the
 *    chip still serves — but the session runs every round at the
 *    effective multiplier (max over slowed chips: a fused pipeline
 *    paces on its slowest member), and sheds during the slowdown
 *    become retryable exactly like other degraded windows.  The
 *    paired recovery restores full speed.
 *
 * Determinism contract: run() is a pure function of (requests,
 * schedule) and the construction arguments, bit-identical for any
 * plan_threads (planShards keeps the sweep-merge rule).  With an
 * *empty* schedule the epoch loop collapses to one uninterrupted
 * advance() and no retry/fault instrumentation fires, so the
 * result — metrics and RunReport — is bit-for-bit the plain
 * sharded simulator's.
 */

#ifndef TRANSFUSION_FAULT_FAULT_SERVER_HH
#define TRANSFUSION_FAULT_FAULT_SERVER_HH

#include <map>
#include <optional>
#include <vector>

#include "fault/fault_schedule.hh"
#include "multichip/shard_plan.hh"
#include "multichip/sharded_serve.hh"

namespace transfusion::fault
{

/** Capped exponential backoff for re-offered requests. */
struct RetryPolicy
{
    /** Delay before the first retry of a request. */
    double backoff_s = 0.5;
    /** Delay growth per further attempt. */
    double multiplier = 2.0;
    /** Upper bound on any single delay. */
    double cap_s = 8.0;
    /** Retries per request before it is rejected for good. */
    int max_attempts = 4;

    /**
     * min(cap, backoff * multiplier^(attempt-1)); attempt >= 1.
     * Hardened for huge retry budgets: the iterated multiply stops
     * the moment the delay reaches the cap (O(log) multiplies, not
     * O(attempt), even for attempt >= 1e3 or multiplier == 1) and
     * an intermediate double overflow clamps to cap_s instead of
     * leaking inf into a retry arrival time.
     */
    double delaySeconds(int attempt) const;

    /** Fatal unless delays/counts are positive, finite and sane. */
    void validate() const;
};

/**
 * Per-request retry budgets under one RetryPolicy, keyed by the
 * stable request id: the k-th re-offer of a request arrives
 * delaySeconds(k) after it left, until max_attempts re-offers are
 * spent.  The fault server and the fleet both decide retries here.
 */
class RetryLedger
{
  public:
    explicit RetryLedger(const RetryPolicy &policy) : policy_(policy)
    {}

    /**
     * The re-offer of `req` for its next attempt — `req` with its
     * clock restarted at `t` plus that attempt's backoff — or
     * nullopt once its budget is spent.
     */
    std::optional<serve::Request> reoffer(const serve::Request &req,
                                          double t);

    /** Whether `id` has been through reoffer() and has no
     *  re-offers left. */
    bool exhausted(std::int64_t id) const;

  private:
    RetryPolicy policy_;
    /** Re-offers granted so far, per request id. */
    std::map<std::int64_t, int> attempts_;
};

/** Configuration of one fault-tolerant serving replica. */
struct FaultServeOptions
{
    /** Simulator knobs (strategy, batching, queue, calibration). */
    serve::ServeOptions serve;
    /**
     * Sharding of the healthy cluster; tp = pp = 0 (the default)
     * plans it with planShards at construction.
     */
    multichip::ShardSpec initial_spec{ 0, 0 };
    RetryPolicy retry;
    /** Worker threads for (re)planning; <= 0 = all hardware.
     *  Results are bit-identical for any value. */
    int plan_threads = 0;
};

/** One maximal span of constant cluster health. */
struct FaultWindow
{
    double start_s = 0;
    double end_s = 0;
    /** Healthy chips during the window. */
    int chips = 0;
    /** Active sharding ({0, 0} during an outage). */
    multichip::ShardSpec spec{ 0, 0 };
    /** Pristine-relative link bandwidth scale. */
    double link_scale = 1.0;
    /** Effective compute-slowdown multiplier (max over chips with
     *  an active gray failure); 1.0 = full speed. */
    double slowdown = 1.0;
    /** No feasible plan: the replica served nothing. */
    bool outage = false;
    /** Tokens generated inside the window (throughput-loss
     *  attribution per fault window). */
    std::int64_t tokens = 0;

    double durationSeconds() const { return end_s - start_s; }
};

/** Aggregate result of one degraded replay. */
struct FaultServeMetrics
{
    /** The underlying trace ledger.  Under faults, ttft/queue-wait
     *  histograms sample per *admission* and latency per completed
     *  attempt (a retried request's clock restarts at its
     *  re-offer); offered == completed + rejected always holds. */
    serve::ServeMetrics serve;

    std::int64_t fault_events = 0; ///< events applied to the run
    std::int64_t chip_losses = 0;
    std::int64_t chip_recoveries = 0;
    std::int64_t link_degradations = 0;
    std::int64_t chip_slowdowns = 0; ///< gray failures applied
    std::int64_t slowdown_recoveries = 0;
    std::int64_t replans = 0;   ///< successful re-shardings
    std::int64_t evictions = 0; ///< in-flight requests drained
    std::int64_t retries = 0;   ///< re-offers injected
    std::int64_t retry_completed = 0; ///< retried and finished
    std::int64_t retry_exhausted = 0; ///< rejected after max tries
    /** Tokens generated by later-evicted in-flight work. */
    std::int64_t wasted_tokens = 0;
    /** Time served on a degraded (but feasible) cluster. */
    double degraded_s = 0;
    /** Subset of degraded_s with an active compute slowdown. */
    double slowdown_s = 0;
    /** Time with no feasible plan at all. */
    double outage_s = 0;
    /** Health windows in time order (first covers t = 0). */
    std::vector<FaultWindow> windows;

    /** One-line ledger + fault-accounting summary. */
    std::string summary() const;
};

/**
 * A sharded serving replica that survives a FaultSchedule.
 * Construction calibrates the healthy-cluster cost tables (the
 * expensive part); run() replays traces and is const.
 */
class FaultTolerantServer
{
  public:
    /**
     * @param workload sizes the calibration grids, exactly as for
     *                 serve::ServeSimulator.
     */
    FaultTolerantServer(multichip::ClusterConfig cluster,
                        model::TransformerConfig cfg,
                        serve::WorkloadOptions workload,
                        FaultServeOptions options = {});

    /**
     * Replay `requests` (sorted by arrival) under `faults`
     * (validated against the cluster size).  Events after the last
     * request completes are skipped — the trace is done.  Asserts
     * the accounting invariant offered == completed + rejected.
     */
    FaultServeMetrics run(const std::vector<serve::Request> &requests,
                          const FaultSchedule &faults) const;

    /** The healthy-cluster sharding in force at t = 0. */
    multichip::ShardSpec initialSpec() const { return spec_; }

  private:
    multichip::ClusterConfig cluster_;
    model::TransformerConfig cfg_;
    serve::WorkloadOptions workload_;
    FaultServeOptions options_;
    multichip::ShardSpec spec_{ 0, 0 };
    /** Healthy-cluster simulator, calibrated once. */
    std::optional<serve::ServeSimulator> sim_;
};

} // namespace transfusion::fault

#endif // TRANSFUSION_FAULT_FAULT_SERVER_HH
