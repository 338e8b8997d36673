/**
 * @file
 * Deterministic discrete-event serving simulator: continuous
 * batching with KV-cache admission on top of the analytic cost
 * model.
 *
 * The event loop advances a virtual clock by the calibrated cost
 * of whole iterations, in the style of iteration-level schedulers
 * (Orca/vLLM): each round either prefills the newly admitted
 * requests or runs one decode step for every running request;
 * requests join the running batch as soon as a lane and their KV
 * reservation are available, and leave the moment their last token
 * is generated.  See DESIGN.md section 10 for the full event-loop,
 * admission, and determinism contract.
 *
 * The loop is exposed in two forms.  `run()` replays one trace to
 * completion — the original, pure API.  The session form
 * (`startSession` / `advance` / `finishSession`) runs the *same*
 * loop resumably against an explicit `ServeSession`, so a caller
 * can stop at a virtual-time horizon, mutate the world (the fault
 * layer drains in-flight work, swaps cost tables after a replan,
 * injects retry arrivals) and resume.  `run()` is implemented as a
 * single uninterrupted session, so both forms are bit-identical.
 */

#ifndef TRANSFUSION_SERVE_SIMULATOR_HH
#define TRANSFUSION_SERVE_SIMULATOR_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.hh"
#include "serve/cost_model.hh"
#include "serve/kv_cache.hh"
#include "serve/workload.hh"

namespace transfusion::serve
{

/** Serving-system configuration. */
struct ServeOptions
{
    schedule::StrategyKind strategy =
        schedule::StrategyKind::TransFusion;
    /** Decode lanes: most requests co-scheduled per step. */
    std::int64_t max_batch = 32;
    /**
     * Arrival-queue bound: requests arriving while this many are
     * already waiting are rejected (load shedding).
     */
    std::int64_t max_queue = 256;
    /** DRAM stack size; <= 0 means defaultDramCapacityBytes. */
    double dram_capacity_bytes = 0;
    /**
     * Chips this simulator occupies (a sharded replica sets its
     * cluster size).  Pure accounting: chip_seconds = chips *
     * makespan — it never changes the simulated schedule.
     */
    int chips = 1;
    /** Cost-table calibration knobs. */
    ServeCostOptions cost;
};

/** Aggregate result of one simulated trace. */
struct ServeMetrics
{
    std::int64_t offered = 0;   ///< requests in the trace
    std::int64_t completed = 0; ///< served to the last token
    std::int64_t rejected = 0;  ///< shed at admission
    std::int64_t generated_tokens = 0;
    std::int64_t prefill_rounds = 0;
    std::int64_t decode_rounds = 0;
    std::int64_t peak_running = 0; ///< most co-resident requests
    std::int64_t peak_queue = 0;   ///< deepest arrival queue
    double peak_reserved_words = 0; ///< KV high-water mark
    double kv_capacity_words = 0;
    double makespan_s = 0; ///< clock when the last request finishes
    /** Generated tokens per virtual second over the makespan. */
    double tokens_per_second = 0;

    /**
     * Metered energy, priced per round from the calibrated energy
     * tables (the same evaluator calls that priced the latency):
     * every prefill round adds each admitted prompt's prefill
     * joules, every decode round adds the step's interpolated
     * (batch, mean cache length) joules.
     */
    double prefill_energy_j = 0;
    double decode_energy_j = 0;
    /** Occupancy cost: options.chips * makespan_s. */
    double chip_seconds = 0;

    /** Total metered joules over the replay. */
    double energyJoules() const
    {
        return prefill_energy_j + decode_energy_j;
    }

    Histogram ttft_s;       ///< arrival -> first token
    Histogram tpot_s;       ///< mean inter-token time per request
    Histogram latency_s;    ///< arrival -> last token
    Histogram queue_wait_s; ///< arrival -> admission

    /**
     * One-line human summary of the ledger and the latency
     * distributions.  Zero-completion runs (every request shed)
     * render empty distributions and the undefined throughput as
     * explicit "-" fields instead of aborting — the regression the
     * fault layer's all-shed degraded windows exposed.
     */
    std::string summary() const;
};

/** One admitted, not-yet-finished request. */
struct InFlightRequest
{
    Request req;
    double first_token_s = 0;     ///< clock of its first token
    std::int64_t generated = 0;   ///< tokens emitted so far
};

/**
 * The running batch as a finish heap.  Every decode round hands
 * exactly one token to every running request and prefill rounds
 * never touch them, so a request admitted with one token while
 * `round` decode rounds have run finishes in round
 * round + output_len - 1: a decode round costs O(1) plus O(log n)
 * per finisher.  Invariants:
 *
 *  - finishers leave in admission order: slots are numbered in
 *    admission order and the heap is keyed (finish_round, slot);
 *  - the context sum is an exact integer below 2^53, so its double
 *    (and the mean cache length priced from it) does not depend on
 *    the order requests joined or left;
 *  - memory stays O(live): finished slots are compacted away (in
 *    order) once they outnumber the live ones, so
 *    slots() <= 2 * size() after every operation.
 *
 * The keys count decode rounds, not seconds, so the batch stays
 * valid across advance() calls, slowdown changes and a move to
 * another simulator's cost tables.
 */
class RunningBatch
{
  public:
    /** Live (admitted, unfinished) requests. */
    std::int64_t size() const { return std::ssize(heap_); }
    bool empty() const { return heap_.empty(); }
    /** Slots held, live or finished (the memory bound above). */
    std::size_t slots() const { return slots_.size(); }

    /** Sum of the live requests' cache lengths. */
    double contextSum() const { return static_cast<double>(ctx_); }

    /** Admit `req`, whose prefill round just produced its first
     *  token at `first_token_s`, while `round` decode rounds have
     *  run (so output_len > 1). */
    void admit(const Request &req, double first_token_s,
               std::int64_t round);

    /** Decode round `round` just ran: every live request gained one
     *  token, and those whose finish round it is leave — admission
     *  order — through finish(req, first_token_s) with their full
     *  context. */
    template <class Finish>
    void emitToken(std::int64_t round, const Finish &finish)
    {
        ctx_ += size();
        while (!heap_.empty() && heap_.front().first == round) {
            std::pop_heap(heap_.begin(), heap_.end(), Later());
            const Slot &slot = slots_[heap_.back().second];
            heap_.pop_back();
            finish(slot.req, slot.first_token_s);
            ctx_ -= slot.req.peakContext();
        }
        if (slots_.size() > 2 * heap_.size())
            compact(round);
    }

    /** The live requests in admission order, each with `generated`
     *  recovered from the rounds it has to go after `round`
     *  decode rounds. */
    std::vector<InFlightRequest> inFlight(std::int64_t round) const;

  private:
    struct Slot
    {
        Request req;
        double first_token_s = 0;
        /** Live while fewer decode rounds have run; the heap holds
         *  exactly the live slots. */
        std::int64_t finish_round = 0;
    };
    using HeapEntry = std::pair<std::int64_t, std::size_t>;
    using Later = std::greater<HeapEntry>;

    /** Drop the finished slots, keeping admission order, and
     *  re-key the heap on the new slot numbers. */
    void compact(std::int64_t round);

    std::vector<Slot> slots_;
    /** Min-heap on (finish_round, slot). */
    std::vector<HeapEntry> heap_;
    std::int64_t ctx_ = 0;
};

/** One load-shed request, with the clock when it was shed. */
struct ShedRecord
{
    Request req;
    double shed_s = 0;
};

/**
 * Resumable state of one serving replay.  Created by
 * ServeSimulator::startSession and advanced by
 * ServeSimulator::advance; every field is a value (the running
 * batch included) so a fault layer can drain/inject between
 * epochs.  Integer bookkeeping only — mutating it never touches
 * the cost tables, so moving a
 * session between simulators (after a degraded-mode replan) is
 * well-defined.
 */
struct ServeSession
{
    explicit ServeSession(double capacity_words)
        : cache(capacity_words)
    {}

    /** Full arrival-sorted trace; [0, next) already pulled. */
    std::vector<Request> pending;
    std::size_t next = 0;
    /** Arrived, not yet admitted (FIFO, bounded by max_queue). */
    std::deque<Request> queue;
    /** Admitted requests mid-generation. */
    RunningBatch running;
    /** The round loop's storage for one prefill round's admissions;
     *  empty between rounds. */
    std::vector<Request> admitted;
    /** KV reservation ledger (capacity survives replans). */
    KvCacheTracker cache;
    /** Virtual clock in seconds. */
    double now = 0;
    /**
     * Active compute-slowdown multiplier (>= 1): every prefill and
     * decode round takes `slowdown` times its calibrated cost while
     * set.  The fault/fleet layers write it between epochs (a gray
     * failure — fault_schedule's ChipSlowdown); 1.0 scales by an
     * exact IEEE no-op, so fault-free replays stay bit-identical to
     * the pre-slowdown simulator.  Energy is *not* scaled: a slowed
     * round does the same work, just slower.
     */
    double slowdown = 1.0;
    /** Partial metrics, finalized by finishSession. */
    ServeMetrics metrics;
    /**
     * Every request shed since the log was last consumed (queue
     * overflow and can-never-fit rejections).  Purely an audit
     * trail: run() ignores it, the fault layer drains it to decide
     * which sheds to retry.
     */
    std::vector<ShedRecord> shed_log;

    /** Whether any arrival, queued, or running work remains. */
    bool workLeft() const
    {
        return next < pending.size() || !queue.empty()
            || !running.empty();
    }

    /**
     * Requests this session still owes an answer for: the unpulled
     * pending tail, the arrival queue, and the running batch.  The
     * load signal a fleet router balances on.
     */
    std::int64_t outstanding() const
    {
        return static_cast<std::int64_t>(pending.size() - next)
            + static_cast<std::int64_t>(queue.size())
            + running.size();
    }

    /** The running batch as admission-order records with their
     *  tokens generated so far. */
    std::vector<InFlightRequest> inFlight() const
    {
        return running.inFlight(metrics.decode_rounds);
    }

    /** Unreserved KV words — the headroom a KV-pressure-aware
     *  router routes toward. */
    double freeKvWords() const
    {
        return cache.capacityWords() - cache.reservedWords();
    }
};

/**
 * Prices one (arch, model, strategy) serving configuration.
 *
 * Construction calibrates the cost tables (the expensive part);
 * run() replays request traces against them and is cheap, const,
 * and safe to call concurrently from many threads.
 *
 * Determinism guarantee: run() is a pure function of the request
 * trace and the construction arguments — identical across thread
 * counts, machines, and repetitions.
 */
class ServeSimulator
{
  public:
    /**
     * @param workload sizes the calibration grids (max context,
     *                 max prompt); traces replayed later typically
     *                 vary only the arrival rate and seed.
     */
    ServeSimulator(arch::ArchConfig arch,
                   model::TransformerConfig cfg,
                   const WorkloadOptions &workload,
                   ServeOptions options = {});

    /**
     * Assemble from a pre-built cost model and explicit KV
     * accounting (multi-chip sharded replicas calibrate their own
     * tables and aggregate capacity over the cluster, then plug in
     * here).  `options.strategy` must match the cost model's.
     */
    ServeSimulator(ServeCostModel cost, double words_per_token,
                   double capacity_words,
                   const WorkloadOptions &workload,
                   ServeOptions options = {});

    /** Replay one trace (requests sorted by arrival time). */
    ServeMetrics run(const std::vector<Request> &requests) const;

    /**
     * Validate `requests` (sorted, positive lengths) and open a
     * session over them with this simulator's KV capacity.
     */
    ServeSession
    startSession(std::vector<Request> requests) const;

    /**
     * Run the round loop until no work is left or the clock
     * reaches `horizon_s` (checked at round boundaries: a round in
     * flight when the horizon passes completes first, so a fault
     * at time T takes effect at the first boundary >= T).  With
     * `horizon_s` = +infinity this is exactly the run() loop.
     * The running batch persists in `session.running` between
     * calls (nothing is rebuilt per call); `session.inFlight()`
     * lists it.
     */
    void advance(ServeSession &session, double horizon_s) const;

    /**
     * Remove every in-flight request from `session`, releasing the
     * KV reservations in admission order, and return the drained
     * records (session.inFlight(), so `generated` counts the tokens
     * each request already emitted).  The fault layer calls this
     * on chip loss: the requests become retryable instead of
     * silently dropped.
     * Tokens they already generated stay counted in
     * `generated_tokens`; the caller tracks them as wasted.
     */
    std::vector<InFlightRequest>
    drainRunning(ServeSession &session) const;

    /**
     * Remove every not-yet-admitted request from `session` — the
     * arrival queue first (FIFO order), then the unpulled pending
     * tail (arrival order) — and return them.  Unlike a shed this
     * touches no reject counter: the requests are leaving to be
     * served elsewhere, not refused.  The fleet layer calls this
     * (paired with drainRunning) when a replica faults, so queued
     * work fails over instead of dying with the replica.
     */
    std::vector<Request> drainQueued(ServeSession &session) const;

    /**
     * Merge `arrivals` (sorted by arrival time, e.g. backoff
     * retries) into the not-yet-pulled tail of the session's
     * pending trace.  Arrivals in the past are legal: they are
     * pulled at the next round boundary.  Does not change
     * `metrics.offered` — a retry is a re-offer of an already
     * counted request.
     */
    void injectRequests(ServeSession &session,
                        std::vector<Request> arrivals) const;

    /**
     * Insert one arrival into the unpulled tail, after every tail
     * request arriving no later: the position injectRequests'
     * stable merge gives it, without the merge's buffer.  Same
     * validation and message as injectRequests.
     */
    void injectRequest(ServeSession &session,
                       const Request &arrival) const;

    /**
     * Finalize and return the session's metrics (peak KV words,
     * makespan, throughput) and record the replay-attribution
     * counters into the current obs registry.  Call exactly once,
     * after the last advance.
     */
    ServeMetrics finishSession(ServeSession &session) const;

    const ServeCostModel &costModel() const { return cost_; }
    const ServeOptions &options() const { return options_; }
    double kvWordsPerTokenUsed() const { return words_per_token_; }
    double kvCapacityWordsUsed() const { return capacity_words_; }

  private:
    ServeOptions options_;
    ServeCostModel cost_;
    double words_per_token_ = 0;
    double capacity_words_ = 0;
};

/** One load point of an offered-load sweep. */
struct ServeScenario
{
    WorkloadOptions workload;
    std::uint64_t seed = 1;
};

/**
 * Generate and replay every scenario against `sim`, fanning the
 * independent replays across worker threads.  Results come back in
 * input order and are bit-identical for any `threads` (<= 0 means
 * all hardware threads): each replay is serial and pure, and the
 * shared cost tables are immutable after construction.
 */
std::vector<ServeMetrics>
runScenarios(const ServeSimulator &sim,
             const std::vector<ServeScenario> &scenarios,
             int threads = 0);

} // namespace transfusion::serve

#endif // TRANSFUSION_SERVE_SIMULATOR_HH
