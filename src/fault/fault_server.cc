/**
 * @file
 * The fault-epoch loop: serve, fault, drain, replan, retry.
 */

#include "fault_server.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include "common/logging.hh"
#include "common/math_utils.hh"
#include "model/stack.hh"
#include "obs/obs.hh"

namespace transfusion::fault
{

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

} // namespace

double
RetryPolicy::delaySeconds(int attempt) const
{
    tf_assert(attempt >= 1, "retry attempts start at 1");
    // Iterated multiply instead of std::pow: bit-identical on any
    // libm.  Stop as soon as growth can no longer change the
    // result — the delay reached the cap, or the multiplier is 1
    // (the historical loop spun attempt-1 no-op multiplies there,
    // which a retry budget of 1e9 turns into real time) — and
    // clamp an intermediate overflow to the cap instead of handing
    // the caller an inf arrival time.
    double d = backoff_s;
    for (int i = 1; i < attempt; ++i) {
        if (d >= cap_s || !(multiplier > 1))
            break;
        d *= multiplier;
        if (!std::isfinite(d))
            return cap_s;
    }
    return std::min(d, cap_s);
}

void
RetryPolicy::validate() const
{
    if (!(backoff_s > 0) || !std::isfinite(backoff_s))
        tf_fatal("retry backoff_s must be positive and finite, "
                 "got ",
                 backoff_s);
    if (!(multiplier >= 1) || !std::isfinite(multiplier))
        tf_fatal("retry multiplier must be >= 1 and finite, got ",
                 multiplier);
    if (!(cap_s >= backoff_s) || !std::isfinite(cap_s))
        tf_fatal("retry cap_s must be finite and >= backoff_s, "
                 "got ",
                 cap_s);
    if (max_attempts < 0)
        tf_fatal("retry max_attempts must be non-negative, got ",
                 max_attempts);
}

std::optional<serve::Request>
RetryLedger::reoffer(const serve::Request &req, double t)
{
    int &k = attempts_[req.id];
    if (k >= policy_.max_attempts)
        return std::nullopt;
    ++k;
    serve::Request r = req;
    r.arrival_s = t + policy_.delaySeconds(k);
    return r;
}

bool
RetryLedger::exhausted(std::int64_t id) const
{
    const auto it = attempts_.find(id);
    return it != attempts_.end()
        && it->second >= policy_.max_attempts;
}

std::string
FaultServeMetrics::summary() const
{
    std::ostringstream os;
    os << serve.summary() << " | faults=" << fault_events
       << ", losses=" << chip_losses << ", slowdowns="
       << chip_slowdowns << ", replans=" << replans
       << ", evictions=" << evictions << ", retries=" << retries
       << " (completed " << retry_completed << ", exhausted "
       << retry_exhausted << "), wasted_tokens=" << wasted_tokens
       << ", degraded=" << formatSeconds(degraded_s)
       << ", outage=" << formatSeconds(outage_s);
    return os.str();
}

FaultTolerantServer::FaultTolerantServer(
    multichip::ClusterConfig cluster, model::TransformerConfig cfg,
    serve::WorkloadOptions workload, FaultServeOptions options)
    : cluster_(std::move(cluster)), cfg_(std::move(cfg)),
      workload_(workload), options_(std::move(options))
{
    cluster_.validate();
    cfg_.validate();
    workload_.validate();
    options_.retry.validate();
    spec_ = options_.initial_spec;
    if (spec_.tp <= 0 || spec_.pp <= 0)
        spec_ = multichip::planServingSpec(cluster_, cfg_, workload_,
                                           options_.serve,
                                           options_.plan_threads);
    sim_.emplace(multichip::shardedSimulator(
        cluster_, cfg_, spec_, workload_, options_.serve));
}

FaultServeMetrics
FaultTolerantServer::run(const std::vector<serve::Request> &requests,
                         const FaultSchedule &faults) const
{
    faults.validate(cluster_.size());

    FaultServeMetrics fm;
    if (faults.empty()) {
        // Delegate outright: the same code path (and the same
        // instrumentation) as the plain sharded simulator, so the
        // no-fault result is bit-identical by construction.
        fm.serve = sim_->run(requests);
        FaultWindow w;
        w.end_s = fm.serve.makespan_s;
        w.chips = cluster_.size();
        w.spec = spec_;
        w.tokens = fm.serve.generated_tokens;
        fm.windows.push_back(w);
        return fm;
    }

    TF_SPAN("fault.run");
    TF_TIMER("fault/run");

    ClusterHealth health(cluster_.size());
    bool outage = false;
    multichip::ShardSpec spec = spec_;
    const serve::ServeSimulator *sim = &*sim_;
    std::optional<serve::ServeSimulator> degraded;
    const model::StackConfig stack = model::decoderOnly(cfg_);

    serve::ServeSession session = sim_->startSession(requests);

    // Retry bookkeeping, keyed by the stable request id.
    RetryLedger ledger(options_.retry);
    std::set<std::int64_t> retried_ids;
    std::set<std::int64_t> final_rejected;

    double window_start = 0;
    std::int64_t window_token_mark = 0;
    const auto closeWindow = [&](double end) {
        FaultWindow w;
        w.start_s = window_start;
        w.end_s = std::max(end, window_start);
        w.chips = health.survivorCount();
        w.spec = outage ? multichip::ShardSpec{ 0, 0 } : spec;
        w.link_scale = health.linkScale();
        w.slowdown = health.pace();
        w.outage = outage;
        w.tokens =
            session.metrics.generated_tokens - window_token_mark;
        fm.windows.push_back(w);
        if (outage) {
            fm.outage_s += w.durationSeconds();
        } else if (health.degraded()) {
            fm.degraded_s += w.durationSeconds();
            if (w.slowdown > 1.0)
                fm.slowdown_s += w.durationSeconds();
        }
        window_start = w.end_s;
        window_token_mark = session.metrics.generated_tokens;
    };

    /** Queue a re-offer of `req` after backoff, or refuse when the
     *  budget is spent. */
    const auto scheduleRetry =
        [&](const serve::Request &req, double not_before,
            std::vector<serve::Request> &inject) {
            // The re-offer's clock restarts here: queue-wait and
            // latency of the retry measure the retry, and the
            // backoff delay shows up as degraded-window idle time.
            const std::optional<serve::Request> r =
                ledger.reoffer(req, not_before);
            if (!r)
                return false;
            inject.push_back(*r);
            retried_ids.insert(req.id);
            fm.retries += 1;
            return true;
        };

    const auto injectSorted =
        [&](std::vector<serve::Request> inject) {
            if (inject.empty())
                return false;
            std::sort(inject.begin(), inject.end(),
                      serve::arrivesBefore);
            sim->injectRequests(session, std::move(inject));
            return true;
        };

    /**
     * Consume the epoch's shed log.  On a degraded cluster sheds
     * are re-offered with backoff (masking the fault); on the
     * pristine cluster they are genuine overload and stay final —
     * which also keeps fault-free serving identical to the
     * baseline.  Returns whether anything was re-offered.
     */
    const auto processSheds = [&](bool retryable) {
        if (session.shed_log.empty())
            return false;
        std::vector<serve::ShedRecord> log;
        log.swap(session.shed_log);
        std::vector<serve::Request> inject;
        for (const serve::ShedRecord &rec : log) {
            if (retryable
                && scheduleRetry(rec.req, rec.shed_s, inject)) {
                // Back in flight: un-count the shed so the ledger
                // keeps offered == completed + rejected at exit.
                session.metrics.rejected -= 1;
            } else {
                final_rejected.insert(rec.req.id);
                if (ledger.exhausted(rec.req.id))
                    fm.retry_exhausted += 1;
            }
        }
        return injectSorted(std::move(inject));
    };

    /** Re-derive (plan, tables, capacity) from the health state. */
    const auto rebuild = [&]() {
        multichip::ClusterConfig surviving;
        surviving.name = cluster_.name + "-degraded";
        surviving.link = cluster_.link;
        surviving.link.bandwidth_bytes_per_sec *= health.linkScale();
        for (const int i : health.survivors())
            surviving.chips.push_back(
                cluster_.chips[static_cast<std::size_t>(i)]);

        if (surviving.size() == cluster_.size()
            && health.linkScale() == 1.0) {
            // Full recovery restores the exact initial plan and
            // tables — no replanning drift across an outage.
            outage = false;
            spec = spec_;
            sim = &*sim_;
            degraded.reset();
            session.cache.setCapacity(
                sim->kvCapacityWordsUsed());
            return;
        }
        const bool feasible = !surviving.chips.empty()
            && multichip::shardedWeightsFit(
                surviving, cfg_,
                options_.serve.dram_capacity_bytes)
            && !multichip::feasibleSpecs(
                    cfg_,
                    stack.encoder_layers + stack.decoder_layers,
                    surviving.size())
                    .empty();
        if (!feasible) {
            outage = true;
            spec = multichip::ShardSpec{ 0, 0 };
            return;
        }
        outage = false;
        spec = multichip::planServingSpec(surviving, cfg_, workload_,
                                          options_.serve,
                                          options_.plan_threads);
        degraded.emplace(multichip::shardedSimulator(
            surviving, cfg_, spec, workload_, options_.serve));
        sim = &*degraded;
        fm.replans += 1;
        session.cache.setCapacity(sim->kvCapacityWordsUsed());
    };

    const auto applyEvent = [&](const FaultEvent &e) {
        closeWindow(std::max(session.now, e.time_s));
        session.now = std::max(session.now, e.time_s);
        fm.fault_events += 1;
        health.apply(e);
        switch (e.kind) {
        case FaultKind::ChipLoss: {
            fm.chip_losses += 1;
            // The replica spans every chip, so one loss evicts the
            // whole in-flight batch; each request becomes a
            // re-offer (or a final reject once its budget is out).
            std::vector<serve::InFlightRequest> drained =
                sim->drainRunning(session);
            std::vector<serve::Request> inject;
            for (const serve::InFlightRequest &r : drained) {
                fm.evictions += 1;
                fm.wasted_tokens += r.generated;
                if (!scheduleRetry(r.req, e.time_s, inject)) {
                    session.metrics.rejected += 1;
                    final_rejected.insert(r.req.id);
                    fm.retry_exhausted += 1;
                }
            }
            injectSorted(std::move(inject));
            break;
        }
        case FaultKind::ChipRecovery:
            fm.chip_recoveries += 1;
            break;
        case FaultKind::LinkDegrade:
            fm.link_degradations += 1;
            break;
        case FaultKind::ChipSlowdown:
            fm.chip_slowdowns += 1;
            break;
        case FaultKind::SlowdownRecovery:
            fm.slowdown_recoveries += 1;
            break;
        }
        // Only structural events change the plan, the tables, or
        // the KV budget; a slowdown leaves all of them intact (the
        // chip still serves, just slower), so rebuilding there
        // would manufacture spurious replans — e.g. a slowdown on
        // chip A while chip B is down must not re-shard.
        switch (e.kind) {
        case FaultKind::ChipLoss:
        case FaultKind::ChipRecovery:
        case FaultKind::LinkDegrade:
            rebuild();
            break;
        case FaultKind::ChipSlowdown:
        case FaultKind::SlowdownRecovery:
            break;
        }
        session.slowdown = health.pace();
    };

    /** Terminal outage: account every outstanding request. */
    const auto rejectOutstanding = [&]() {
        tf_assert(session.running.empty(),
                  "outage with in-flight work not drained");
        for (const serve::Request &req : session.queue) {
            session.metrics.rejected += 1;
            final_rejected.insert(req.id);
        }
        session.queue.clear();
        for (; session.next < session.pending.size();
             ++session.next) {
            session.metrics.rejected += 1;
            final_rejected.insert(
                session.pending[session.next].id);
        }
    };

    const std::vector<FaultEvent> &events = faults.events;
    std::size_t ev = 0;
    while (true) {
        const bool has_event = ev < events.size();
        const double horizon =
            has_event ? events[ev].time_s : kInf;
        if (!outage) {
            // Serve up to the horizon, folding retry re-offers
            // (bounded by max_attempts, so this converges) back
            // into the same epoch when they land before it.
            while (true) {
                sim->advance(session, horizon);
                if (!processSheds(health.degraded()))
                    break;
                if (session.now >= horizon)
                    break;
            }
            if (!session.workLeft())
                break; // trace done; trailing events are moot
        } else if (!has_event) {
            rejectOutstanding();
            break;
        } else {
            // No feasible plan: nothing serves, the clock jumps.
            session.now = std::max(session.now, horizon);
        }
        tf_assert(has_event,
                  "fault loop stalled with work left and no "
                  "events");
        applyEvent(events[ev]);
        ++ev;
    }
    closeWindow(session.now);

    for (std::int64_t id : retried_ids)
        if (final_rejected.count(id) == 0)
            fm.retry_completed += 1;

    fm.serve = sim->finishSession(session);
    tf_assert(fm.serve.completed + fm.serve.rejected
                  == fm.serve.offered,
              "fault accounting leak: completed ",
              fm.serve.completed, " + rejected ",
              fm.serve.rejected, " != offered ",
              fm.serve.offered);

    // Fault attribution.  Only on the faulted path: a no-fault
    // replay must leave the registry exactly as the baseline
    // simulator does.
    TF_COUNT("fault/events", fm.fault_events);
    TF_COUNT("fault/chip_losses", fm.chip_losses);
    TF_COUNT("fault/chip_recoveries", fm.chip_recoveries);
    TF_COUNT("fault/link_degradations", fm.link_degradations);
    TF_COUNT("fault/replans", fm.replans);
    TF_COUNT("fault/evictions", fm.evictions);
    TF_COUNT("fault/retries", fm.retries);
    TF_COUNT("fault/retry_completed", fm.retry_completed);
    TF_COUNT("fault/retry_exhausted", fm.retry_exhausted);
    TF_COUNT("fault/wasted_tokens", fm.wasted_tokens);
    TF_GAUGE_ADD("fault/degraded_s", fm.degraded_s);
    TF_GAUGE_ADD("fault/outage_s", fm.outage_s);
    // Slowdown attribution only when a gray failure actually fired:
    // loss/link-only schedules keep their registry (and goldens)
    // byte-identical to the pre-slowdown server.
    if (fm.chip_slowdowns + fm.slowdown_recoveries > 0) {
        TF_COUNT("fault/chip_slowdowns", fm.chip_slowdowns);
        TF_COUNT("fault/slowdown_recoveries",
                 fm.slowdown_recoveries);
        TF_GAUGE_ADD("fault/slowdown_s", fm.slowdown_s);
    }
    TF_OBS_ONLY(for (std::size_t i = 0; i < fm.windows.size();
                     ++i) {
        const FaultWindow &w = fm.windows[i];
        const auto idx = static_cast<std::int64_t>(i);
        TF_COUNT(obs::metricKey("fault/window", idx, "tokens"),
                 w.tokens);
        TF_COUNT(obs::metricKey("fault/window", idx, "chips"),
                 w.chips);
        TF_GAUGE_ADD(
            obs::metricKey("fault/window", idx, "duration_s"),
            w.durationSeconds());
        if (w.slowdown > 1.0)
            TF_GAUGE_MAX(
                obs::metricKey("fault/window", idx, "slowdown"),
                w.slowdown);
    })
    return fm;
}

} // namespace transfusion::fault
