/**
 * @file
 * Shared test helpers for serve / fleet replays: the cheap
 * calibration knobs most replay tests use, and field-by-field
 * *bitwise* equality of serve and fleet ledgers (doubles compared
 * with ==, histograms by count, sum and order statistics).
 */

#ifndef TRANSFUSION_TESTS_SUPPORT_REPLAY_EQUALITY_HH
#define TRANSFUSION_TESTS_SUPPORT_REPLAY_EQUALITY_HH

#include <string>

#include <gtest/gtest.h>

#include "fleet/fleet_sim.hh"

namespace transfusion::test
{

/** TransFusion serving with tiny calibration: the tests exercise
 *  the replay, not the evaluator's fidelity. */
inline serve::ServeOptions
fastServe()
{
    serve::ServeOptions o;
    o.strategy = schedule::StrategyKind::TransFusion;
    o.max_batch = 4;
    o.cost.cache_samples = 3;
    o.cost.prefill_samples = 3;
    o.cost.evaluator.mcts.iterations = 32;
    return o;
}

/** A single-threaded fleet of fastServe() replicas. */
inline fleet::FleetOptions
fastFleet()
{
    fleet::FleetOptions o;
    o.serve = fastServe();
    o.threads = 1;
    o.plan_threads = 1;
    return o;
}

/** Histograms carry the raw samples; equal counts, bitwise-equal
 *  sums, and bitwise-equal order statistics pin the sample sets. */
inline void
expectSameHistogram(const Histogram &a, const Histogram &b,
                    const std::string &what)
{
    SCOPED_TRACE(what);
    ASSERT_EQ(a.count(), b.count());
    EXPECT_EQ(a.sum(), b.sum());
    for (const double p :
         { 0.0, 25.0, 50.0, 75.0, 95.0, 99.0, 100.0 })
        EXPECT_EQ(a.percentileOr(p, -1.0), b.percentileOr(p, -1.0))
            << "p" << p;
}

inline void
expectSameServeMetrics(const serve::ServeMetrics &a,
                       const serve::ServeMetrics &b)
{
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.generated_tokens, b.generated_tokens);
    EXPECT_EQ(a.prefill_rounds, b.prefill_rounds);
    EXPECT_EQ(a.decode_rounds, b.decode_rounds);
    EXPECT_EQ(a.peak_running, b.peak_running);
    EXPECT_EQ(a.peak_queue, b.peak_queue);
    EXPECT_EQ(a.peak_reserved_words, b.peak_reserved_words);
    EXPECT_EQ(a.kv_capacity_words, b.kv_capacity_words);
    EXPECT_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.tokens_per_second, b.tokens_per_second);
    EXPECT_EQ(a.prefill_energy_j, b.prefill_energy_j);
    EXPECT_EQ(a.decode_energy_j, b.decode_energy_j);
    EXPECT_EQ(a.chip_seconds, b.chip_seconds);
    expectSameHistogram(a.ttft_s, b.ttft_s, "ttft");
    expectSameHistogram(a.tpot_s, b.tpot_s, "tpot");
    expectSameHistogram(a.latency_s, b.latency_s, "latency");
    expectSameHistogram(a.queue_wait_s, b.queue_wait_s,
                        "queue_wait");
}

inline void
expectSameFleetMetrics(const fleet::FleetMetrics &a,
                       const fleet::FleetMetrics &b)
{
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.generated_tokens, b.generated_tokens);
    EXPECT_EQ(a.routed, b.routed);
    EXPECT_EQ(a.held_rejected, b.held_rejected);
    EXPECT_EQ(a.replica_downs, b.replica_downs);
    EXPECT_EQ(a.replica_ups, b.replica_ups);
    EXPECT_EQ(a.failover_drained, b.failover_drained);
    EXPECT_EQ(a.failover_reroutes, b.failover_reroutes);
    EXPECT_EQ(a.failover_exhausted, b.failover_exhausted);
    EXPECT_EQ(a.failover_wasted_tokens, b.failover_wasted_tokens);
    EXPECT_EQ(a.autoscaler_ticks, b.autoscaler_ticks);
    EXPECT_EQ(a.scale_ups, b.scale_ups);
    EXPECT_EQ(a.scale_downs, b.scale_downs);
    EXPECT_EQ(a.peak_serving, b.peak_serving);
    EXPECT_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.completed_per_second, b.completed_per_second);
    EXPECT_EQ(a.energy_j, b.energy_j);
    EXPECT_EQ(a.chip_seconds, b.chip_seconds);
    expectSameHistogram(a.ttft_s, b.ttft_s, "fleet ttft");
    expectSameHistogram(a.tpot_s, b.tpot_s, "fleet tpot");
    expectSameHistogram(a.latency_s, b.latency_s, "fleet latency");
    expectSameHistogram(a.queue_wait_s, b.queue_wait_s,
                        "fleet queue_wait");
    ASSERT_EQ(a.replicas.size(), b.replicas.size());
    for (std::size_t i = 0; i < a.replicas.size(); ++i) {
        SCOPED_TRACE("replica " + std::to_string(i));
        expectSameServeMetrics(a.replicas[i], b.replicas[i]);
    }
}

} // namespace transfusion::test

#endif // TRANSFUSION_TESTS_SUPPORT_REPLAY_EQUALITY_HH
