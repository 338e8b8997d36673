/**
 * @file
 * Unit tests for the serving event loop: admission, queueing,
 * shedding, and metric bookkeeping.
 */

#include <limits>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "serve/simulator.hh"

namespace transfusion::serve
{
namespace
{

WorkloadOptions
calmWorkload()
{
    WorkloadOptions wl;
    wl.arrival_per_s = 0.01; // requests far apart
    wl.requests = 10;
    wl.prompt = { 256, 256 };
    wl.output = { 32, 32 };
    return wl;
}

ServeOptions
fastServe(schedule::StrategyKind kind =
              schedule::StrategyKind::FuseMax)
{
    ServeOptions o;
    o.strategy = kind;
    o.max_batch = 4;
    o.cost.cache_samples = 3;
    o.cost.prefill_samples = 3;
    o.cost.evaluator.mcts.iterations = 64;
    return o;
}

TEST(ServeSimulator, LowLoadServesEveryRequestAlone)
{
    const auto wl = calmWorkload();
    const ServeSimulator sim(arch::edgeArch(), model::t5Small(),
                             wl, fastServe());
    const auto trace = generateWorkload(wl, 1);
    const auto m = sim.run(trace);

    EXPECT_EQ(m.offered, wl.requests);
    EXPECT_EQ(m.completed, wl.requests);
    EXPECT_EQ(m.rejected, 0);
    // Every request generates its full output.
    EXPECT_EQ(m.generated_tokens, wl.requests * 32);
    // Arrivals are ~100 s apart vs sub-second service: no overlap.
    EXPECT_EQ(m.peak_running, 1);
    EXPECT_DOUBLE_EQ(m.queue_wait_s.max(), 0.0);
    // One KV reservation at a time.
    EXPECT_DOUBLE_EQ(m.peak_reserved_words,
                     kvWordsPerToken(model::t5Small())
                         * (256.0 + 32.0));
    // TTFT <= total latency, and both are per-completed-request.
    EXPECT_EQ(m.ttft_s.count(),
              static_cast<std::size_t>(m.completed));
    EXPECT_EQ(m.latency_s.count(),
              static_cast<std::size_t>(m.completed));
    EXPECT_LT(m.ttft_s.max(), m.latency_s.min() + 1e-12);
    EXPECT_GT(m.tokens_per_second, 0.0);
    EXPECT_GT(m.decode_rounds, 0);
}

TEST(ServeSimulator, TightKvBudgetSerializesAdmission)
{
    auto wl = calmWorkload();
    wl.arrival_per_s = 1e6; // everyone arrives at once
    wl.requests = 6;
    const auto arch = arch::edgeArch();
    const auto cfg = model::t5Small();

    auto opts = fastServe();
    // Budget: weights + 1.5 request reservations, so exactly one
    // request fits at a time.
    const double res_bytes = kvWordsPerToken(cfg) * (256.0 + 32.0)
        * arch.element_bytes;
    opts.dram_capacity_bytes =
        weightWords(cfg) * arch.element_bytes + 1.5 * res_bytes;

    const ServeSimulator sim(arch, cfg, wl, opts);
    const auto m = sim.run(generateWorkload(wl, 2));

    EXPECT_EQ(m.completed, 6);
    EXPECT_EQ(m.rejected, 0);
    EXPECT_EQ(m.peak_running, 1); // KV, not lanes, is binding
    EXPECT_GE(m.peak_queue, 4);
    EXPECT_GT(m.queue_wait_s.max(), 0.0); // visibly queued
}

TEST(ServeSimulator, ImpossibleRequestsAreShed)
{
    auto wl = calmWorkload();
    wl.prompt = { 4096, 4096 };
    const auto arch = arch::edgeArch();
    const auto cfg = model::t5Small();

    auto opts = fastServe();
    // Budget below a single reservation: nothing can ever run.
    opts.dram_capacity_bytes =
        weightWords(cfg) * arch.element_bytes
        + 0.5 * kvWordsPerToken(cfg) * 4128.0
            * arch.element_bytes;

    const ServeSimulator sim(arch, cfg, wl, opts);
    const auto m = sim.run(generateWorkload(wl, 3));
    EXPECT_EQ(m.completed, 0);
    EXPECT_EQ(m.rejected, wl.requests);
    EXPECT_EQ(m.generated_tokens, 0);

    // A fully shed ledger must still render: its empty latency
    // distributions once aborted on Histogram::percentile().
    const std::string s = m.summary();
    EXPECT_NE(s.find("completed=0"), std::string::npos);
    EXPECT_NE(s.find("ttft_p50=-"), std::string::npos);
    EXPECT_NE(s.find("lat_p99=-"), std::string::npos);

    // An empty trace is the zero-makespan corner: tok/s has no
    // denominator and must render as "-", not divide by zero.
    const auto empty = sim.run({});
    EXPECT_EQ(empty.offered, 0);
    EXPECT_DOUBLE_EQ(empty.makespan_s, 0.0);
    EXPECT_NE(empty.summary().find("tok/s=-"), std::string::npos);
}

TEST(ServeSimulator, BoundedQueueShedsBursts)
{
    auto wl = calmWorkload();
    wl.arrival_per_s = 1e6;
    wl.requests = 24;
    auto opts = fastServe();
    opts.max_batch = 1;
    opts.max_queue = 2;
    const ServeSimulator sim(arch::edgeArch(), model::t5Small(),
                             wl, opts);
    const auto m = sim.run(generateWorkload(wl, 4));
    EXPECT_GT(m.rejected, 0);
    EXPECT_EQ(m.completed + m.rejected, m.offered);
    EXPECT_LE(m.peak_queue, 2);
}

TEST(ServeSimulator, StrategyChangesCostsNotAdmission)
{
    const auto wl = calmWorkload();
    const auto trace = generateWorkload(wl, 5);
    const ServeSimulator slow(
        arch::edgeArch(), model::t5Small(), wl,
        fastServe(schedule::StrategyKind::Unfused));
    const ServeSimulator fast(
        arch::edgeArch(), model::t5Small(), wl,
        fastServe(schedule::StrategyKind::FuseMax));
    const auto a = slow.run(trace);
    const auto b = fast.run(trace);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.generated_tokens, b.generated_tokens);
    // Fusion strictly helps the uncontended prefill-heavy path.
    EXPECT_GT(a.ttft_s.percentile(50), b.ttft_s.percentile(50));
}

TEST(ServeSimulator, RejectsMalformedTraces)
{
    const auto wl = calmWorkload();
    const ServeSimulator sim(arch::edgeArch(), model::t5Small(),
                             wl, fastServe());
    auto trace = generateWorkload(wl, 6);
    std::swap(trace.front().arrival_s, trace.back().arrival_s);
    EXPECT_THROW(sim.run(trace), FatalError);

    trace = generateWorkload(wl, 6);
    trace[2].output_len = 0;
    EXPECT_THROW(sim.run(trace), FatalError);

    // Re-offers merged into a live session pass the same check,
    // under their own message.
    const auto rejects = [&](std::vector<Request> arrivals,
                             const std::string &what) {
        ServeSession s = sim.startSession(generateWorkload(wl, 6));
        try {
            sim.injectRequests(s, std::move(arrivals));
            ADD_FAILURE() << "accepted: " << what;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(what),
                      std::string::npos)
                << e.what();
        }
    };
    trace = generateWorkload(wl, 7);
    trace[1].prompt_len = 0;
    rejects(trace, "bad injected request: req#1");
    trace = generateWorkload(wl, 7);
    std::swap(trace.front().arrival_s, trace.back().arrival_s);
    rejects(trace, "injected requests must be sorted");
}

/** A one-request trace arriving at `arrival_s`. */
std::vector<Request>
oneRequestAt(double arrival_s)
{
    Request r;
    r.arrival_s = arrival_s;
    r.prompt_len = 128;
    r.output_len = 16;
    return { r };
}

TEST(ServeSimulator, RejectsNonFiniteArrivals)
{
    const ServeSimulator sim(arch::edgeArch(), model::t5Small(),
                             calmWorkload(), fastServe());
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double bad : { nan, inf }) {
        SCOPED_TRACE(bad);
        // NaN used to spin the idle jump forever; +inf used to end
        // the replay with the request neither completed nor shed.
        EXPECT_THROW(sim.run(oneRequestAt(bad)), FatalError);
        ServeSession s = sim.startSession({});
        EXPECT_THROW(sim.injectRequests(s, oneRequestAt(bad)),
                     FatalError);
    }
}

} // namespace
} // namespace transfusion::serve
