/**
 * @file
 * Session-level differential test of the two serve cores: a Legacy
 * (scan batch) session and an EventHeap (finish-heap batch) session
 * are driven through the same epoch script — advance to a horizon,
 * a slowdown change, drainRunning / drainQueued, injectRequests of
 * the re-offers, an idle advance that stops at its horizon, and a
 * final run-out — and every observable the session API exposes must
 * agree bitwise after every step.  The fleet and fault layers reach
 * this API only through their own loops; this test pins the round
 * loop's early exits directly, where a batch that is not written
 * back to `running` would first show.
 */

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/simulator.hh"
#include "support/replay_equality.hh"

namespace transfusion::serve
{
namespace
{

using test::expectSameServeMetrics;

constexpr double kInf = std::numeric_limits<double>::infinity();

/** A saturating burst: a running batch, a queue and sheds all
 *  exist at the first horizon. */
WorkloadOptions
burstWorkload()
{
    WorkloadOptions wl;
    wl.arrival_per_s = 400.0;
    wl.requests = 32;
    wl.prompt = { 128, 256 };
    wl.output = { 16, 32 };
    return wl;
}

ServeSimulator
makeSim(SimCoreKind core)
{
    ServeOptions o = test::fastServe();
    o.core = core;
    o.max_queue = 12;
    return ServeSimulator(arch::edgeArch(), model::t5Small(),
                          burstWorkload(), o);
}

/** Everything the session API shows after one step. */
struct Step
{
    std::string name;
    std::vector<InFlightRequest> running;
    std::vector<Request> queue;
    std::size_t next = 0;
    std::size_t pending = 0;
    double now = 0;
    double reserved_words = 0;
    ServeMetrics metrics;
    /** Records drainRunning / drainQueued returned at this step. */
    std::vector<InFlightRequest> drained_running;
    std::vector<Request> drained_queued;
};

Step
snapshot(const std::string &name, const ServeSession &s)
{
    Step st;
    st.name = name;
    st.running = s.running;
    st.queue.assign(s.queue.begin(), s.queue.end());
    st.next = s.next;
    st.pending = s.pending.size();
    st.now = s.now;
    st.reserved_words = s.cache.reservedWords();
    st.metrics = s.metrics;
    return st;
}

/** Re-offer `reqs` at `t` + 0.01 s, in the one (arrival, id)
 *  order. */
std::vector<Request>
reoffers(std::vector<Request> reqs, double t)
{
    for (Request &r : reqs)
        r.arrival_s = t + 0.01;
    std::sort(reqs.begin(), reqs.end(), arrivesBefore);
    return reqs;
}

/** Run the epoch script on one core. */
std::vector<Step>
script(const ServeSimulator &sim)
{
    std::vector<Step> steps;
    ServeSession s =
        sim.startSession(generateWorkload(burstWorkload(), 7));

    sim.advance(s, 0.06);
    steps.push_back(snapshot("first horizon", s));

    // A gray failure between epochs: the heap batch is rebuilt
    // from `running` and every following round runs slower.
    s.slowdown = 2.5;
    sim.advance(s, 0.1);
    steps.push_back(snapshot("slowed horizon", s));

    // Fail everything over, then take it back as re-offers.
    std::vector<InFlightRequest> running = sim.drainRunning(s);
    std::vector<Request> queued = sim.drainQueued(s);
    Step drain = snapshot("drain", s);
    drain.drained_running = running;
    drain.drained_queued = queued;
    steps.push_back(drain);
    for (const InFlightRequest &r : running)
        queued.push_back(r.req);
    sim.injectRequests(s, reoffers(queued, s.now));

    s.slowdown = 1.0;
    sim.advance(s, s.now + 0.05);
    steps.push_back(snapshot("re-offer horizon", s));

    sim.advance(s, kInf);
    // One late arrival far beyond the next horizon: the loop idles
    // and stops at the horizon with nothing running.
    Request late;
    late.id = 1000;
    late.arrival_s = s.now + 10.0;
    late.prompt_len = 128;
    late.output_len = 16;
    sim.injectRequests(s, { late });
    s.metrics.offered += 1; // a new request, not a re-offer
    sim.advance(s, s.now + 5.0);
    steps.push_back(snapshot("idle horizon", s));

    sim.advance(s, kInf);
    Step last = snapshot("run out", s);
    last.metrics = sim.finishSession(s);
    steps.push_back(last);
    return steps;
}

void
expectSameRunning(const std::vector<InFlightRequest> &a,
                  const std::vector<InFlightRequest> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("running " + std::to_string(i));
        EXPECT_EQ(a[i].req.id, b[i].req.id);
        EXPECT_EQ(a[i].req.arrival_s, b[i].req.arrival_s);
        EXPECT_EQ(a[i].first_token_s, b[i].first_token_s);
        EXPECT_EQ(a[i].generated, b[i].generated);
    }
}

void
expectSameRequests(const std::vector<Request> &a,
                   const std::vector<Request> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id) << i;
        EXPECT_EQ(a[i].arrival_s, b[i].arrival_s) << i;
    }
}

TEST(SessionDiff, LegacyAndEventHeapAgreeAcrossEpochs)
{
    const ServeSimulator legacy = makeSim(SimCoreKind::Legacy);
    const ServeSimulator event = makeSim(SimCoreKind::EventHeap);
    const std::vector<Step> a = script(legacy);
    const std::vector<Step> b = script(event);

    // The script reaches the states it is meant to: a horizon stop
    // with a batch in flight, a queue and sheds, a non-empty
    // drain, and an idle stop at the horizon.
    ASSERT_EQ(a.size(), 6U);
    EXPECT_FALSE(a[0].running.empty());
    EXPECT_FALSE(a[0].queue.empty());
    EXPECT_GT(a[0].metrics.rejected, 0);
    EXPECT_FALSE(a[1].running.empty());
    EXPECT_FALSE(a[2].drained_running.empty());
    EXPECT_TRUE(a[4].running.empty());
    EXPECT_EQ(a[4].next, a[4].pending - 1);
    EXPECT_EQ(a[5].metrics.completed + a[5].metrics.rejected,
              a[5].metrics.offered);

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(a[i].name);
        expectSameRunning(a[i].running, b[i].running);
        expectSameRequests(a[i].queue, b[i].queue);
        EXPECT_EQ(a[i].next, b[i].next);
        EXPECT_EQ(a[i].pending, b[i].pending);
        EXPECT_EQ(a[i].now, b[i].now);
        EXPECT_EQ(a[i].reserved_words, b[i].reserved_words);
        expectSameServeMetrics(a[i].metrics, b[i].metrics);
        expectSameRunning(a[i].drained_running,
                          b[i].drained_running);
        expectSameRequests(a[i].drained_queued, b[i].drained_queued);
    }
}

} // namespace
} // namespace transfusion::serve
