/**
 * @file
 * Session-level replay test, pinned as frozen digests: one serve
 * session is driven through an epoch script — advance to a
 * horizon, a slowdown change, drainRunning / drainQueued,
 * injectRequests of the re-offers, an idle advance that stops at
 * its horizon, and a final run-out — and every observable the
 * session API exposes after each step (running, queue, next,
 * pending, clock, reserved KV words, metrics, drained records and
 * the RunReport so far) must match that step's digest line.  The
 * digests were generated while a second, linear-scan serve core
 * still existed, and both cores matched them.  The fleet and fault
 * layers reach this API only through their own loops; this test
 * pins the round loop's early exits directly, where a running
 * batch that lost state between advance() calls would first show.
 */

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/report.hh"
#include "serve/simulator.hh"
#include "support/replay_digest.hh"
#include "support/replay_equality.hh"

namespace transfusion::serve
{
namespace
{

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
makeSim()
{
    ServeOptions o = test::fastServe();
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
    /** RunReport of the script's registry so far. */
    std::string report;
};

Step
snapshot(const std::string &name, const ServeSession &s,
         const obs::Registry &registry)
{
    Step st;
    st.name = name;
    st.report = obs::RunReport::capture(registry).toString();
    st.running = s.inFlight();
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

/** Run the epoch script. */
std::vector<Step>
script(const ServeSimulator &sim)
{
    obs::Registry registry;
    obs::ScopedRegistry scope(registry);
    std::vector<Step> steps;
    ServeSession s =
        sim.startSession(generateWorkload(burstWorkload(), 7));

    sim.advance(s, 0.06);
    steps.push_back(snapshot("first-horizon", s, registry));

    // A gray failure between epochs: the running batch carries
    // over as it is and every following round runs slower.
    s.slowdown = 2.5;
    sim.advance(s, 0.1);
    steps.push_back(snapshot("slowed-horizon", s, registry));

    // Fail everything over, then take it back as re-offers.
    std::vector<InFlightRequest> running = sim.drainRunning(s);
    std::vector<Request> queued = sim.drainQueued(s);
    Step drain = snapshot("drain", s, registry);
    drain.drained_running = running;
    drain.drained_queued = queued;
    steps.push_back(drain);
    for (const InFlightRequest &r : running)
        queued.push_back(r.req);
    sim.injectRequests(s, reoffers(queued, s.now));

    s.slowdown = 1.0;
    sim.advance(s, s.now + 0.05);
    steps.push_back(snapshot("re-offer-horizon", s, registry));

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
    steps.push_back(snapshot("idle-horizon", s, registry));

    sim.advance(s, kInf);
    const ServeMetrics final_metrics = sim.finishSession(s);
    Step last = snapshot("run-out", s, registry);
    last.metrics = final_metrics;
    steps.push_back(last);
    return steps;
}

void
writeCanonical(std::ostream &os, const Request &r)
{
    os << "req " << r.id << " " << r.arrival_s << " " << r.prompt_len
       << " " << r.output_len << " " << r.priority << "\n";
}

void
writeCanonical(std::ostream &os, const InFlightRequest &r)
{
    writeCanonical(os, r.req);
    os << "first_token=" << r.first_token_s
       << " generated=" << r.generated << "\n";
}

/** Everything one step shows, in the frozen-digest text form. */
void
writeCanonical(std::ostream &os, const Step &st)
{
    const auto all = [&os](const char *what, const auto &records) {
        os << what << " " << records.size() << "\n";
        for (const auto &r : records)
            writeCanonical(os, r);
    };
    all("running", st.running);
    all("queue", st.queue);
    os << "next=" << st.next << " pending=" << st.pending
       << " now=" << st.now
       << " reserved_words=" << st.reserved_words << "\n";
    test::writeCanonical(os, st.metrics);
    all("drained_running", st.drained_running);
    all("drained_queued", st.drained_queued);
}

TEST(SessionDiff, EpochScriptMatchesFrozenDigests)
{
    const std::vector<Step> steps = script(makeSim());

    // The script reaches the states it is meant to: a horizon stop
    // with a batch in flight, a queue and sheds, a non-empty
    // drain, and an idle stop at the horizon.
    ASSERT_EQ(steps.size(), 6U);
    EXPECT_FALSE(steps[0].running.empty());
    EXPECT_FALSE(steps[0].queue.empty());
    EXPECT_GT(steps[0].metrics.rejected, 0);
    EXPECT_FALSE(steps[1].running.empty());
    EXPECT_FALSE(steps[2].drained_running.empty());
    EXPECT_TRUE(steps[4].running.empty());
    EXPECT_EQ(steps[4].next, steps[4].pending - 1);
    EXPECT_EQ(steps[5].metrics.completed + steps[5].metrics.rejected,
              steps[5].metrics.offered);

    std::string lines;
    for (const Step &st : steps)
        lines += test::digestLine(st.name, test::canonicalDigest(st),
                                  st.report);
    test::expectMatchesDigests("replay_digests_session_script",
                               lines);
}

} // namespace
} // namespace transfusion::serve
