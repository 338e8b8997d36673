/**
 * @file
 * Tests of the running batch that lives in a ServeSession across
 * advance() calls, and of single-request injection: tied finishers
 * leave in admission order, inFlight() recovers the tokens each
 * request generated, a busy replica's slot count stays bounded, a
 * session stepped at every arrival (with a mid-run drain and
 * re-inject) equals one uninterrupted advance bit for bit, and
 * injectRequest places and validates exactly as injectRequests.
 */

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "serve/simulator.hh"
#include "support/replay_equality.hh"

namespace transfusion::serve
{
namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

Request
request(std::int64_t id, double arrival_s, std::int64_t output_len)
{
    Request r;
    r.id = id;
    r.arrival_s = arrival_s;
    r.prompt_len = 100;
    r.output_len = output_len;
    return r;
}

TEST(RunningBatch, TiedFinishersLeaveInAdmissionOrder)
{
    // Admitted at rounds 0, 1 and 2 with 4, 3 and 2 tokens to
    // make, all three finish in decode round 3; ids run against
    // admission order so an id-keyed tie-break would show.
    RunningBatch batch;
    std::vector<std::int64_t> finished;
    const auto finish = [&](const Request &r, double) {
        finished.push_back(r.id);
    };
    batch.admit(request(30, 0, 4), 0.5, 0);
    batch.emitToken(1, finish);
    batch.admit(request(20, 0, 3), 1.5, 1);
    batch.emitToken(2, finish);
    batch.admit(request(10, 0, 2), 2.5, 2);
    EXPECT_EQ(batch.size(), 3);
    // Prompts plus the tokens made so far: 3 + 2 + 1.
    EXPECT_EQ(batch.contextSum(), 3 * 100.0 + 6);
    ASSERT_TRUE(finished.empty());

    batch.emitToken(3, finish);
    EXPECT_EQ(finished, (std::vector<std::int64_t>{ 30, 20, 10 }));
    EXPECT_TRUE(batch.empty());
    EXPECT_EQ(batch.contextSum(), 0.0);
    EXPECT_EQ(batch.slots(), 0U);
}

/** A saturating burst on 4 lanes: a full batch, a queue, and
 *  output lengths spread so finishes stagger. */
WorkloadOptions
burstWorkload(std::int64_t requests)
{
    WorkloadOptions wl;
    wl.arrival_per_s = 200.0;
    wl.requests = requests;
    wl.prompt = { 64, 256 };
    wl.output = { 4, 48 };
    return wl;
}

ServeSimulator
makeSim(const WorkloadOptions &wl)
{
    ServeOptions o = test::fastServe();
    o.max_queue = 512;
    return ServeSimulator(arch::edgeArch(), model::t5Small(), wl, o);
}

TEST(ServeSession, InFlightRecoversGeneratedAfterPartialAdvance)
{
    const auto wl = burstWorkload(24);
    const ServeSimulator sim = makeSim(wl);
    ServeSession s = sim.startSession(generateWorkload(wl, 3));

    std::vector<InFlightRequest> before;
    std::int64_t rounds_before = 0;
    int checked = 0;
    for (double t = 0.005; s.workLeft(); t += 0.005) {
        sim.advance(s, t);
        const std::vector<InFlightRequest> now = s.inFlight();
        ASSERT_EQ(std::ssize(now), s.running.size());
        for (const InFlightRequest &r : now) {
            // One token from the prefill round, never all of them
            // (a finished request has left).
            EXPECT_GE(r.generated, 1);
            EXPECT_LT(r.generated, r.req.output_len);
            // A request running at both horizons gained exactly one
            // token per decode round in between.
            const auto was = std::find_if(
                before.begin(), before.end(),
                [&](const InFlightRequest &b) {
                    return b.req.id == r.req.id;
                });
            if (was != before.end()) {
                EXPECT_EQ(r.generated - was->generated,
                          s.metrics.decode_rounds - rounds_before);
                EXPECT_EQ(r.first_token_s, was->first_token_s);
                checked += 1;
            }
        }
        // Admission order: the running batch lists ids ascending,
        // as the trace's FIFO admitted them.
        EXPECT_TRUE(std::is_sorted(
            now.begin(), now.end(),
            [](const InFlightRequest &a, const InFlightRequest &b) {
                return a.req.id < b.req.id;
            }));
        before = now;
        rounds_before = s.metrics.decode_rounds;
    }
    EXPECT_GT(checked, 10) << "the horizons never split a request";
}

TEST(ServeSession, BusyReplicaKeepsSlotCountBounded)
{
    const auto wl = burstWorkload(200);
    const ServeSimulator sim = makeSim(wl);
    ServeSession s = sim.startSession(generateWorkload(wl, 5));
    const std::int64_t lanes = sim.options().max_batch;

    std::int64_t compactions = 0;
    std::size_t slots = 0;
    for (double t = 0.002; s.workLeft(); t += 0.002) {
        sim.advance(s, t);
        const RunningBatch &b = s.running;
        // Finished slots never outnumber the live ones, so memory
        // tracks the batch, not the requests served so far.
        EXPECT_LE(b.slots(), 2 * static_cast<std::size_t>(b.size()));
        EXPECT_LE(b.slots(), 2 * static_cast<std::size_t>(lanes));
        if (b.slots() < slots && !b.empty())
            compactions += 1;
        slots = b.slots();
    }
    EXPECT_EQ(s.metrics.completed + s.metrics.rejected, wl.requests);
    EXPECT_GT(s.metrics.completed, 10 * lanes)
        << "the replica never stayed busy";
    EXPECT_GT(compactions, 0) << "the batch never compacted";
}

/**
 * Replay `trace` in one session: stepped to every arrival when
 * `per_arrival` (as a fleet boundary steps it), else in one advance
 * per phase.  At `drain_s` every running and queued request is
 * drained and re-offered 10 ms later.
 */
ServeMetrics
replay(const ServeSimulator &sim, const std::vector<Request> &trace,
       bool per_arrival, double drain_s)
{
    ServeSession s = sim.startSession(trace);
    const auto stepTo = [&](double horizon) {
        if (per_arrival)
            for (const Request &r : trace)
                if (r.arrival_s < horizon)
                    sim.advance(s, r.arrival_s);
        sim.advance(s, horizon);
    };
    stepTo(drain_s);
    std::vector<Request> back;
    for (const InFlightRequest &r : sim.drainRunning(s))
        back.push_back(r.req);
    for (const Request &r : sim.drainQueued(s))
        back.push_back(r);
    for (Request &r : back)
        r.arrival_s = s.now + 0.01;
    std::sort(back.begin(), back.end(), arrivesBefore);
    sim.injectRequests(s, back);
    stepTo(kInf);
    return sim.finishSession(s);
}

TEST(ServeSession, AdvancedAtEveryArrivalEqualsOneRun)
{
    const auto wl = burstWorkload(64);
    const ServeSimulator sim = makeSim(wl);
    const std::vector<Request> trace = generateWorkload(wl, 9);

    // Without a drain (a drain past the end drains nothing).
    const ServeMetrics once = sim.run(trace);
    const ServeMetrics stepped = replay(sim, trace, true, kInf);
    test::expectSameServeMetrics(once, stepped);

    // With a drain in the middle of the burst.
    const double mid = trace[trace.size() / 2].arrival_s;
    const ServeMetrics drained_once = replay(sim, trace, false, mid);
    const ServeMetrics drained_stepped =
        replay(sim, trace, true, mid);
    test::expectSameServeMetrics(drained_once, drained_stepped);
    EXPECT_GT(drained_once.generated_tokens, once.generated_tokens)
        << "the drain discarded no work";
}

TEST(ServeSimulator, InjectRequestMatchesInjectRequestsOnTies)
{
    const auto wl = burstWorkload(8);
    const ServeSimulator sim = makeSim(wl);
    const std::vector<Request> trace = {
        request(0, 0.0, 8), request(1, 0.1, 8), request(2, 0.2, 8),
        request(3, 0.2, 8), request(4, 0.2, 8), request(5, 0.3, 8),
    };
    ServeSession base = sim.startSession(trace);
    sim.advance(base, 0.05); // pulls request 0 only
    ASSERT_EQ(base.next, 1U);

    const auto ids = [](const ServeSession &s) {
        std::vector<std::int64_t> out;
        for (std::size_t i = s.next; i < s.pending.size(); ++i)
            out.push_back(s.pending[i].id);
        return out;
    };
    // A tie with three tail requests, one with the tail's first, a
    // past arrival, and one after the tail.
    for (const double arrival : { 0.2, 0.1, 0.0, 0.01, 0.3, 9.0 }) {
        SCOPED_TRACE(arrival);
        const Request r = request(99, arrival, 8);
        ServeSession one = base;
        ServeSession many = base;
        sim.injectRequest(one, r);
        sim.injectRequests(many, { r });
        EXPECT_EQ(ids(one), ids(many));
    }

    // The same check, under the same message.
    const auto message = [&](const auto &inject) {
        ServeSession s = base;
        Request bad = request(7, 0.2, 8);
        bad.prompt_len = 0;
        try {
            inject(s, bad);
        } catch (const FatalError &e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    const std::string single = message(
        [&](ServeSession &s, const Request &r) {
            sim.injectRequest(s, r);
        });
    EXPECT_NE(single.find("bad injected request: req#7"),
              std::string::npos)
        << single;
    EXPECT_EQ(single, message([&](ServeSession &s, const Request &r) {
                  sim.injectRequests(s, { r });
              }));
}

} // namespace
} // namespace transfusion::serve
