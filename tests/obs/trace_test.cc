/**
 * @file
 * Tests for the trace-span collector: well-formed nesting per
 * thread, distinct thread ids, enable/disable semantics, and the
 * Chrome trace_event JSON shape.
 */

#include "obs/trace.hh"

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel_map.hh"
#include "model/stack.hh"
#include "multichip/cluster.hh"
#include "multichip/sharded_evaluator.hh"
#include "schedule/evaluator.hh"
#include "schedule/stack_evaluator.hh"

namespace transfusion::obs
{
namespace
{

/** Count occurrences of `needle` in `hay`. */
int
countOccurrences(const std::string &hay, const std::string &needle)
{
    int n = 0;
    for (std::size_t pos = hay.find(needle);
         pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        ++n;
    return n;
}

TEST(TraceSession, DisabledByDefaultAndRecordsNothing)
{
    TraceSession &session = TraceSession::global();
    session.stop();
    {
        SpanGuard span("ignored");
    }
    EXPECT_FALSE(session.enabled());
}

TEST(TraceSession, CapturesSpansBetweenStartAndStop)
{
    TraceSession &session = TraceSession::global();
    session.start();
    {
        SpanGuard outer("outer");
        {
            SpanGuard inner("inner");
        }
    }
    session.stop();
    {
        SpanGuard late("after_stop"); // must not be recorded
    }
    const auto events = session.events();
    ASSERT_EQ(events.size(), 2u);
    // Sorted by (tid, ts, -dur): the enclosing span comes first.
    EXPECT_EQ(events[0].name, "outer");
    EXPECT_EQ(events[1].name, "inner");
    EXPECT_EQ(events[0].depth, 0);
    EXPECT_EQ(events[1].depth, 1);
}

TEST(TraceSession, RestartDropsPriorEvents)
{
    TraceSession &session = TraceSession::global();
    session.start();
    {
        SpanGuard span("first_session");
    }
    session.start(); // fresh epoch
    {
        SpanGuard span("second_session");
    }
    session.stop();
    const auto events = session.events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].name, "second_session");
}

TEST(TraceSession, NestingIsWellFormedPerThread)
{
    TraceSession &session = TraceSession::global();
    session.start();
    for (int i = 0; i < 3; ++i) {
        SpanGuard a("a");
        {
            SpanGuard b("b");
            {
                SpanGuard c("c");
            }
        }
    }
    session.stop();
    const auto events = session.events();
    ASSERT_EQ(events.size(), 9u);
    // Within one thread, spans must nest: for any two events on the
    // same tid, their [ts, ts+dur] intervals are either disjoint or
    // one contains the other.  Partial overlap means a corrupted
    // begin/end pairing.
    for (std::size_t i = 0; i < events.size(); ++i) {
        for (std::size_t j = i + 1; j < events.size(); ++j) {
            const TraceEvent &x = events[i];
            const TraceEvent &y = events[j];
            if (x.tid != y.tid)
                continue;
            const double x_end = x.ts_us + x.dur_us;
            const double y_end = y.ts_us + y.dur_us;
            const bool disjoint =
                x_end <= y.ts_us || y_end <= x.ts_us;
            const bool x_contains_y =
                x.ts_us <= y.ts_us && y_end <= x_end;
            const bool y_contains_x =
                y.ts_us <= x.ts_us && x_end <= y_end;
            EXPECT_TRUE(disjoint || x_contains_y || y_contains_x)
                << x.name << " [" << x.ts_us << ", " << x_end
                << "] partially overlaps " << y.name << " ["
                << y.ts_us << ", " << y_end << "]";
        }
    }
}

TEST(TraceSession, ThreadsGetDistinctDenseIds)
{
    TraceSession &session = TraceSession::global();
    session.start();
    {
        SpanGuard here("main_thread");
        // Two tasks on two workers, never on this thread; ids are
        // per-thread whichever worker claims which task.
        parallelMap(2, std::vector<int>{ 0, 1 }, [](const int &) {
            SpanGuard span("worker");
            return 0;
        });
    }
    session.stop();
    const auto events = session.events();
    ASSERT_GE(events.size(), 2u);
    // Dense ids: every tid in [0, #buffers); the main thread and any
    // worker that recorded must have distinct ids.
    int main_tid = -1;
    for (const auto &e : events) {
        EXPECT_GE(e.tid, 0);
        if (e.name == "main_thread")
            main_tid = e.tid;
    }
    ASSERT_NE(main_tid, -1);
    for (const auto &e : events) {
        if (e.name == "worker") {
            EXPECT_NE(e.tid, main_tid);
        }
    }
}

TEST(TraceSession, ChromeTraceJsonShape)
{
    TraceSession &session = TraceSession::global();
    session.start();
    {
        SpanGuard span("json \"quoted\"\\name");
        SpanGuard nested("nested");
    }
    session.stop();
    std::ostringstream os;
    session.writeChromeTrace(os);
    const std::string json = os.str();

    // Structural sanity: balanced braces/brackets, the trace_event
    // envelope, one metadata record and one "X" record per span.
    EXPECT_EQ(countOccurrences(json, "{"),
              countOccurrences(json, "}"));
    EXPECT_EQ(countOccurrences(json, "["),
              countOccurrences(json, "]"));
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"M\""), 1);
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"X\""), 2);
    EXPECT_EQ(countOccurrences(json, "\"ts\":"), 2);
    EXPECT_EQ(countOccurrences(json, "\"dur\":"), 2);
    // The quote and backslash in the span name must be escaped.
    EXPECT_NE(json.find("json \\\"quoted\\\"\\\\name"),
              std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json[json.size() - 2], '}');
}

TEST(TraceSession, InstrumentedSpanNamesAreUnchanged)
{
    // The per-strategy span names come from static name tables; they
    // must spell exactly what "<span>/" + toString(strategy) did,
    // since trace consumers attribute time by name.
    if (!TRANSFUSION_OBS_ENABLED)
        GTEST_SKIP() << "observability disabled: no spans recorded";
    using schedule::StrategyKind;
    schedule::EvaluatorOptions options;
    options.mcts.iterations = 32;
    const auto stack = model::encoderDecoder(model::t5Small(), 1, 1);
    const schedule::Evaluator eval(arch::cloudArch(), model::t5Small(),
                                   256, options);
    const schedule::StackEvaluator stacked(arch::cloudArch(), stack,
                                           256, 256, options);
    const multichip::ShardedStackEvaluator sharded(
        multichip::cloudCluster(2), stack, 256, 256, { 2, 1 },
        options);

    TraceSession &session = TraceSession::global();
    session.start();
    for (const StrategyKind s : schedule::allStrategies()) {
        (void)eval.evaluate(s);
        (void)stacked.evaluate(s);
        (void)sharded.evaluate(s);
    }
    session.stop();
    std::set<std::string> names;
    for (const TraceEvent &e : session.events())
        names.insert(e.name);

    std::set<std::string> want = { "dpipe.schedule_pipeline",
                                   "tileseek.search" };
    for (const StrategyKind s : schedule::allStrategies()) {
        want.insert("evaluator.evaluate/" + schedule::toString(s));
        want.insert("stack_evaluator.evaluate/"
                    + schedule::toString(s));
        want.insert("multichip.sharded_evaluate/"
                    + schedule::toString(s));
    }
    EXPECT_EQ(names, want);
}

} // namespace
} // namespace transfusion::obs
