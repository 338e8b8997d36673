/**
 * @file
 * Property tests for the metrics registry: exact concurrent counter
 * sums, idempotent snapshots, merge semantics, thread-local
 * redirection via ScopedRegistry, and the name table's interning
 * (one id per name across threads, distinct per-instance keys).
 */

#include "obs/registry.hh"

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel_map.hh"
#include "obs/obs.hh"
#include "obs/report.hh"

namespace transfusion::obs
{
namespace
{

TEST(Registry, CountersStartAtZeroAndAccumulate)
{
    Registry reg;
    reg.counterAdd("a", 3);
    reg.counterAdd("a", 4);
    reg.counterAdd("b", -2);
    const RegistrySnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("a"), 7);
    EXPECT_EQ(snap.counters.at("b"), -2);
}

TEST(Registry, ConcurrentCounterIncrementsSumExactly)
{
    // Integer adds commute, so any interleaving of workers must
    // land on the same total -- the property that makes counters
    // safe to record from worker threads directly.
    constexpr int kTasks = 64;
    constexpr int kIncrements = 1000;
    Registry reg;
    parallelMap(8, std::vector<int>(kTasks, 0), [&reg](const int &) {
        for (int i = 0; i < kIncrements; ++i)
            reg.counterAdd("hits", 1);
        return 0;
    });
    EXPECT_EQ(reg.snapshot().counters.at("hits"),
              static_cast<std::int64_t>(kTasks) * kIncrements);
}

TEST(Registry, SnapshotIsIdempotent)
{
    Registry reg;
    reg.counterAdd("c", 5);
    reg.gaugeAdd("g", 1.5);
    reg.gaugeMax("p", 9.0);
    reg.timerRecord("t", 0.25);
    const std::string first =
        RunReport::capture(reg).toString();
    const std::string second =
        RunReport::capture(reg).toString();
    EXPECT_EQ(first, second);
    EXPECT_FALSE(first.empty());
}

TEST(Registry, GaugeAddAccumulatesAndGaugeMaxKeepsPeak)
{
    Registry reg;
    reg.gaugeAdd("sum", 1.0);
    reg.gaugeAdd("sum", 2.5);
    reg.gaugeMax("peak", 3.0);
    reg.gaugeMax("peak", 1.0); // lower value must not regress
    reg.gaugeMax("peak", 7.0);
    const RegistrySnapshot snap = reg.snapshot();
    EXPECT_DOUBLE_EQ(snap.gauges.at("sum"), 3.5);
    EXPECT_DOUBLE_EQ(snap.peaks.at("peak"), 7.0);
}

TEST(Registry, MergeAddsCountersAndGaugesMaxesPeaksMergesTimers)
{
    Registry a;
    a.counterAdd("c", 1);
    a.gaugeAdd("g", 0.5);
    a.gaugeMax("p", 2.0);
    a.timerRecord("t", 0.1);
    a.timerRecord("t", 0.2);

    Registry b;
    b.counterAdd("c", 10);
    b.counterAdd("only_b", 4);
    b.gaugeAdd("g", 0.25);
    b.gaugeMax("p", 1.0);
    b.timerRecord("t", 0.3);

    a.merge(b);
    const RegistrySnapshot snap = a.snapshot();
    EXPECT_EQ(snap.counters.at("c"), 11);
    EXPECT_EQ(snap.counters.at("only_b"), 4);
    EXPECT_DOUBLE_EQ(snap.gauges.at("g"), 0.75);
    EXPECT_DOUBLE_EQ(snap.peaks.at("p"), 2.0);
    EXPECT_EQ(snap.timers.at("t").count(), 3);
    // The merge source is untouched.
    EXPECT_EQ(b.snapshot().counters.at("c"), 10);
}

TEST(Registry, MergePrefixedNamespacesEveryKind)
{
    // The fleet folds each replica's registry under a
    // "fleet/replica.<i>." prefix: every metric kind is renamed,
    // and distinct prefixes never collide even for identical
    // source names.
    Registry replica;
    replica.counterAdd("serve/offered", 16);
    replica.gaugeAdd("serve/makespan_s", 2.5);
    replica.gaugeMax("serve/queue_depth", 7.0);
    replica.timerRecord("serve/run", 0.125);

    Registry fleet;
    fleet.counterAdd("fleet/routed", 32);
    fleet.mergePrefixed(replica, internPrefix("fleet/replica.0."));
    fleet.mergePrefixed(replica, internPrefix("fleet/replica.1."));
    const RegistrySnapshot merged = fleet.snapshot();

    EXPECT_EQ(merged.counters.at("fleet/routed"), 32);
    EXPECT_EQ(merged.counters.at("fleet/replica.0.serve/offered"),
              16);
    EXPECT_EQ(merged.counters.at("fleet/replica.1.serve/offered"),
              16);
    EXPECT_DOUBLE_EQ(
        merged.gauges.at("fleet/replica.0.serve/makespan_s"), 2.5);
    EXPECT_DOUBLE_EQ(
        merged.peaks.at("fleet/replica.1.serve/queue_depth"), 7.0);
    EXPECT_EQ(merged.timers.at("fleet/replica.0.serve/run").count(),
              1);
    // No unprefixed leak: the replica's own names never land raw.
    EXPECT_EQ(merged.counters.count("serve/offered"), 0u);

    // Prefixing twice with the same prefix accumulates like merge.
    fleet.mergePrefixed(replica, internPrefix("fleet/replica.0."));
    EXPECT_EQ(fleet.snapshot().counters.at(
                  "fleet/replica.0.serve/offered"),
              32);
}

TEST(Registry, MergePrefixedCollidingPrefixesAccumulate)
{
    // A prefixed name can collide with a pre-existing metric of
    // the same full name — whether written raw or folded in under
    // the same prefix earlier.  Collisions must behave exactly
    // like merge: counters and gauges add, peaks take the max,
    // timer counts and totals add.  Nothing is dropped or shadowed.
    Registry src_a;
    src_a.counterAdd("offered", 3);
    src_a.gaugeAdd("makespan_s", 1.5);
    src_a.gaugeMax("queue_depth", 9.0);
    src_a.timerRecord("run", 0.25);
    Registry src_b;
    src_b.counterAdd("offered", 4);
    src_b.gaugeAdd("makespan_s", 2.0);
    src_b.gaugeMax("queue_depth", 5.0);
    src_b.timerRecord("run", 0.75);

    Registry sink;
    // The raw name the prefix will collide with.
    sink.counterAdd("replica.offered", 10);
    sink.mergePrefixed(src_a, internPrefix("replica."));
    sink.mergePrefixed(src_b, internPrefix("replica."));
    const RegistrySnapshot merged = sink.snapshot();

    EXPECT_EQ(merged.counters.at("replica.offered"), 10 + 3 + 4);
    EXPECT_DOUBLE_EQ(merged.gauges.at("replica.makespan_s"), 3.5);
    // Peaks under a colliding prefix max, never overwrite: the
    // later, smaller peak must not clobber the earlier high-water.
    EXPECT_DOUBLE_EQ(merged.peaks.at("replica.queue_depth"), 9.0);
    EXPECT_EQ(merged.timers.at("replica.run").count(), 2u);
    EXPECT_DOUBLE_EQ(merged.timers.at("replica.run").sum(), 1.0);
    // Exactly one name per kind: the collision folded, not forked.
    EXPECT_EQ(merged.counters.size(), 1u);
    EXPECT_EQ(merged.gauges.size(), 1u);
}

TEST(Registry, ClearDropsEverything)
{
    Registry reg;
    reg.counterAdd("c", 1);
    reg.gaugeAdd("g", 1.0);
    reg.timerRecord("t", 0.5);
    EXPECT_FALSE(reg.snapshot().empty());
    reg.clear();
    EXPECT_TRUE(reg.snapshot().empty());
}

TEST(Registry, ScopedRegistryRedirectsAndRestores)
{
    Registry outer;
    Registry inner;
    {
        ScopedRegistry outer_scope(outer);
        currentRegistry().counterAdd("where", 1);
        {
            ScopedRegistry inner_scope(inner);
            currentRegistry().counterAdd("where", 10);
        }
        // Restored to the enclosing scope, not to global.
        currentRegistry().counterAdd("where", 100);
    }
    EXPECT_EQ(outer.snapshot().counters.at("where"), 101);
    EXPECT_EQ(inner.snapshot().counters.at("where"), 10);
}

TEST(Registry, ScopedRegistryIsPerThread)
{
    // Installing a registry on this thread must not redirect
    // parallelMap's worker threads: their writes go to their own
    // current registry (the
    // global one here).  This is exactly why TileSeek instruments at
    // merge time instead of inside worker bodies.
    Registry local;
    Registry::global().clear();
    ScopedRegistry scope(local);
    // Two tasks on two workers: neither runs on this thread.
    parallelMap(2, std::vector<int>{ 0, 1 }, [](const int &) {
        currentRegistry().counterAdd("thread_test/worker", 1);
        return 0;
    });
    currentRegistry().counterAdd("thread_test/caller", 1);
    EXPECT_EQ(local.snapshot().counters.count("thread_test/worker"),
              0u);
    EXPECT_EQ(local.snapshot().counters.at("thread_test/caller"), 1);
    EXPECT_EQ(Registry::global().snapshot().counters.at(
                  "thread_test/worker"),
              2);
    Registry::global().clear();
}

TEST(Registry, InputOrderMergeIsBitIdentical)
{
    // The determinism-merge rule: merging the same per-task
    // registries in the same (input) order yields bit-identical
    // reports no matter which threads produced them.
    const auto make = [](double seed) {
        Registry r;
        r.gaugeAdd("fp", seed);
        r.gaugeAdd("fp", seed * 1e-16);
        r.counterAdd("n", 1);
        return r;
    };
    const auto merged = [&make]() {
        Registry sink;
        for (const double s : { 1.0, 3.0, 7.0 })
            sink.merge(make(s));
        return RunReport::capture(sink).toString();
    };
    EXPECT_EQ(merged(), merged());
}

TEST(Registry, ZeroDeltaWriteStillReports)
{
    // A metric exists once written: its slot's present bit, not its
    // value, decides whether a snapshot lists it.
    Registry reg;
    reg.counterAdd("zero/counter", 0);
    reg.gaugeAdd("zero/gauge", 0.0);
    const RegistrySnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("zero/counter"), 0);
    EXPECT_EQ(snap.gauges.at("zero/gauge"), 0.0);
    EXPECT_EQ(snap.counters.size(), 1u);
}

TEST(Registry, NestedPrefixedFoldsComposeNames)
{
    // The planner folds each candidate's registry, which already
    // holds the fleet's per-replica folds, under its own prefix: the
    // remaps compose into the full dotted name.
    Registry replica;
    replica.counterAdd("serve/offered", 5);
    Registry candidate;
    candidate.mergePrefixed(replica, internPrefix("fleet/replica.2."));
    Registry plan;
    plan.mergePrefixed(candidate, internPrefix("plan/candidate.7."));
    plan.mergePrefixed(candidate, internPrefix("plan/candidate.7."));
    EXPECT_EQ(plan.snapshot().counters.at(
                  "plan/candidate.7.fleet/replica.2.serve/offered"),
              10);

    // A cleared registry is reusable for the next fold.
    replica.clear();
    replica.counterAdd("serve/offered", 1);
    candidate.clear();
    candidate.mergePrefixed(replica, internPrefix("fleet/replica.3."));
    const RegistrySnapshot snap = candidate.snapshot();
    EXPECT_EQ(snap.counters.size(), 1u);
    EXPECT_EQ(snap.counters.at("fleet/replica.3.serve/offered"), 1);
}

TEST(MetricNames, MetricKeyLoopLandsOnDistinctKeys)
{
    // A per-instance series written in a loop must land on one key
    // per index, never on the first index's cached id.
    constexpr int kInstances = 64;
    Registry reg;
    for (int i = 0; i < kInstances; ++i) {
        const MetricId id = metricKey("test/loop", i, "tokens");
        EXPECT_EQ(metricName(id),
                  "test/loop." + std::to_string(i) + ".tokens");
        reg.counterAdd(id, i);
    }
    const RegistrySnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(),
              static_cast<std::size_t>(kInstances));
    for (int i = 0; i < kInstances; ++i)
        EXPECT_EQ(snap.counters.at("test/loop." + std::to_string(i)
                                   + ".tokens"),
                  i);
}

TEST(MetricNames, ConcurrentInternGivesOneIdPerName)
{
    // Four workers intern a shared set of names and a private set
    // each, in different orders, at the same time: every name gets
    // exactly one id, and distinct names distinct ids.
    constexpr int kWorkers = 4;
    constexpr int kNames = 200;
    const auto shared = [](int k) {
        return "intern_test/shared." + std::to_string(k);
    };
    const auto own = [](int w, int k) {
        return "intern_test/own." + std::to_string(w) + "."
            + std::to_string(k);
    };
    std::vector<int> workers(kWorkers);
    for (int w = 0; w < kWorkers; ++w)
        workers[static_cast<std::size_t>(w)] = w;
    const auto ids = parallelMap(
        kWorkers, workers, [&](const int &w) {
            std::vector<MetricId> got(2 * kNames);
            for (int j = 0; j < kNames; ++j) {
                // Odd workers walk the shared names backwards.
                const int k = w % 2 == 0 ? j : kNames - 1 - j;
                got[static_cast<std::size_t>(k)] =
                    internMetric(shared(k));
                got[static_cast<std::size_t>(kNames + j)] =
                    internMetric(own(w, j));
            }
            return got;
        });
    std::map<MetricId, std::string> seen;
    for (int w = 0; w < kWorkers; ++w) {
        const auto &got = ids[static_cast<std::size_t>(w)];
        for (int k = 0; k < kNames; ++k) {
            const MetricId a = got[static_cast<std::size_t>(k)];
            EXPECT_EQ(a, ids[0][static_cast<std::size_t>(k)]);
            EXPECT_EQ(metricName(a), shared(k));
            seen.emplace(a, shared(k));
            const MetricId b = got[static_cast<std::size_t>(kNames + k)];
            EXPECT_EQ(metricName(b), own(w, k));
            seen.emplace(b, own(w, k));
        }
    }
    // One id per distinct name: (1 + workers) * names of them.
    EXPECT_EQ(seen.size(),
              static_cast<std::size_t>((1 + kWorkers) * kNames));
}

#if TRANSFUSION_OBS_ENABLED
TEST(ObsMacros, WriteToCurrentRegistry)
{
    Registry local;
    ScopedRegistry scope(local);
    TF_COUNT("macro/count", 2);
    TF_GAUGE_ADD("macro/gauge", 1.5);
    TF_GAUGE_MAX("macro/peak", 4.0);
    {
        TF_TIMER("macro/timer");
    }
    const RegistrySnapshot snap = local.snapshot();
    EXPECT_EQ(snap.counters.at("macro/count"), 2);
    EXPECT_DOUBLE_EQ(snap.gauges.at("macro/gauge"), 1.5);
    EXPECT_DOUBLE_EQ(snap.peaks.at("macro/peak"), 4.0);
    EXPECT_EQ(snap.timers.at("macro/timer").count(), 1);
    // A literal call site records under the name's interned id.
    EXPECT_EQ(TF_METRIC_ID("macro/count"), internMetric("macro/count"));
}
#else
TEST(ObsMacros, CompileToNothingWhenDisabled)
{
    // The macros must still parse their arguments without evaluating
    // them: `evaluations` stays untouched.
    int evaluations = 0;
    TF_COUNT("macro/count", ++evaluations);
    TF_GAUGE_ADD("macro/gauge", ++evaluations);
    TF_GAUGE_MAX("macro/peak", ++evaluations);
    TF_SPAN("macro/span");
    TF_TIMER("macro/timer");
    EXPECT_EQ(evaluations, 0);
}
#endif

} // namespace
} // namespace transfusion::obs
