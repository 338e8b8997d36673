/**
 * @file
 * Unit tests for the CostTableCache: hits return the first build's
 * value verbatim with its observability replayed, key types never
 * share entries, the RAII disable scope restores the previous state
 * even when nested, concurrent lookups build each key once, the
 * single-flight contract (nested builds, self-wait panics, distinct
 * keys build concurrently, failed builds leave no entry, nested
 * lookups count apart), the real call sites' keys (sharded
 * calibration, shard plan) change with every nested config field,
 * and a cached calibration reports exactly what an uncached one
 * does.
 *
 * The tests run against the process-wide instance() (the one the
 * serve/multichip call sites share) under test-private keys, so
 * they neither disturb nor depend on entries other tests created.
 */

#include <atomic>
#include <chrono>
#include <latch>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <typeinfo>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "costmodel/cost_table_cache.hh"
#include "model/stack.hh"
#include "multichip/shard_plan.hh"
#include "multichip/sharded_serve.hh"
#include "obs/obs.hh"
#include "obs/report.hh"
#include "support/replay_equality.hh"

namespace transfusion::costmodel
{
namespace
{

/** A test-private key type: no call site shares it. */
struct TestKey
{
    using Value = int;

    std::string name;

    bool operator==(const TestKey &) const = default;
};

/** Same members as TestKey, but a different key type. */
struct OtherKey
{
    using Value = double;

    std::string name;

    bool operator==(const OtherKey &) const = default;
};

/** Misses the process-wide cache records while `call` runs. */
template <class F>
std::int64_t
missesDuring(F &&call)
{
    const auto before = CostTableCache::instance().stats().misses;
    call();
    return CostTableCache::instance().stats().misses - before;
}

TEST(CostTableCache, HitReturnsTheFirstBuildAndCountsIt)
{
    auto &cache = CostTableCache::instance();
    const TestKey key{ "hit-returns-first-build" };
    const auto before = cache.stats();

    int builds = 0;
    const auto build = [&]() {
        builds += 1;
        return 41 + builds;
    };
    const auto first = cache.getOrBuild(key, build);
    const auto second = cache.getOrBuild(key, build);
    EXPECT_EQ(builds, 1) << "second lookup must not rebuild";
    EXPECT_EQ(*first, 42);
    // Same object, not an equal copy: the cache shares the value.
    EXPECT_EQ(first.get(), second.get());

    const auto after = cache.stats();
    EXPECT_EQ(after.misses, before.misses + 1);
    EXPECT_EQ(after.hits, before.hits + 1);
    EXPECT_EQ(after.entries, before.entries + 1);
}

TEST(CostTableCache, HitReplaysTheBuildObservability)
{
    auto &cache = CostTableCache::instance();
    const TestKey key{ "hit-replays-observability" };

    const auto build = [&]() {
        obs::currentRegistry().counterAdd("test/built", 3);
        obs::currentRegistry().gaugeMax("test/peak", 7.0);
        return 1;
    };
    obs::Registry miss_reg;
    {
        obs::ScopedRegistry scope(miss_reg);
        (void)cache.getOrBuild(key, build);
    }
    obs::Registry hit_reg;
    {
        obs::ScopedRegistry scope(hit_reg);
        (void)cache.getOrBuild(key, build);
    }
    // The hit leaves the registry exactly as the miss did — the
    // within-process reproducibility the golden fleet test pins.
    const auto miss_snap = miss_reg.snapshot();
    const auto hit_snap = hit_reg.snapshot();
    EXPECT_EQ(miss_snap.counters.at("test/built"), 3);
    EXPECT_EQ(hit_snap.counters.at("test/built"), 3);
    EXPECT_DOUBLE_EQ(hit_snap.peaks.at("test/peak"), 7.0);
    EXPECT_EQ(miss_snap.counters.size(), hit_snap.counters.size());
}

TEST(CostTableCache, KeyTypesNeverShareEntries)
{
    // Equal members under different key types are different keys:
    // a lookup only compares entries whose key has its own type.
    auto &cache = CostTableCache::instance();
    const std::string name = "key-types-never-share";
    EXPECT_EQ(*cache.getOrBuild(TestKey{ name }, [] { return 5; }),
              5);
    EXPECT_EQ(missesDuring([&] {
                  EXPECT_EQ(*cache.getOrBuild(OtherKey{ name },
                                              [] { return 2.5; }),
                            2.5);
              }),
              1);
    EXPECT_EQ(*cache.getOrBuild(TestKey{ name }, [] { return 6; }),
              5);
}

TEST(CostTableCache, DisabledScopeBypassesAndRestores)
{
    auto &cache = CostTableCache::instance();
    const TestKey key{ "disabled-scope" };
    ASSERT_TRUE(cache.enabled());

    int builds = 0;
    const auto build = [&]() {
        builds += 1;
        return builds;
    };
    {
        CostTableCacheDisabled off;
        EXPECT_FALSE(cache.enabled());
        // Nested scopes restore to the *previous* state, not to a
        // hard-coded default.
        {
            CostTableCacheDisabled inner;
            EXPECT_FALSE(cache.enabled());
        }
        EXPECT_FALSE(cache.enabled());
        // Disabled lookups build every time and never populate.
        EXPECT_EQ(*cache.getOrBuild(key, build), 1);
        EXPECT_EQ(*cache.getOrBuild(key, build), 2);
    }
    EXPECT_TRUE(cache.enabled());
    // Re-enabled, the key was never stored: the next lookup is a
    // miss that finally populates it.
    EXPECT_EQ(*cache.getOrBuild(key, build), 3);
    EXPECT_EQ(*cache.getOrBuild(key, build), 3);
    EXPECT_EQ(builds, 3);
}

TEST(CostTableCache, ConcurrentLookupsBuildEachKeyOnce)
{
    // Every thread looks up its own private keys and a set of keys
    // all threads share, each several times.  Each key must build
    // exactly once, every caller of a key must receive the same
    // object, and the hit/miss/entry counters must add up.
    constexpr int kThreads = 4;
    constexpr int kShared = 3;
    constexpr int kPrivate = 2;
    constexpr int kRounds = 3;
    auto &cache = CostTableCache::instance();
    const auto before = cache.stats();

    std::map<std::string, std::atomic<int>> builds;
    const auto nameOf = [](const std::string &kind, int i) {
        return "concurrent/" + kind + std::to_string(i);
    };
    for (int s = 0; s < kShared; ++s)
        builds[nameOf("shared", s)] = 0;
    for (int t = 0; t < kThreads; ++t)
        for (int p = 0; p < kPrivate; ++p)
            builds[nameOf("t" + std::to_string(t) + "/", p)] = 0;

    // seen[t][name] is the value pointer thread t last received.
    std::vector<std::map<std::string, const int *>> seen(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            obs::Registry local;
            obs::ScopedRegistry scope(local);
            std::vector<std::string> names;
            for (int s = 0; s < kShared; ++s)
                names.push_back(nameOf("shared", s));
            for (int p = 0; p < kPrivate; ++p)
                names.push_back(
                    nameOf("t" + std::to_string(t) + "/", p));
            start.arrive_and_wait();
            for (int r = 0; r < kRounds; ++r) {
                for (const std::string &name : names) {
                    const auto value = cache.getOrBuild(
                        TestKey{ name }, [&] {
                            builds.at(name) += 1;
                            obs::currentRegistry().counterAdd(
                                "test/concurrent_builds", 1);
                            return static_cast<int>(name.size());
                        });
                    EXPECT_EQ(*value, static_cast<int>(name.size()));
                    const int *&slot = seen[t][name];
                    if (slot != nullptr) {
                        EXPECT_EQ(slot, value.get()) << name;
                    }
                    slot = value.get();
                }
            }
            // Every lookup replays (or records) its key's one build.
            EXPECT_EQ(local.snapshot().counters.at(
                          "test/concurrent_builds"),
                      kRounds * (kShared + kPrivate));
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    for (const auto &[name, count] : builds)
        EXPECT_EQ(count.load(), 1) << name;
    for (int s = 0; s < kShared; ++s) {
        const std::string name = nameOf("shared", s);
        for (int t = 1; t < kThreads; ++t)
            EXPECT_EQ(seen[t].at(name), seen[0].at(name)) << name;
    }

    const auto after = cache.stats();
    const std::int64_t keys = kShared + kThreads * kPrivate;
    const std::int64_t lookups =
        kThreads * kRounds * (kShared + kPrivate);
    EXPECT_EQ(after.misses - before.misses, keys);
    EXPECT_EQ(after.hits - before.hits, lookups - keys);
    EXPECT_EQ(after.entries - before.entries, keys);
}

TEST(CostTableCache, NestedBuildLandsInsideTheOuterSnapshot)
{
    // A builder may look up a different key: the inner build runs,
    // and its deltas are part of what the outer build recorded, so
    // a hit on the outer key replays both.
    auto &cache = CostTableCache::instance();
    const std::string name = "nested-build";
    int inner_builds = 0;
    const auto outer = [&]() {
        obs::currentRegistry().counterAdd("test/outer", 1);
        const auto inner = cache.getOrBuild(OtherKey{ name }, [&] {
            inner_builds += 1;
            obs::currentRegistry().counterAdd("test/inner", 2);
            return 0.5;
        });
        return static_cast<int>(*inner * 4);
    };
    obs::Registry miss_reg, hit_reg;
    {
        obs::ScopedRegistry scope(miss_reg);
        EXPECT_EQ(*cache.getOrBuild(TestKey{ name }, outer), 2);
    }
    {
        obs::ScopedRegistry scope(hit_reg);
        EXPECT_EQ(*cache.getOrBuild(TestKey{ name }, outer), 2);
    }
    EXPECT_EQ(inner_builds, 1);
    for (const auto *reg : { &miss_reg, &hit_reg }) {
        const auto snap = reg->snapshot();
        EXPECT_EQ(snap.counters.at("test/outer"), 1);
        EXPECT_EQ(snap.counters.at("test/inner"), 2);
    }
}

/** Look up a key from inside its own build; the panic escapes. */
void
lookUpOwnKeyWhileBuildingIt() noexcept
{
    auto &cache = CostTableCache::instance();
    const TestKey key{ "self-wait" };
    (void)cache.getOrBuild(key, [&] {
        return *cache.getOrBuild(key, [] { return 1; });
    });
}

TEST(CostTableCacheDeathTest, SelfWaitPanicsInsteadOfHanging)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // The panic ends the program (noexcept turns it into
    // std::terminate) rather than waiting on a slot that only this
    // thread could ever fill.
    EXPECT_DEATH(lookUpOwnKeyWhileBuildingIt(),
                 "key of its own build");
}

/**
 * Arrive at `arrived` and wait (bounded) for `expected` arrivals.
 * Returns whether they all arrived: a cache that serialized builds
 * behind one lock times out here instead of wedging the test.
 */
bool
meetWithin(std::atomic<int> &arrived, int expected,
           std::chrono::seconds timeout)
{
    arrived += 1;
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (arrived.load() < expected) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

TEST(CostTableCache, DistinctKeysBuildConcurrently)
{
    // Each builder waits for the other to be inside its build too,
    // which only a cache that builds outside its lock allows.
    auto &cache = CostTableCache::instance();
    std::atomic<int> arrived{ 0 };
    std::vector<int> met(2, -1);
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&, t] {
            met[static_cast<std::size_t>(t)] = *cache.getOrBuild(
                TestKey{ "overlap/" + std::to_string(t) }, [&] {
                    return meetWithin(arrived, 2,
                                      std::chrono::seconds(20))
                        ? 1
                        : 0;
                });
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(met[0], 1) << "builder 0 never saw builder 1 overlap";
    EXPECT_EQ(met[1], 1) << "builder 1 never saw builder 0 overlap";
}

/**
 * What the failing builder throws.  It carries no message: the
 * waiter rethrows the builder's own exception object, and reading a
 * message the builder's thread later frees would be a race report
 * TSan cannot see through (libstdc++'s exception reference counts
 * are not instrumented; see scripts/tsan.supp).
 */
struct BuildFailed
{};

TEST(CostTableCache, ThrowingBuildLeavesNoEntryAndFailsItsWaiters)
{
    auto &cache = CostTableCache::instance();
    const TestKey key{ "throwing-build" };
    const auto before = cache.stats();

    // The builder throws only once a second lookup of its key is
    // waiting on the slot (a lookup counts its hit before waiting).
    std::atomic<bool> waiter_failed{ false };
    const auto failing = [&]() -> int {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(20);
        while (cache.stats().hits == before.hits
               && std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        throw BuildFailed{};
    };
    std::thread builder([&] {
        EXPECT_THROW((void)cache.getOrBuild(key, failing), BuildFailed);
    });
    while (cache.stats().misses == before.misses)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::thread waiter([&] {
        try {
            (void)cache.getOrBuild(key, [] { return 7; });
        } catch (const BuildFailed &) {
            waiter_failed = true;
        }
    });
    builder.join();
    waiter.join();
    EXPECT_TRUE(waiter_failed.load()) << "the waiter did not see the "
                                         "builder's exception";

    const auto after = cache.stats();
    EXPECT_EQ(after.entries, before.entries) << "failed build kept";
    // The next lookup builds again and keeps its result.
    EXPECT_EQ(missesDuring([&] {
                  EXPECT_EQ(*cache.getOrBuild(key, [] { return 8; }),
                            8);
              }),
              1);
    EXPECT_EQ(*cache.getOrBuild(key, [] { return 9; }), 8);
}

/**
 * Fail the build of `key` with `thrown` once a waiter is parked on
 * its slot; return what the waiter caught: its dynamic type's name
 * and its what(), read while the builder unwinds its own copy.
 */
template <class Thrown>
std::pair<std::string, std::string>
waiterCatch(const TestKey &key, const Thrown &thrown)
{
    auto &cache = CostTableCache::instance();
    const auto before = cache.stats();
    const auto failing = [&]() -> int {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(20);
        while (cache.stats().hits == before.hits
               && std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        throw thrown;
    };
    std::string builder_what;
    std::thread builder([&] {
        try {
            (void)cache.getOrBuild(key, failing);
        } catch (const Thrown &e) {
            builder_what = e.what();
        }
    });
    while (cache.stats().misses == before.misses)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::pair<std::string, std::string> caught{ "none", "" };
    std::thread waiter([&] {
        try {
            (void)cache.getOrBuild(key, [] { return 7; });
        } catch (const std::exception &e) {
            caught = { typeid(e).name(), e.what() };
        }
    });
    builder.join();
    waiter.join();
    EXPECT_EQ(builder_what, thrown.what()) << "the builder's rethrow";
    return caught;
}

TEST(CostTableCache, FailedBuildGivesEachWaiterItsOwnCopy)
{
    // A waiter reads what() of its own exception object while the
    // builder's thread unwinds and frees the original; under TSan a
    // shared object showed up here as a race on the message.
    const std::runtime_error runtime("calibration failed: runtime");
    EXPECT_EQ(waiterCatch(TestKey{ "copy-runtime" }, runtime),
              std::make_pair(std::string(typeid(runtime).name()),
                             std::string(runtime.what())));
    // FatalError and PanicError keep their type; any other
    // std::exception arrives as a std::runtime_error.
    const FatalError fatal("calibration failed: fatal");
    EXPECT_EQ(waiterCatch(TestKey{ "copy-fatal" }, fatal).first,
              typeid(FatalError).name());
    const PanicError panic("calibration failed: panic");
    EXPECT_EQ(waiterCatch(TestKey{ "copy-panic" }, panic).first,
              typeid(PanicError).name());
    const std::out_of_range range("calibration failed: range");
    EXPECT_EQ(waiterCatch(TestKey{ "copy-range" }, range),
              std::make_pair(std::string(typeid(runtime).name()),
                             std::string(range.what())));
}

TEST(CostTableCache, NestedStatsCountOnlyInBuildLookups)
{
    auto &cache = CostTableCache::instance();
    const std::string name = "nested-stats";
    const auto outer = [&]() {
        EXPECT_TRUE(CostTableCache::insideBuild());
        // One nested miss, then one nested hit.
        for (int i = 0; i < 2; ++i)
            (void)cache.getOrBuild(OtherKey{ name }, [] { return 1.0; });
        return 3;
    };
    EXPECT_FALSE(CostTableCache::insideBuild());
    const auto before = cache.stats();
    (void)cache.getOrBuild(TestKey{ name }, outer);
    (void)cache.getOrBuild(TestKey{ name }, outer);
    EXPECT_FALSE(CostTableCache::insideBuild());
    const auto after = cache.stats();
    EXPECT_EQ(after.misses - before.misses, 1);
    EXPECT_EQ(after.hits - before.hits, 1);
    EXPECT_EQ(after.entries - before.entries, 1);
    EXPECT_EQ(after.nested_misses - before.nested_misses, 1);
    EXPECT_EQ(after.nested_hits - before.nested_hits, 1);
}

/** The sharded calibration's inputs (small: a 2-chip TP group). */
struct ServeInputs
{
    multichip::ClusterConfig cluster = multichip::cloudCluster(2);
    serve::ServeOptions options = test::fastServe();
};

TEST(CostTableCache, ServeKeySplitsOnEveryNestedField)
{
    const auto cfg = model::t5Small();
    serve::WorkloadOptions workload;
    workload.prompt = { 64, 128 };
    workload.output = { 8, 16 };
    const auto misses = [&](const ServeInputs &in) {
        return missesDuring([&] {
            (void)multichip::shardedSimulator(
                in.cluster, cfg, { 2, 1 }, workload, in.options);
        });
    };
    const ServeInputs base;
    ASSERT_EQ(misses(base), 1);
    ASSERT_EQ(misses(base), 0) << "equal inputs must hit";

    const std::vector<
        std::pair<const char *, void (*)(ServeInputs &)>>
        perturbations = {
            { "arch.energy.dram_pj_per_byte",
              [](ServeInputs &in) {
                  for (arch::ArchConfig &chip : in.cluster.chips)
                      chip.energy.dram_pj_per_byte *= 2;
              } },
            { "evaluator.pipeline.latency.native_efficiency",
              [](ServeInputs &in) {
                  in.options.cost.evaluator.pipeline.latency
                      .native_efficiency = 0.5;
              } },
            { "evaluator.mcts.threads",
              [](ServeInputs &in) {
                  in.options.cost.evaluator.mcts.threads = 2;
              } },
            { "cluster.link.topology",
              [](ServeInputs &in) {
                  in.cluster.link.topology =
                      multichip::Topology::FullyConnected;
              } },
        };
    for (const auto &[field, perturb] : perturbations) {
        ServeInputs in = base;
        perturb(in);
        EXPECT_EQ(misses(in), 1) << field << " is not in the key";
    }
}

TEST(CostTableCache, CachedAndUncachedBuildsGiveEqualReports)
{
    // A calibration build records eval/, dpipe/ and tileseek/
    // metrics and prices DPipe plans through the cache itself.
    // Built uncached, as a miss and as a hit, it must leave
    // byte-identical RunReports: a hit replays the build's own
    // id-indexed deltas.
    if (!TRANSFUSION_OBS_ENABLED)
        GTEST_SKIP() << "observability disabled: no report to compare";
    const auto cfg = model::t5Small();
    serve::WorkloadOptions workload;
    workload.prompt = { 64, 128 };
    workload.output = { 8, 16 };
    ServeInputs in;
    // Inputs no other test uses, so the cached build is a miss.
    in.options.cost.evaluator.pipeline.latency.native_efficiency =
        0.625;
    const auto report = [&] {
        obs::Registry reg;
        {
            obs::ScopedRegistry scope(reg);
            (void)multichip::shardedSimulator(
                in.cluster, cfg, { 2, 1 }, workload, in.options);
        }
        return obs::RunReport::capture(reg).toString();
    };
    std::string uncached;
    {
        const CostTableCacheDisabled off;
        uncached = report();
    }
    std::string miss;
    std::string hit;
    ASSERT_EQ(missesDuring([&] { miss = report(); }), 1);
    ASSERT_EQ(missesDuring([&] { hit = report(); }), 0);
    EXPECT_NE(uncached.find("counter/eval/evaluations"),
              std::string::npos);
    EXPECT_EQ(obs::RunReport::diff(uncached, miss), "");
    EXPECT_EQ(obs::RunReport::diff(uncached, hit), "");
}

/** The shard plan's inputs (small: a 2-chip, 2-layer seq2seq). */
struct PlanInputs
{
    multichip::ClusterConfig cluster = multichip::cloudCluster(2);
    model::StackConfig stack =
        model::encoderDecoder(model::t5Small(), 1, 1);
    multichip::ShardPlanOptions options = [] {
        multichip::ShardPlanOptions o;
        o.evaluator.mcts.iterations = 32;
        o.threads = 1;
        return o;
    }();
};

std::int64_t
planMisses(const PlanInputs &in)
{
    return missesDuring([&] {
        (void)multichip::planShards(
            in.cluster, in.stack, 64, 64,
            schedule::StrategyKind::TransFusion, in.options);
    });
}

TEST(CostTableCache, ShardPlanKeySplitsOnEveryNestedField)
{
    const PlanInputs base;
    ASSERT_EQ(planMisses(base), 1);
    ASSERT_EQ(planMisses(base), 0) << "equal inputs must hit";

    const std::vector<std::pair<const char *, void (*)(PlanInputs &)>>
        perturbations = {
            { "stack.decoder_cross_attention",
              [](PlanInputs &in) {
                  in.stack.decoder_cross_attention = false;
              } },
            { "arch.energy.dram_pj_per_byte",
              [](PlanInputs &in) {
                  for (arch::ArchConfig &chip : in.cluster.chips)
                      chip.energy.dram_pj_per_byte *= 2;
              } },
            { "evaluator.mcts.threads",
              [](PlanInputs &in) {
                  in.options.evaluator.mcts.threads = 2;
              } },
            { "cluster.link.topology",
              [](PlanInputs &in) {
                  in.cluster.link.topology =
                      multichip::Topology::FullyConnected;
              } },
        };
    for (const auto &[field, perturb] : perturbations) {
        PlanInputs in = base;
        perturb(in);
        EXPECT_EQ(planMisses(in), 1) << field << " is not in the key";
    }
}

TEST(CostTableCache, ShardPlanThreadsShareOneEntry)
{
    // The plan's fan-out width cannot change its result, so it is
    // deliberately not part of the key.
    PlanInputs in;
    in.stack = model::decoderOnly(model::t5Small());
    ASSERT_EQ(planMisses(in), 1);
    in.options.threads = 2;
    EXPECT_EQ(planMisses(in), 0);
}

} // namespace
} // namespace transfusion::costmodel
