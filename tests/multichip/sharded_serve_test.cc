/**
 * @file
 * Tests for sharded serving: the 1-chip sharded simulator must be
 * bit-identical to the plain single-chip ServeSimulator, the KV
 * budget must aggregate per-chip DRAM minus weight-shard residency,
 * and a sharded replica must serve models no single chip can hold.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "multichip/sharded_serve.hh"
#include "serve/kv_cache.hh"
#include "serve/workload.hh"
#include "support/replay_equality.hh"

namespace transfusion::multichip
{
namespace
{

using test::fastServe;

serve::WorkloadOptions
smallWorkload()
{
    serve::WorkloadOptions wl;
    wl.arrival_per_s = 2.0;
    wl.requests = 8;
    wl.prompt = { 128, 256 };
    wl.output = { 16, 32 };
    return wl;
}

TEST(ShardedServe, OneChipSimulatorIsBitIdenticalToPlainServing)
{
    const auto cfg = model::t5Small();
    const auto wl = smallWorkload();
    const auto opts = fastServe();
    const ClusterConfig cluster = edgeCluster(1);

    const serve::ServeSimulator plain(cluster.chips.front(), cfg,
                                      wl, opts);
    const serve::ServeSimulator sharded =
        shardedSimulator(cluster, cfg, { 1, 1 }, wl, opts);

    EXPECT_EQ(sharded.kvWordsPerTokenUsed(),
              plain.kvWordsPerTokenUsed());
    EXPECT_EQ(sharded.kvCapacityWordsUsed(),
              plain.kvCapacityWordsUsed());

    const auto trace = serve::generateWorkload(wl, 7);
    const auto a = plain.run(trace);
    const auto b = sharded.run(trace);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.generated_tokens, b.generated_tokens);
    EXPECT_EQ(a.prefill_rounds, b.prefill_rounds);
    EXPECT_EQ(a.decode_rounds, b.decode_rounds);
    EXPECT_EQ(a.makespan_s, b.makespan_s);           // bitwise
    EXPECT_EQ(a.tokens_per_second, b.tokens_per_second);
    EXPECT_EQ(a.peak_reserved_words, b.peak_reserved_words);
    EXPECT_EQ(a.ttft_s.max(), b.ttft_s.max());
    EXPECT_EQ(a.latency_s.max(), b.latency_s.max());
}

TEST(ShardedServe, OneChipKvBudgetDelegatesToTheSingleChipPath)
{
    const auto cfg = model::t5Small();
    EXPECT_EQ(shardedKvCapacityWords(edgeCluster(1), cfg, { 1, 1 }),
              serve::kvCapacityWords(arch::edgeArch64(), cfg));
}

TEST(ShardedServe, KvBudgetAggregatesDramMinusWeightShards)
{
    const auto cfg = model::t5Small();
    const ClusterConfig cluster = edgeCluster(4);
    const double cap = 1e9; // explicit per-chip DRAM bytes
    const double eb = static_cast<double>(
        cluster.chips.front().element_bytes);
    const double shard_bytes =
        serve::weightWords(cfg) / 4.0 * eb;
    EXPECT_DOUBLE_EQ(shardedKvCapacityWords(cluster, cfg, { 2, 2 },
                                            cap),
                     4.0 * (cap - shard_bytes) / eb);
}

TEST(ShardedServe, KvBudgetFatalWhenAShardCannotFit)
{
    const auto cfg = model::t5Small();
    const ClusterConfig cluster = edgeCluster(2);
    const double eb = static_cast<double>(
        cluster.chips.front().element_bytes);
    const double shard_bytes = serve::weightWords(cfg) / 2.0 * eb;
    try {
        shardedKvCapacityWords(cluster, cfg, { 2, 1 }, shard_bytes);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("chip"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ShardedServe, ClusterServesModelsNoSingleChipCanHold)
{
    // Llama3-8B's fp16 weights (~12 GB) dwarf one edge NPU's DRAM
    // (~2.4 GB); eight chips each hold an eighth comfortably.
    const auto cfg = model::llama3_8b();
    EXPECT_THROW(serve::kvCapacityWords(arch::edgeArch64(), cfg),
                 FatalError);
    EXPECT_GT(shardedKvCapacityWords(edgeCluster(8), cfg, { 8, 1 }),
              0.0);
}

TEST(ShardedServe, ShardedReplicaServesAWholeTrace)
{
    const auto cfg = model::t5Small();
    const auto wl = smallWorkload();
    const serve::ServeSimulator sim = shardedSimulator(
        cloudCluster(2), cfg, { 2, 1 }, wl, fastServe());
    const auto m = sim.run(serve::generateWorkload(wl, 11));
    EXPECT_EQ(m.offered, wl.requests);
    EXPECT_EQ(m.completed, wl.requests);
    EXPECT_EQ(m.rejected, 0);
    EXPECT_GT(m.tokens_per_second, 0.0);
    // The sharded replica pools KV over both chips.
    EXPECT_EQ(sim.kvCapacityWordsUsed(),
              shardedKvCapacityWords(cloudCluster(2), cfg,
                                     { 2, 1 }));
}

TEST(ShardedServe, SpecMustMatchTheCluster)
{
    const auto cfg = model::t5Small();
    EXPECT_THROW(shardedKvCapacityWords(edgeCluster(4), cfg,
                                        { 2, 1 }),
                 FatalError);
}

} // namespace
} // namespace transfusion::multichip
