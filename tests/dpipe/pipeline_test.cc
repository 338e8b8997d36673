/**
 * @file
 * Unit tests for the DPipe pipeline model: epoch accounting,
 * fill/steady/drain composition, fallback behaviour, and the
 * orderings DPipe must respect relative to the baselines.
 */

#include <gtest/gtest.h>

#include <bit>
#include <latch>
#include <sstream>
#include <thread>

#include "arch/arch.hh"
#include "dpipe/pipeline.hh"
#include "dpipe/plan_skeleton.hh"
#include "model/cascades.hh"
#include "model/transformer.hh"
#include "multichip/tensor_parallel.hh"
#include "obs/obs.hh"
#include "schedule/evaluator.hh"
#include "sim/compare.hh"

namespace transfusion::dpipe
{
namespace
{

using model::LayerKind;

struct Ctx
{
    arch::ArchConfig arch;
    model::TransformerConfig cfg;
    einsum::DimEnv dims;
};

Ctx
cloudBert(std::int64_t p = 4096)
{
    Ctx s{ arch::cloudArch(), model::bertBase(), {} };
    const std::int64_t m0 = std::min<std::int64_t>(p, 256);
    s.dims = model::makeDims(s.cfg, p, m0, p / m0);
    return s;
}

TEST(Sequential, TotalIsSumOfNativeLatencies)
{
    const Ctx s = cloudBert();
    const auto cascade = model::buildCascade(LayerKind::Mha, s.cfg);
    const auto r = scheduleSequential(cascade, s.dims, s.arch);
    EXPECT_DOUBLE_EQ(r.total_seconds,
                     r.work.busy_2d_s + r.work.busy_1d_s);
    EXPECT_FALSE(r.pipelined);
    EXPECT_GT(r.work.ops_2d, 0.0);
    EXPECT_GT(r.work.ops_1d, 0.0);
}

TEST(StaticPipeline, TotalIsMaxOfArrayTimes)
{
    const Ctx s = cloudBert();
    const auto cascade = model::buildCascade(LayerKind::Mha, s.cfg);
    const auto r = scheduleStaticPipeline(cascade, s.dims, s.arch);
    EXPECT_DOUBLE_EQ(r.total_seconds,
                     std::max(r.work.busy_2d_s, r.work.busy_1d_s));
}

TEST(StaticPipeline, NeverSlowerThanSequential)
{
    const Ctx s = cloudBert();
    for (LayerKind kind : model::allLayerKinds()) {
        const auto cascade = model::buildCascade(kind, s.cfg);
        const auto seq =
            scheduleSequential(cascade, s.dims, s.arch);
        const auto pipe =
            scheduleStaticPipeline(cascade, s.dims, s.arch);
        EXPECT_LE(pipe.total_seconds, seq.total_seconds + 1e-12)
            << model::toString(kind);
    }
}

TEST(DPipe, NeverSlowerThanStaticPipeline)
{
    // DPipe explores strictly more plans (it can also fall back),
    // so it must never lose to FuseMax's static split on MHA.
    const Ctx s = cloudBert();
    const auto cascade = model::buildCascade(LayerKind::Mha, s.cfg);
    const auto fuse =
        scheduleStaticPipeline(cascade, s.dims, s.arch);
    const auto dp = schedulePipeline(cascade, s.dims, s.arch,
                                     model::peMapping(LayerKind::Mha));
    EXPECT_LE(dp.total_seconds, fuse.total_seconds * 1.001);
}

TEST(DPipe, MhaPicksAPipelinedBipartition)
{
    const Ctx s = cloudBert();
    const auto cascade = model::buildCascade(LayerKind::Mha, s.cfg);
    const auto r = schedulePipeline(cascade, s.dims, s.arch,
                                    model::peMapping(LayerKind::Mha));
    EXPECT_GT(r.epochs, 1);
    EXPECT_GT(r.total_seconds, 0.0);
    // Fill + drain are each at most one steady epoch's worth of
    // extra work in a sane pipeline.
    if (r.pipelined) {
        EXPECT_GT(r.steady_epoch_seconds, 0.0);
        EXPECT_EQ(static_cast<int>(r.partition.in_first.size()),
                  12);
    }
}

TEST(DPipe, QkvFallsBackWithoutValidPartition)
{
    // QKV's ops are simultaneously sources and sinks: no valid
    // bipartition exists, so DPipe uses per-epoch DP scheduling.
    const Ctx s = cloudBert();
    const auto cascade = model::buildCascade(LayerKind::Qkv, s.cfg);
    const auto r = schedulePipeline(cascade, s.dims, s.arch,
                                    model::peMapping(LayerKind::Qkv));
    EXPECT_FALSE(r.pipelined);
    EXPECT_GT(r.total_seconds, 0.0);
}

TEST(DPipe, PipelinedTotalMatchesComposition)
{
    const Ctx s = cloudBert();
    const auto cascade =
        model::buildCascade(LayerKind::Ffn, s.cfg);
    const auto r = schedulePipeline(cascade, s.dims, s.arch,
                                    model::peMapping(LayerKind::Ffn));
    if (r.pipelined) {
        EXPECT_NEAR(r.total_seconds,
                    r.fill_seconds
                        + static_cast<double>(r.epochs - 1)
                              * r.steady_epoch_seconds
                        + r.drain_seconds,
                    1e-9 * r.total_seconds);
    }
}

TEST(DPipe, WorkConservation)
{
    // Every scalar op lands on exactly one array regardless of the
    // plan chosen.
    const Ctx s = cloudBert();
    for (LayerKind kind : model::allLayerKinds()) {
        const auto cascade = model::buildCascade(kind, s.cfg);
        const double total_load =
            cascade.totalComputeLoad(s.dims);
        const auto r = schedulePipeline(cascade, s.dims, s.arch,
                                        model::peMapping(kind));
        EXPECT_NEAR(r.work.ops_2d + r.work.ops_1d, total_load,
                    1e-6 * total_load)
            << model::toString(kind);
    }
}

TEST(DPipe, SingleEpochMeansNoPipelining)
{
    // A tiny problem that fits one inner tile cannot overlap
    // epochs.
    // MHA maps (p, m0) onto the 256x256 array; p=64, m0=64 is a
    // single inner tile.
    Ctx s = cloudBert(64);
    s.dims = model::makeDims(s.cfg, 64, 64, 1);
    const auto cascade =
        model::buildCascade(LayerKind::Mha, s.cfg);
    const auto r = schedulePipeline(
        cascade, s.dims, s.arch,
        model::peMapping(LayerKind::Mha));
    EXPECT_EQ(r.epochs, 1);
    EXPECT_FALSE(r.pipelined);
}

TEST(DPipe, OffloadRaises2dShareOnCloudMha)
{
    // The headline DPipe effect (Sec. 6.2 Utilization): on the
    // cloud the 1D array is the FuseMax bottleneck; DPipe offloads
    // vector Einsums to the big 2D array.
    const Ctx s = cloudBert(16384);
    const auto cascade = model::buildCascade(LayerKind::Mha, s.cfg);
    const auto fuse =
        scheduleStaticPipeline(cascade, s.dims, s.arch);
    const auto dp = schedulePipeline(cascade, s.dims, s.arch,
                                     model::peMapping(LayerKind::Mha));
    EXPECT_GT(dp.work.ops_2d, fuse.work.ops_2d);
    EXPECT_LT(dp.total_seconds, fuse.total_seconds);
}

TEST(Cooperative, NeverSlowerThanSequential)
{
    // Combined per-op rates dominate native single-array rates.
    const Ctx s = cloudBert();
    for (LayerKind kind : model::allLayerKinds()) {
        const auto cascade = model::buildCascade(kind, s.cfg);
        const auto seq =
            scheduleSequential(cascade, s.dims, s.arch);
        const auto coop =
            scheduleCooperative(cascade, s.dims, s.arch);
        EXPECT_LE(coop.total_seconds, seq.total_seconds + 1e-12)
            << model::toString(kind);
    }
}

TEST(Cooperative, WorkConservedAndSplitAcrossArrays)
{
    const Ctx s = cloudBert();
    const auto cascade = model::buildCascade(LayerKind::Ffn, s.cfg);
    const auto coop = scheduleCooperative(cascade, s.dims, s.arch);
    const double total = cascade.totalComputeLoad(s.dims);
    EXPECT_NEAR(coop.work.ops_2d + coop.work.ops_1d, total,
                1e-6 * total);
    // Both arrays participate in every op.
    EXPECT_GT(coop.work.ops_2d, 0.0);
    EXPECT_GT(coop.work.ops_1d, 0.0);
    // Occupied for the full duration on both arrays.
    EXPECT_DOUBLE_EQ(coop.work.busy_2d_s, coop.total_seconds);
    EXPECT_DOUBLE_EQ(coop.work.busy_1d_s, coop.total_seconds);
}

TEST(Cooperative, WinsOnBalancedEdgeArrays)
{
    // On the 32x32 edge variant the arrays are comparable and
    // matrix work dominates: cooperating on each op's tiles beats
    // whole-op placement.
    Ctx s{ arch::edgeArch32(), model::bertBase(), {} };
    s.dims = model::makeDims(s.cfg, 4096, 32, 128);
    const auto cascade = model::buildCascade(LayerKind::Ffn, s.cfg);
    const auto fixed =
        scheduleStaticPipeline(cascade, s.dims, s.arch);
    const auto coop = scheduleCooperative(cascade, s.dims, s.arch);
    EXPECT_LT(coop.total_seconds, fixed.total_seconds);
}

TEST(DPipe, EdgeSplitsMatrixWorkAcrossArrays)
{
    // On the edge the arrays are the same size; DPipe should use
    // the 1D array for part of the contraction work (Sec. 6.2:
    // "shifting more workload to 1D arrays").
    Ctx s{ arch::edgeArch(), model::bertBase(), {} };
    s.dims = model::makeDims(s.cfg, 4096, 16, 256);
    const auto cascade = model::buildCascade(LayerKind::Mha, s.cfg);
    const auto fuse =
        scheduleStaticPipeline(cascade, s.dims, s.arch);
    const auto dp = schedulePipeline(cascade, s.dims, s.arch,
                                     model::peMapping(LayerKind::Mha));
    EXPECT_GT(dp.work.ops_1d, fuse.work.ops_1d);
    EXPECT_LT(dp.total_seconds, fuse.total_seconds);
}

/*
 * The DPipe search as it ran before plan skeletons: every call
 * re-enumerates the bipartitions, rebuilds the steady-state and
 * induced sub-DAGs, and prices each over freshly enumerated orders.
 * Built only from public pieces, so the skeleton path can be checked
 * against it bit for bit.
 */
namespace direct
{

/**
 * bestDpSchedule as it was: it now shares the skeleton's candidate
 * orders, so the reference enumerates them itself.
 */
Schedule
bestDpSchedule(const einsum::Dag &dag,
               const std::vector<OpLatencyPair> &latency,
               std::size_t order_cap)
{
    std::int64_t tried = 1, pruned = 0;
    Schedule best = dpSchedule(dag, dag.topoSort(), latency);
    if (order_cap > 1) {
        for (const auto &order : dag.enumerateTopoOrders(order_cap)) {
            Schedule s = dpSchedule(dag, order, latency);
            ++tried;
            if (s.makespan < best.makespan)
                best = std::move(s);
            else
                ++pruned;
        }
    }
    TF_COUNT("dpipe/dp/orders_tried", tried);
    TF_COUNT("dpipe/dp/orders_pruned", pruned);
    TF_COUNT("dpipe/dp/states_explored", tried * dag.nodeCount());
    return best;
}

einsum::Dag
inducedSubdag(const einsum::Dag &dag, const std::vector<bool> &members,
              std::vector<int> &to_orig)
{
    to_orig.clear();
    std::vector<int> to_new(static_cast<std::size_t>(dag.nodeCount()),
                            -1);
    for (int v = 0; v < dag.nodeCount(); ++v) {
        if (members[static_cast<std::size_t>(v)]) {
            to_new[static_cast<std::size_t>(v)] =
                static_cast<int>(to_orig.size());
            to_orig.push_back(v);
        }
    }
    einsum::Dag sub(static_cast<int>(to_orig.size()));
    for (int v = 0; v < dag.nodeCount(); ++v) {
        for (int w : dag.successors(v)) {
            if (members[static_cast<std::size_t>(v)]
                    && members[static_cast<std::size_t>(w)]) {
                sub.addEdge(to_new[static_cast<std::size_t>(v)],
                            to_new[static_cast<std::size_t>(w)]);
            }
        }
    }
    return sub;
}

einsum::Dag
steadyStateDag(const einsum::Dag &dag,
               const std::vector<bool> &in_first)
{
    const int n = dag.nodeCount();
    einsum::Dag combined(n + 1);
    for (int v = 0; v < n; ++v) {
        for (int w : dag.successors(v)) {
            if (in_first[static_cast<std::size_t>(v)]
                    == in_first[static_cast<std::size_t>(w)]) {
                combined.addEdge(v, w);
            }
        }
    }
    for (int v = 0; v < n; ++v) {
        if (combined.predecessors(v).empty())
            combined.addEdge(n, v);
    }
    return combined;
}

std::vector<OpLatencyPair>
subset(const std::vector<OpLatencyPair> &lat,
       const std::vector<int> &ids)
{
    std::vector<OpLatencyPair> out;
    for (int v : ids)
        out.push_back(lat[static_cast<std::size_t>(v)]);
    return out;
}

void
addWork(WorkSplit &work, const Schedule &sched,
        const std::vector<double> &full_load)
{
    for (const auto &pl : sched.placements) {
        if (pl.op >= static_cast<int>(full_load.size()))
            continue;
        const double ops = full_load[static_cast<std::size_t>(pl.op)];
        if (pl.pe == costmodel::PeTarget::Array2d)
            work.ops_2d += ops;
        else
            work.ops_1d += ops;
    }
}

PipelineResult
schedulePipeline(const einsum::Cascade &cascade,
                 const einsum::DimEnv &dims,
                 const arch::ArchConfig &arch,
                 const model::DimMapping &mapping,
                 std::size_t order_cap)
{
    const einsum::Dag dag = cascade.buildDag();
    const std::int64_t epochs = std::max<std::int64_t>(
        1, model::epochCount(mapping, dims, arch.pe2d.rows,
                             arch.pe2d.cols));
    std::vector<OpLatencyPair> lat;
    std::vector<double> full_load;
    for (const auto &op : cascade.ops()) {
        lat.push_back({
            costmodel::opLatencySeconds(op, dims, arch,
                                        costmodel::PeTarget::Array2d)
                / static_cast<double>(epochs),
            costmodel::opLatencySeconds(op, dims, arch,
                                        costmodel::PeTarget::Array1d)
                / static_cast<double>(epochs),
        });
        full_load.push_back(op.computeLoad(dims));
    }

    const Schedule epoch = bestDpSchedule(dag, lat, order_cap);
    PipelineResult best;
    best.epochs = epochs;
    best.steady_epoch_seconds = epoch.makespan;
    best.total_seconds = epoch.makespan * static_cast<double>(epochs);
    best.steady_schedule = epoch;
    best.work.busy_2d_s = epoch.busy_2d * static_cast<double>(epochs);
    best.work.busy_1d_s = epoch.busy_1d * static_cast<double>(epochs);
    addWork(best.work, epoch, full_load);
    TF_COUNT("dpipe/pipeline/plans", 1);
    if (epochs < 2)
        return best;

    std::int64_t tried = 0, kept = 0;
    for (const auto &part : enumerateBipartitions(dag)) {
        ++tried;
        auto lat_root = lat;
        lat_root.push_back({ 0.0, 0.0 });
        const Schedule steady = bestDpSchedule(
            steadyStateDag(dag, part.in_first), lat_root, order_cap);
        std::vector<bool> in_second(part.in_first.size());
        for (std::size_t i = 0; i < in_second.size(); ++i)
            in_second[i] = !part.in_first[i];
        std::vector<int> a_ids, b_ids;
        const auto a_dag = inducedSubdag(dag, part.in_first, a_ids);
        const auto b_dag = inducedSubdag(dag, in_second, b_ids);
        const Schedule fill = bestDpSchedule(a_dag, subset(lat, a_ids),
                                             order_cap);
        const Schedule drain = bestDpSchedule(
            b_dag, subset(lat, b_ids), order_cap);

        const double total = fill.makespan
            + static_cast<double>(epochs - 1) * steady.makespan
            + drain.makespan;
        if (total < best.total_seconds) {
            ++kept;
            PipelineResult r;
            r.epochs = epochs;
            r.pipelined = true;
            r.partition = part;
            r.steady_epoch_seconds = steady.makespan;
            r.fill_seconds = fill.makespan;
            r.drain_seconds = drain.makespan;
            r.total_seconds = total;
            r.steady_schedule = steady;
            r.work.busy_2d_s = fill.busy_2d + drain.busy_2d
                + steady.busy_2d * static_cast<double>(epochs - 1);
            r.work.busy_1d_s = fill.busy_1d + drain.busy_1d
                + steady.busy_1d * static_cast<double>(epochs - 1);
            addWork(r.work, steady, full_load);
            best = std::move(r);
        }
    }
    TF_COUNT("dpipe/pipeline/bipartitions_tried", tried);
    TF_COUNT("dpipe/pipeline/bipartitions_improved", kept);
    TF_COUNT("dpipe/pipeline/pipelined_chosen", best.pipelined ? 1 : 0);
    TF_GAUGE_ADD("dpipe/pipeline/fill_s", best.fill_seconds);
    TF_GAUGE_ADD("dpipe/pipeline/drain_s", best.drain_seconds);
    TF_GAUGE_ADD("dpipe/pipeline/steady_epoch_s",
                 best.steady_epoch_seconds);
    return best;
}

} // namespace direct

/** First field where two plans differ bitwise; empty if none. */
std::string
firstDifference(const PipelineResult &a, const PipelineResult &b)
{
    const auto bits = [](double x) {
        return std::bit_cast<std::uint64_t>(x);
    };
    std::ostringstream os;
    const auto real = [&](const char *field, double x, double y) {
        if (os.tellp() == 0 && bits(x) != bits(y))
            os << field << ": " << x << " vs " << y;
    };
    real("total_seconds", a.total_seconds, b.total_seconds);
    real("steady_epoch_seconds", a.steady_epoch_seconds,
         b.steady_epoch_seconds);
    real("fill_seconds", a.fill_seconds, b.fill_seconds);
    real("drain_seconds", a.drain_seconds, b.drain_seconds);
    real("work.ops_2d", a.work.ops_2d, b.work.ops_2d);
    real("work.ops_1d", a.work.ops_1d, b.work.ops_1d);
    real("work.busy_2d_s", a.work.busy_2d_s, b.work.busy_2d_s);
    real("work.busy_1d_s", a.work.busy_1d_s, b.work.busy_1d_s);
    const Schedule &sa = a.steady_schedule, &sb = b.steady_schedule;
    real("steady.makespan", sa.makespan, sb.makespan);
    real("steady.busy_2d", sa.busy_2d, sb.busy_2d);
    real("steady.busy_1d", sa.busy_1d, sb.busy_1d);
    if (os.tellp() != 0)
        return os.str();
    if (a.epochs != b.epochs || a.pipelined != b.pipelined)
        return "epochs or pipelined";
    if (a.partition.in_first != b.partition.in_first)
        return "partition";
    if (sa.placements.size() != sb.placements.size())
        return "placement count";
    for (std::size_t i = 0; i < sa.placements.size(); ++i) {
        const auto &x = sa.placements[i], &y = sb.placements[i];
        if (x.op != y.op || x.pe != y.pe || bits(x.start) != bits(y.start)
                || bits(x.end) != bits(y.end)) {
            return "placement " + std::to_string(i);
        }
    }
    return "";
}

/** Two registries hold the same counters and bitwise-equal gauges. */
void
expectSameRecords(const obs::Registry &got_reg,
                  const obs::Registry &want_reg, const std::string &where)
{
#if TRANSFUSION_OBS_ENABLED
    const auto got = got_reg.snapshot();
    const auto want = want_reg.snapshot();
    EXPECT_EQ(got.counters, want.counters) << where;
    EXPECT_EQ(got.gauges.size(), want.gauges.size()) << where;
    for (const auto &[name, value] : want.gauges) {
        const auto it = got.gauges.find(name);
        EXPECT_TRUE(it != got.gauges.end()
                    && std::bit_cast<std::uint64_t>(it->second)
                        == std::bit_cast<std::uint64_t>(value))
            << where << " " << name;
    }
#else
    (void)got_reg;
    (void)want_reg;
    (void)where;
#endif
}

/**
 * Both searches under fresh registries, the direct one at the
 * skeletons' order cap; plans and metrics equal.  Returns whether
 * the plan pipelines.
 */
bool
expectSkeletonMatchesDirect(const einsum::Cascade &cascade,
                            const einsum::DimEnv &dims,
                            const arch::ArchConfig &arch,
                            const model::DimMapping &mapping,
                            const std::string &where)
{
    obs::Registry skeleton_reg, direct_reg;
    PipelineResult via_skeleton, via_direct;
    {
        obs::ScopedRegistry scope(skeleton_reg);
        via_skeleton = schedulePipeline(cascade, dims, arch, mapping);
    }
    {
        obs::ScopedRegistry scope(direct_reg);
        via_direct = direct::schedulePipeline(cascade, dims, arch,
                                              mapping, kMaxOrders);
    }
    EXPECT_EQ(firstDifference(via_skeleton, via_direct), "") << where;
    expectSameRecords(skeleton_reg, direct_reg, where);
    return via_direct.pipelined;
}

TEST(DPipe, SkeletonMatchesDirectSearch)
{
    const auto seqs = sim::paperSequenceSweep();
    int cases = 0, pipelined = 0;
    for (const auto &arch : { arch::cloudArch(), arch::edgeArch() }) {
        for (const auto &cfg : model::allModels()) {
            for (const std::int64_t p :
                 { seqs.front(), seqs[3], seqs.back() }) {
                const schedule::Evaluator eval(
                    arch, cfg, schedule::Workload::selfAttention(p));
                for (LayerKind kind : model::allLayerKinds()) {
                    ++cases;
                    pipelined += expectSkeletonMatchesDirect(
                        model::buildCascade(kind, cfg), eval.dims(),
                        arch, model::peMapping(kind),
                        arch.name + "/" + cfg.name + "/P="
                            + std::to_string(p) + "/"
                            + model::toString(kind));
                }
            }
        }
    }

    // The grid must exercise both plan families.
    EXPECT_GT(pipelined, 0);
    EXPECT_LT(pipelined, cases);

    // One inner tile: a single epoch, so only the epoch-only plan.
    Ctx s = cloudBert(64);
    s.dims = model::makeDims(s.cfg, 64, 64, 1);
    expectSkeletonMatchesDirect(
        model::buildCascade(LayerKind::Mha, s.cfg), s.dims, s.arch,
        model::peMapping(LayerKind::Mha), "single epoch");
}

TEST(DPipe, ConcurrentFirstUseSharesOneSkeleton)
{
    // ctest runs each test in its own process, so these threads race
    // the layer table's first use.
    const Ctx s = cloudBert();
    const auto cascade = model::buildCascade(LayerKind::Mha, s.cfg);

    constexpr int kThreads = 4;
    std::vector<PipelineResult> results(kThreads);
    std::vector<const PlanSkeleton *> skeletons(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            obs::Registry local;
            obs::ScopedRegistry scope(local);
            start.arrive_and_wait();
            results[static_cast<std::size_t>(t)] = schedulePipeline(
                LayerKind::Mha, cascade, s.dims, s.arch);
            skeletons[static_cast<std::size_t>(t)] =
                &layerSkeleton(LayerKind::Mha);
        });
    }
    for (auto &th : threads)
        th.join();

    for (int t = 1; t < kThreads; ++t) {
        EXPECT_EQ(skeletons[static_cast<std::size_t>(t)], skeletons[0]);
        EXPECT_EQ(firstDifference(results[static_cast<std::size_t>(t)],
                                  results[0]),
                  "");
    }
}

/**
 * Every config the evaluator may build sub-layer cascades for: each
 * model and each of its valid tensor-parallel shards (the attention
 * and the FFN config), under every activation.
 */
std::vector<model::TransformerConfig>
shardedConfigs()
{
    std::vector<model::TransformerConfig> out;
    for (const auto &cfg : model::allModels()) {
        for (int tp = 1; tp <= cfg.heads; ++tp) {
            if (cfg.heads % tp != 0 || cfg.ffn_hidden % tp != 0)
                continue;
            const auto shard = multichip::shardTransformer(cfg, tp);
            for (auto sharded : { shard.attn_cfg, shard.ffn_cfg }) {
                for (int a = 0;
                     a <= static_cast<int>(einsum::UnaryOp::Sigmoid);
                     ++a) {
                    sharded.activation = static_cast<einsum::UnaryOp>(a);
                    out.push_back(sharded);
                }
            }
        }
    }
    return out;
}

std::string
describe(const model::TransformerConfig &cfg, LayerKind kind)
{
    return cfg.name + "/activation "
        + std::to_string(static_cast<int>(cfg.activation)) + "/"
        + model::toString(kind);
}

TEST(DPipe, LayerDagsAreConfigIndependent)
{
    for (const auto &cfg : shardedConfigs()) {
        for (LayerKind kind : model::allLayerKinds()) {
            EXPECT_TRUE(model::buildCascade(kind, cfg).buildDag()
                        == layerSkeleton(kind).dag)
                << describe(cfg, kind);
        }
    }
}

TEST(DPipe, KindAndCascadeEntriesAgree)
{
    const auto arch = arch::cloudArch();
    for (const auto &cfg : shardedConfigs()) {
        const auto dims = model::makeDims(cfg, 4096, 256, 16);
        for (LayerKind kind : model::allLayerKinds()) {
            const auto cascade = model::buildCascade(kind, cfg);
            obs::Registry by_kind_reg, by_cascade_reg;
            PipelineResult by_kind, by_cascade;
            {
                obs::ScopedRegistry scope(by_kind_reg);
                by_kind = schedulePipeline(kind, cascade, dims, arch);
            }
            {
                obs::ScopedRegistry scope(by_cascade_reg);
                by_cascade = schedulePipeline(cascade, dims, arch,
                                              model::peMapping(kind));
            }
            const std::string where = describe(cfg, kind);
            EXPECT_EQ(firstDifference(by_kind, by_cascade), "") << where;
            expectSameRecords(by_kind_reg, by_cascade_reg, where);
        }
    }
}

/** The cascade-taking entry on a cascade no layer skeleton has. */
void
scheduleUnfusedMha() noexcept
{
    const Ctx s = cloudBert();
    schedulePipeline(model::buildUnfusedMhaCascade(), s.dims, s.arch,
                     model::peMapping(LayerKind::Mha));
}

TEST(DPipeDeathTest, CascadeOutsideTheLayerTableIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // The FatalError escapes a noexcept function, so the program
    // ends as an uncaught one would end a tool.
    EXPECT_DEATH(scheduleUnfusedMha(),
                 "cascade 'MHA-unfused' is not one of the four "
                 "sub-layer cascades");
}

} // namespace
} // namespace transfusion::dpipe
