/**
 * @file
 * Implementation of the Eq. 43-46 DP scheduler.
 */

#include "dp_scheduler.hh"

#include <algorithm>
#include <span>
#include <sstream>

#include "common/logging.hh"
#include "common/math_utils.hh"
#include "obs/obs.hh"

namespace transfusion::dpipe
{

using costmodel::PeTarget;

const OpPlacement &
Schedule::placementOf(int op) const
{
    for (const auto &p : placements) {
        if (p.op == op)
            return p;
    }
    tf_panic("op ", op, " not present in schedule");
}

std::string
Schedule::toString(const std::vector<std::string> &op_names) const
{
    std::ostringstream os;
    for (const auto &p : placements) {
        std::string name = p.op < static_cast<int>(op_names.size())
            ? op_names[static_cast<std::size_t>(p.op)]
            : ("op" + std::to_string(p.op));
        os << "  " << name << " on "
           << costmodel::toString(p.pe) << "  ["
           << formatSeconds(p.start) << ", "
           << formatSeconds(p.end) << ")\n";
    }
    os << "  makespan " << formatSeconds(makespan) << "\n";
    return os.str();
}

std::string
Schedule::toGantt(const std::vector<std::string> &op_names,
                  int width) const
{
    tf_assert(width >= 8, "gantt width must be at least 8");
    if (makespan <= 0 || placements.empty())
        return "(empty schedule)\n";

    std::string rows[2];
    rows[0].assign(static_cast<std::size_t>(width), '.');
    rows[1].assign(static_cast<std::size_t>(width), '.');

    for (const auto &p : placements) {
        if (p.end <= p.start)
            continue;
        auto col = [&](double t) {
            return std::min(width - 1,
                            static_cast<int>(t / makespan
                                             * width));
        };
        const int c0 = col(p.start);
        const int c1 = std::max(c0, col(p.end) - 1);
        std::string &row =
            rows[p.pe == PeTarget::Array2d ? 0 : 1];
        std::string label =
            p.op < static_cast<int>(op_names.size())
                ? op_names[static_cast<std::size_t>(p.op)]
                : std::to_string(p.op);
        for (int c = c0; c <= c1; ++c) {
            const std::size_t li = static_cast<std::size_t>(c - c0);
            row[static_cast<std::size_t>(c)] =
                li < label.size() ? label[li] : '=';
        }
    }

    std::ostringstream os;
    os << "  2D |" << rows[0] << "|\n";
    os << "  1D |" << rows[1] << "|\n";
    os << "      0" << std::string(static_cast<std::size_t>(
                           std::max(0, width - 12)), ' ')
       << formatSeconds(makespan) << "\n";
    return os.str();
}

namespace
{

/** The DP's running state after a prefix of an order. */
struct DpState
{
    double time_pe[2] = { 0.0, 0.0 }; ///< Time[pe_j] (Eq. 46)
    double makespan = 0.0;
};

/** Where one DP step committed its op. */
struct DpStep
{
    int pe = -1;
    double start = 0.0;
    double end = 0.0;
};

/**
 * One Eq. 43-46 step: op v's earliest start on each array, commit
 * to the earliest finisher, advance that array's timeline.
 * `predecessors(v)` lists v's dependencies; `end_t` holds every
 * placed op's end and -1 for every unplaced one.
 */
template <typename Id, typename Preds>
DpStep
dpStep(Id v, const Preds &predecessors,
       const std::vector<OpLatencyPair> &latency,
       std::span<double> end_t, DpState &state)
{
    // Latest completion among dependencies (Eq. 43, second arg).
    double dep_ready = 0.0;
    for (const auto p : predecessors(v)) {
        const double e = end_t[static_cast<std::size_t>(p)];
        tf_assert(e >= 0, "order is not topological: op ", int{ v },
                  " scheduled before predecessor ", int{ p });
        dep_ready = std::max(dep_ready, e);
    }

    // Evaluate both arrays; commit to the earliest finisher
    // (Eq. 44-45).
    DpStep step;
    for (int j = 0; j < 2; ++j) {
        const double start = std::max(state.time_pe[j], dep_ready);
        const double end = start
            + latency[static_cast<std::size_t>(v)]
                     [static_cast<std::size_t>(j)];
        if (step.pe < 0 || end < step.end)
            step = { j, start, end };
    }

    // Advance the winning array's timeline (Eq. 46).
    state.time_pe[step.pe] = step.end;
    end_t[static_cast<std::size_t>(v)] = step.end;
    state.makespan = std::max(state.makespan, step.end);
    return step;
}

/**
 * The Eq. 43-46 DP over a whole `order`; `end_t` is scratch
 * covering every id, and `place(op, pe, start, end)` sees each
 * commitment in order.  Returns the makespan.
 */
template <typename Id, typename Preds, typename Place>
double
runDp(std::span<const Id> order, const Preds &predecessors,
      const std::vector<OpLatencyPair> &latency,
      std::span<double> end_t, Place &&place)
{
    DpState state;
    std::fill(end_t.begin(), end_t.end(), -1.0);
    for (const Id v : order) {
        const DpStep step =
            dpStep(v, predecessors, latency, end_t, state);
        place(int{ v }, step.pe, step.start, step.end);
    }
    return state.makespan;
}

/** A `place` callback for runDp that records the full Schedule. */
struct ScheduleRecorder
{
    Schedule sched;

    explicit ScheduleRecorder(int ops)
    {
        sched.placements.reserve(static_cast<std::size_t>(ops));
    }

    void
    operator()(int v, int pe, double start, double end)
    {
        OpPlacement pl;
        pl.op = v;
        pl.pe = pe == 0 ? PeTarget::Array2d : PeTarget::Array1d;
        pl.start = start;
        pl.end = end;
        sched.placements.push_back(pl);

        const double dur = end - start;
        if (pe == 0)
            sched.busy_2d += dur;
        else
            sched.busy_1d += dur;
    }
};

/** SubDagPlan predecessor lists, as runDp reads them. */
auto
predecessorsIn(const SubDagPlan &plan)
{
    return [&plan](PlanOpId v) { return plan.predecessors(v); };
}

} // namespace

void
DpSearchStats::record() const
{
    TF_COUNT("dpipe/dp/orders_tried", orders_tried);
    TF_COUNT("dpipe/dp/orders_pruned", orders_pruned);
    TF_COUNT("dpipe/dp/states_explored", states_explored);
}

BestOrder
bestOrder(const SubDagPlan &plan,
          const std::vector<OpLatencyPair> &latency,
          std::vector<double> &scratch, DpSearchStats &stats)
{
    tf_assert(static_cast<int>(latency.size()) >= plan.idSpace(),
              "latency table must cover the DAG");
    // scratch = [end_t by id | DpState after each depth 0..n].
    constexpr std::size_t kStateWords = 3;
    const auto ids = static_cast<std::size_t>(plan.idSpace());
    const auto n = static_cast<std::size_t>(plan.size());
    const std::size_t words = ids + kStateWords * (n + 1);
    if (scratch.size() < words)
        scratch.resize(words);
    const std::span<double> end_t(scratch.data(), ids);
    const std::span<double> depth_state(scratch.data() + ids,
                                        kStateWords * (n + 1));
    const auto save = [&](std::size_t d, const DpState &s) {
        depth_state[kStateWords * d] = s.time_pe[0];
        depth_state[kStateWords * d + 1] = s.time_pe[1];
        depth_state[kStateWords * d + 2] = s.makespan;
    };
    const auto load = [&](std::size_t d) {
        DpState s;
        s.time_pe[0] = depth_state[kStateWords * d];
        s.time_pe[1] = depth_state[kStateWords * d + 1];
        s.makespan = depth_state[kStateWords * d + 2];
        return s;
    };
    const auto preds = predecessorsIn(plan);
    std::fill(end_t.begin(), end_t.end(), -1.0);
    save(0, DpState{});

    // Branch and bound over the stored orders.  Depths 0..`priced`
    // of depth_state (and the end_t of the ops placed there) belong
    // to the prefix priced last.  Order k shares its first
    // sharedPrefix(k) ops with order k - 1, so it resumes at that
    // depth, or at `priced` if pricing stopped short of it.  The
    // makespan never shrinks along an order, so once it is not
    // below the incumbent the order cannot win: pricing stops
    // there, and a later order sharing that prefix resumes already
    // beaten.  Order 0 is always priced in full and is the first
    // incumbent; the strict `<` keeps the first best order.
    BestOrder best;
    std::size_t priced = 0;
    for (std::size_t k = 0; k < plan.orderCount(); ++k) {
        const auto order = plan.order(k);
        priced = std::min(priced, plan.sharedPrefix(k));
        DpState state = load(priced);
        const auto beaten = [&] {
            return k > 0 && !(state.makespan < best.makespan);
        };
        for (std::size_t d = priced; d < n; ++d)
            end_t[order[d]] = -1.0;
        while (priced < n && !beaten()) {
            dpStep(order[priced], preds, latency, end_t, state);
            save(++priced, state);
        }
        if (beaten()) {
            ++stats.orders_pruned;
        } else {
            best.index = k;
            best.makespan = state.makespan;
        }
    }
    // The counters describe the search space, not the op-steps
    // priced (see DpSearchStats).
    const auto tried = static_cast<std::int64_t>(plan.orderCount());
    stats.orders_tried += tried;
    stats.states_explored += tried * plan.size();
    return best;
}

Schedule
dpSchedule(const SubDagPlan &plan, std::size_t k,
           const std::vector<OpLatencyPair> &latency)
{
    tf_assert(static_cast<int>(latency.size()) >= plan.idSpace(),
              "latency table must cover the DAG");
    std::vector<double> end_t(static_cast<std::size_t>(plan.idSpace()));
    ScheduleRecorder rec(plan.size());
    rec.sched.makespan = runDp(plan.order(k), predecessorsIn(plan),
                               latency, std::span<double>(end_t), rec);
    return std::move(rec.sched);
}

Schedule
dpSchedule(const einsum::Dag &dag, const std::vector<int> &order,
           const std::vector<OpLatencyPair> &latency)
{
    const int n = dag.nodeCount();
    tf_assert(static_cast<int>(order.size()) == n,
              "order must cover the DAG");
    tf_assert(static_cast<int>(latency.size()) == n,
              "latency table must cover the DAG");
    std::vector<double> end_t(static_cast<std::size_t>(n));
    ScheduleRecorder rec(n);
    rec.sched.makespan = runDp(
        std::span<const int>(order),
        [&dag](int v) -> const std::vector<int> & {
            return dag.predecessors(v);
        },
        latency, std::span<double>(end_t), rec);
    return std::move(rec.sched);
}

Schedule
bestDpSchedule(const einsum::Dag &dag,
               const std::vector<OpLatencyPair> &latency,
               std::size_t order_cap)
{
    tf_assert(static_cast<int>(latency.size()) == dag.nodeCount(),
              "latency table must cover the DAG");
    const SubDagPlan plan = SubDagPlan::whole(dag, order_cap);
    std::vector<double> scratch;
    DpSearchStats stats;
    const BestOrder best = bestOrder(plan, latency, scratch, stats);
    stats.record();
    return dpSchedule(plan, best.index, latency);
}

} // namespace transfusion::dpipe
