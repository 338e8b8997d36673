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

/**
 * The Eq. 43-46 DP over `order`: for every op, its earliest start
 * on each array, commit to the earliest finisher, advance that
 * array's timeline.  `predecessors(v)` lists op v's dependencies;
 * `end_t` is scratch covering every id; `place(op, pe, start, end)`
 * sees each commitment in order.  Returns the makespan.
 */
template <typename Id, typename Preds, typename Place>
double
runDp(std::span<const Id> order, const Preds &predecessors,
      const std::vector<OpLatencyPair> &latency,
      std::span<double> end_t, Place &&place)
{
    // Time[pe_j]: accumulated occupancy of each array (Eq. 46).
    double time_pe[2] = { 0.0, 0.0 };
    std::fill(end_t.begin(), end_t.end(), -1.0);
    double makespan = 0.0;

    for (const Id v : order) {
        // Latest completion among dependencies (Eq. 43, second arg).
        double dep_ready = 0.0;
        for (const auto p : predecessors(v)) {
            const double e = end_t[static_cast<std::size_t>(p)];
            tf_assert(e >= 0, "order is not topological: op ",
                      int{ v }, " scheduled before predecessor ",
                      int{ p });
            dep_ready = std::max(dep_ready, e);
        }

        // Evaluate both arrays; commit to the earliest finisher
        // (Eq. 44-45).
        double best_end = 0.0, best_start = 0.0;
        int best_pe = -1;
        for (int j = 0; j < 2; ++j) {
            const double start = std::max(time_pe[j], dep_ready);
            const double end = start
                + latency[static_cast<std::size_t>(v)]
                         [static_cast<std::size_t>(j)];
            if (best_pe < 0 || end < best_end) {
                best_pe = j;
                best_end = end;
                best_start = start;
            }
        }

        // Advance the winning array's timeline (Eq. 46).
        time_pe[best_pe] = best_end;
        end_t[static_cast<std::size_t>(v)] = best_end;
        place(int{ v }, best_pe, best_start, best_end);
        makespan = std::max(makespan, best_end);
    }
    return makespan;
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
    if (static_cast<int>(scratch.size()) < plan.idSpace())
        scratch.resize(static_cast<std::size_t>(plan.idSpace()));
    const std::span<double> end_t(
        scratch.data(), static_cast<std::size_t>(plan.idSpace()));
    const auto preds = predecessorsIn(plan);
    const auto no_placement = [](int, int, double, double) {};

    BestOrder best;
    best.makespan =
        runDp(plan.order(0), preds, latency, end_t, no_placement);
    for (std::size_t k = 1; k < plan.orderCount(); ++k) {
        const double makespan =
            runDp(plan.order(k), preds, latency, end_t, no_placement);
        if (makespan < best.makespan) {
            best.index = k;
            best.makespan = makespan;
        } else {
            ++stats.orders_pruned;
        }
    }
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
               std::size_t max_orders)
{
    tf_assert(static_cast<int>(latency.size()) == dag.nodeCount(),
              "latency table must cover the DAG");
    const SubDagPlan plan = SubDagPlan::whole(dag, max_orders);
    std::vector<double> scratch;
    DpSearchStats stats;
    const BestOrder best = bestOrder(plan, latency, scratch, stats);
    stats.record();
    return dpSchedule(plan, best.index, latency);
}

} // namespace transfusion::dpipe
