/**
 * @file
 * Span-to-layer attribution (see layers.hh).
 */

#include "layers.hh"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench
{

using transfusion::obs::TraceEvent;

namespace
{

double
endOf(const TraceEvent &e)
{
    return e.ts_us + e.dur_us;
}

/** Spans that hand their work to a thread pool and wait for it. */
bool
waitsOnPool(const std::string &span)
{
    return span == kJobSpan || span == "plan.capacity_search"
        || span == "multichip.plan_shards";
}

/** One thread's spans, replayed in time order as a nesting stack. */
struct ThreadCursor
{
    std::vector<const TraceEvent *> spans; // by (start, -duration)
    std::size_t next = 0;
    std::vector<const TraceEvent *> open;

    /** Innermost span open at time t (null if none). */
    const TraceEvent *
    innermostAt(double t)
    {
        while (next < spans.size() && spans[next]->ts_us <= t) {
            const TraceEvent *e = spans[next++];
            while (!open.empty() && endOf(*open.back()) <= e->ts_us)
                open.pop_back();
            open.push_back(e);
        }
        while (!open.empty() && endOf(*open.back()) <= t)
            open.pop_back();
        return open.empty() ? nullptr : open.back();
    }
};

} // namespace

std::string
layerOf(const std::string &span)
{
    // Span prefixes the program records, folded into the layer
    // names the benchmark reports.  Unlisted spans (tileseek.search,
    // serve.run, fleet.run, fault.run, multichip.plan_shards, ...)
    // are layers under their own name.
    static const std::pair<const char *, const char *> kPrefixes[] = {
        { "evaluator.evaluate/TransFusion",
          "schedule.evaluate.transfusion" },
        { "evaluator.evaluate/", "schedule.evaluate.baselines" },
        { "stack_evaluator.evaluate/", "schedule.stack_evaluate" },
        { "multichip.sharded_evaluate/", "multichip.sharded_evaluate" },
        { "multichip.sharded_calibration", "serve.calibrate" },
        { "plan.capacity_search", "plan.search" },
    };
    if (span == kJobSpan)
        return "other";
    for (const auto &[prefix, layer] : kPrefixes) {
        if (span.rfind(prefix, 0) == 0)
            return layer;
    }
    return span;
}

JobLayers
attributeJob(const std::vector<TraceEvent> &events)
{
    const TraceEvent *root = nullptr;
    for (const TraceEvent &e : events) {
        if (e.name == kJobSpan) {
            root = &e;
            break;
        }
    }
    if (root == nullptr)
        throw std::runtime_error("traced job recorded no root span");
    const double t0 = root->ts_us;
    const double t1 = endOf(*root);

    JobLayers rows;
    std::map<int, ThreadCursor> threads;
    std::vector<double> cuts{ t0, t1 };
    for (const TraceEvent &e : events) {
        if (e.ts_us < t0 || e.ts_us > t1)
            continue;
        threads[e.tid].spans.push_back(&e);
        LayerRow &row = rows[layerOf(e.name)];
        row.count += 1;
        row.total_s += e.dur_us * 1e-6;
        cuts.push_back(e.ts_us);
        cuts.push_back(std::min(endOf(e), t1));
    }
    for (auto &[tid, cursor] : threads) {
        std::stable_sort(cursor.spans.begin(), cursor.spans.end(),
                         [](const TraceEvent *a, const TraceEvent *b) {
                             if (a->ts_us != b->ts_us)
                                 return a->ts_us < b->ts_us;
                             return a->dur_us > b->dur_us;
                         });
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    std::vector<const TraceEvent *> busy;
    std::vector<const TraceEvent *> credited;
    for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
        const double a = cuts[k];
        const double b = cuts[k + 1];
        const double mid = 0.5 * (a + b);
        busy.clear();
        for (auto &[tid, cursor] : threads) {
            if (const TraceEvent *e = cursor.innermostAt(mid))
                busy.push_back(e);
        }
        credited.clear();
        for (const TraceEvent *e : busy) {
            if (!waitsOnPool(e->name))
                credited.push_back(e);
        }
        if (credited.empty()) {
            for (const TraceEvent *e : busy) {
                if (e != root)
                    credited.push_back(e);
            }
        }
        if (credited.empty())
            credited.push_back(root);
        const double share =
            (b - a) * 1e-6 / static_cast<double>(credited.size());
        for (const TraceEvent *e : credited)
            rows[layerOf(e->name)].self_s += share;
    }
    return rows;
}

void
LayerTable::add(const JobLayers &job)
{
    for (const auto &[layer, row] : job) {
        LayerRow &sum = rows_[layer];
        sum.count += row.count;
        sum.total_s += row.total_s;
        sum.self_s += row.self_s;
    }
    wall_s_ += job.at("other").total_s;
    jobs_ += 1;
}

double
LayerTable::attributedFrac() const
{
    if (wall_s_ <= 0)
        return 0;
    const auto other = rows_.find("other");
    const double unattributed =
        other == rows_.end() ? 0 : other->second.self_s;
    return 1.0 - unattributed / wall_s_;
}

void
LayerTable::print(std::ostream &os) const
{
    if (jobs_ == 0)
        return;
    std::vector<std::pair<std::string, LayerRow>> sorted(rows_.begin(),
                                                         rows_.end());
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const auto &a, const auto &b) {
                         if ((a.first == "other") != (b.first == "other"))
                             return b.first == "other";
                         return a.second.self_s > b.second.self_s;
                     });
    const double jobs = static_cast<double>(jobs_);
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%-32s %12s %14s %13s %8s\n", "layer", "count/job",
                  "total ms/job", "self ms/job", "self %");
    os << line;
    for (const auto &[layer, row] : sorted) {
        std::snprintf(line, sizeof(line),
                      "%-32s %12.1f %14.3f %13.3f %7.2f%%\n",
                      layer.c_str(),
                      static_cast<double>(row.count) / jobs,
                      row.total_s * 1e3 / jobs, row.self_s * 1e3 / jobs,
                      100.0 * row.self_s / wall_s_);
        os << line;
    }
    std::snprintf(line, sizeof(line),
                  "%-32s %12lld %14.3f %13s %7.2f%%\n", "(job wall)",
                  static_cast<long long>(jobs_), wall_s_ * 1e3 / jobs,
                  "", 100.0);
    os << line;
}

} // namespace perfbench
