/**
 * @file
 * Implementation of the TileSeek MCTS.
 */

#include "mcts.hh"

#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/parallel_map.hh"
#include "obs/obs.hh"

namespace transfusion::tileseek
{

TileSeek::TileSeek(SearchSpace space_, FeasibleFn feasible_,
                   CostFn cost_, MctsOptions options_)
    : space(std::move(space_)), feasible(std::move(feasible_)),
      cost(std::move(cost_)), options(options_)
{
    space.validate();
    tf_assert(feasible != nullptr, "feasibility predicate required");
    tf_assert(cost != nullptr, "cost function required");
    if (options.iterations <= 0)
        tf_fatal("MCTS needs a positive iteration budget, got ",
                 options.iterations);
    if (options.threads <= 0)
        tf_fatal("MCTS needs a positive tree count, got ",
                 options.threads);
}

int
TileSeek::newNode(Tree &tree, int level) const
{
    Node n;
    n.level = level;
    n.first_slot = static_cast<int>(tree.child_pool.size());
    if (level < static_cast<int>(space.depth())) {
        tree.child_pool.resize(
            tree.child_pool.size()
            + space.choices[static_cast<std::size_t>(level)].size());
    }
    // iterate() holds a reference into `nodes` across this call.
    tf_assert(tree.nodes.size() < tree.nodes.capacity(),
              "TileSeek node arena overflow");
    tree.nodes.push_back(n);
    return static_cast<int>(tree.nodes.size()) - 1;
}

double
TileSeek::ucbScore(const Node &child, double log_parent_visits) const
{
    // Unvisited children and children of an unvisited parent are
    // maximally attractive.  The parent guard is defensive:
    // log(0) -> -inf would otherwise surface as a NaN score that
    // silently loses every comparison and skews selection.
    if (child.visits == 0 || !(log_parent_visits >= 0))
        return std::numeric_limits<double>::infinity();
    const double mean = child.total_reward
        / static_cast<double>(child.visits);
    const double explore = options.ucb_c
        * std::sqrt(log_parent_visits
                    / static_cast<double>(child.visits));
    return mean + explore;
}

double
TileSeek::evaluate(Tree &tree, const Assignment &a) const
{
    // Every completed leaf counts against the evaluation budget:
    // infeasible points still paid for constraint validation, and
    // reporting only the feasible subset under-counted search cost.
    ++tree.result.evaluations;
    // A failed constraint reads as a negative (infeasible) cost.
    const double c = feasible(a) ? cost(a) : -1.0;
    if (!costFeasible(c)) {
        ++tree.result.infeasible;
        return 0.0; // infeasible leaves earn zero reward
    }
    if (tree.reward_scale <= 0)
        tree.reward_scale = c > 0 ? c : 1.0;
    SearchResult &result = tree.result;
    if (!result.found || c < result.best_cost) {
        result.found = true;
        result.best = a;
        result.best_cost = c;
        ++result.best_updates;
    }
    // Shaped reward in (0, 1]: the first feasible cost maps to 0.5,
    // cheaper tilings approach 1.
    return tree.reward_scale / (tree.reward_scale + c);
}

void
TileSeek::iterate(Tree &tree) const
{
    Assignment &partial = tree.partial;
    std::vector<int> &path = tree.path;
    path.clear();
    int node = 0;
    path.push_back(node);

    // Selection: descend while fully expanded, maximizing UCB.
    while (true) {
        Node &n = tree.nodes[static_cast<std::size_t>(node)];
        if (n.level == static_cast<int>(space.depth()))
            break; // complete assignment reached

        const auto &cands =
            space.choices[static_cast<std::size_t>(n.level)];
        const int *children = tree.child_pool.data() + n.first_slot;

        // Expansion: children are created in choice order, so the
        // first unexpanded one is choice `expanded`.  `nodes` has
        // room for every iteration's node, so `n` stays valid.
        if (n.expanded < static_cast<int>(cands.size())) {
            const int choice = n.expanded++;
            partial[static_cast<std::size_t>(n.level)] =
                cands[static_cast<std::size_t>(choice)];
            node = newNode(tree, n.level + 1);
            tree.child_pool[static_cast<std::size_t>(n.first_slot
                                                     + choice)] = node;
            path.push_back(node);
            break;
        }

        // All children expanded: UCB selection.
        const double log_visits =
            std::log(static_cast<double>(n.visits));
        int best_choice = 0;
        double best_score = -1;
        for (std::size_t c = 0; c < cands.size(); ++c) {
            const double score = ucbScore(
                tree.nodes[static_cast<std::size_t>(children[c])],
                log_visits);
            if (score > best_score) {
                best_score = score;
                best_choice = static_cast<int>(c);
            }
        }
        partial[static_cast<std::size_t>(n.level)] =
            cands[static_cast<std::size_t>(best_choice)];
        node = children[best_choice];
        path.push_back(node);
    }

    // Rollout: complete the assignment randomly from the frontier
    // node's depth.
    for (std::size_t l = static_cast<std::size_t>(
             tree.nodes[static_cast<std::size_t>(node)].level);
         l < space.depth(); ++l) {
        const auto &cands = space.choices[l];
        partial[l] = cands[static_cast<std::size_t>(
            tree.rng.nextBelow(cands.size()))];
    }
    const double reward = evaluate(tree, partial);

    // Backpropagation.
    for (int v : path) {
        Node &n = tree.nodes[static_cast<std::size_t>(v)];
        n.visits += 1;
        n.total_reward += reward;
    }
}

void
TileSeek::searchTree(Tree &tree) const
{
    tree.nodes.reserve(static_cast<std::size_t>(options.iterations)
                       + 1);
    tree.partial.assign(space.depth(), 0);
    newNode(tree, 0); // root
    for (int i = 0; i < options.iterations; ++i)
        iterate(tree);
}

SearchResult
TileSeek::search()
{
    TF_SPAN("tileseek.search");
    const int k = options.threads;
    // Deterministic fork: tree i draws from seed + i, so tree 0 is
    // exactly the single-threaded stream.
    std::vector<std::uint64_t> seeds;
    seeds.reserve(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i)
        seeds.push_back(options.seed + static_cast<std::uint64_t>(i));
    // The trees fan out over at most one worker per core.
    const std::vector<Tree> trees = parallelMap(
        0, seeds, [this](const std::uint64_t &seed) {
            Tree tree(seed);
            searchTree(tree);
            return tree;
        });

    // Merge in ascending tree order: strict improvement only, so
    // ties resolve to the lowest tree index and the merge is
    // independent of completion order.
    SearchResult merged;
    nodes_expanded = 0;
    for (const Tree &t : trees) {
        nodes_expanded += static_cast<std::int64_t>(t.nodes.size());
        merged.evaluations += t.result.evaluations;
        merged.infeasible += t.result.infeasible;
        merged.best_updates += t.result.best_updates;
        if (t.result.found
                && (!merged.found
                    || t.result.best_cost < merged.best_cost)) {
            merged.found = true;
            merged.best = t.result.best;
            merged.best_cost = t.result.best_cost;
        }
    }
    // Instrumented at merge time on the calling thread: the worker
    // threads above must not touch the thread-local current
    // registry, or per-task registries installed by outer drivers
    // (Sweep, runScenarios) would miss these counts.
    TF_COUNT("tileseek/searches", 1);
    TF_COUNT("tileseek/trees", k);
    TF_COUNT("tileseek/iterations",
             static_cast<std::int64_t>(k) * options.iterations);
    TF_COUNT("tileseek/evaluations", merged.evaluations);
    TF_COUNT("tileseek/infeasible_leaves", merged.infeasible);
    TF_COUNT("tileseek/best_cost_updates", merged.best_updates);
    TF_COUNT("tileseek/nodes_expanded", nodes_expanded);
    if (merged.found)
        TF_GAUGE_ADD("tileseek/best_cost_sum", merged.best_cost);
    return merged;
}

} // namespace transfusion::tileseek
