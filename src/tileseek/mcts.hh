/**
 * @file
 * TileSeek's MCTS exploration framework (Sec. 5.1).  Each tree node
 * fixes one more outer-tiling factor; selection follows UCB1;
 * candidate tilings are validated against the Table 2 buffer
 * constraints before the cost model scores them (the "Constraint
 * Validation" and "Simulation" components); rewards backpropagate
 * along the selected path.
 *
 * With `MctsOptions.threads > 1` the search is *root-parallel*: K
 * fully independent trees run concurrently, tree i drawing from an
 * Rng forked deterministically as seed + i, and the per-tree
 * incumbents merge by best cost (lowest tree index wins ties).  A
 * fixed (seed, threads) pair therefore yields a bit-identical
 * SearchResult regardless of scheduling, and threads == 1
 * reproduces the single-threaded search exactly.
 */

#ifndef TRANSFUSION_TILESEEK_MCTS_HH
#define TRANSFUSION_TILESEEK_MCTS_HH

#include "common/rng.hh"
#include "tileseek/search_space.hh"

namespace transfusion::tileseek
{

/** MCTS tuning knobs. */
struct MctsOptions
{
    int iterations = 2048;    ///< selection/rollout/backprop rounds
    double ucb_c = 1.41421356237; ///< UCB exploration constant
    std::uint64_t seed = 0x7f4a7c15; ///< rollout RNG seed
    /**
     * Root-parallel tree count.  Each tree runs the full iteration
     * budget; results merge by best cost.  Tree 0 reproduces the
     * threads == 1 search, so raising the count can only improve
     * (or tie) the incumbent for a given seed.
     */
    int threads = 1;

    bool operator==(const MctsOptions &) const = default;
};

/** MCTS-based outer tiling search. */
class TileSeek
{
  public:
    /**
     * @param space    decision levels and candidates
     * @param feasible Table 2 constraint validation
     * @param cost     simulation/evaluation objective (lower better)
     */
    TileSeek(SearchSpace space, FeasibleFn feasible, CostFn cost,
             MctsOptions options = {});

    /**
     * Run the configured number of iterations (per tree).  Each
     * call restarts from scratch: repeated calls on the same
     * instance return bit-identical results.
     */
    SearchResult search();

    /** Tree nodes materialized during the last search (all trees). */
    std::int64_t nodesExpanded() const { return nodes_expanded; }

  private:
    /**
     * A tree node.  Its children's ids sit in the tree's child_pool
     * from `first_slot`, one slot per choice at its level.  Children
     * are expanded in choice order, so the next one is `expanded`.
     */
    struct Node
    {
        int level = 0;      ///< depth in the tree
        int first_slot = 0; ///< offset of its children in child_pool
        int expanded = 0;   ///< children materialized so far
        double total_reward = 0;
        int visits = 0;
    };

    /** One independent search tree (the root-parallel unit). */
    struct Tree
    {
        explicit Tree(std::uint64_t seed) : rng(seed) {}

        std::vector<Node> nodes; ///< one per iteration, plus the root
        std::vector<int> child_pool;
        Assignment partial;    ///< iterate()'s buffers, reused
        std::vector<int> path;
        Rng rng;
        double reward_scale = -1; ///< first feasible cost, shaping
        SearchResult result;
    };

    SearchSpace space;
    FeasibleFn feasible;
    CostFn cost;
    MctsOptions options;

    std::int64_t nodes_expanded = 0;

    /** Run one complete tree; deterministic in its forked seed. */
    void searchTree(Tree &tree) const;

    int newNode(Tree &tree, int level) const;
    /** UCB1 score of a child given log(parent visit count), which
     *  is -inf for an unvisited parent. */
    double ucbScore(const Node &child, double log_parent_visits) const;
    /** One MCTS iteration; updates the tree's incumbent. */
    void iterate(Tree &tree) const;
    /** Evaluate a complete assignment, updating the incumbent. */
    double evaluate(Tree &tree, const Assignment &a) const;
};

} // namespace transfusion::tileseek

#endif // TRANSFUSION_TILESEEK_MCTS_HH
