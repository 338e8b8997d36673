/**
 * @file
 * Small directed-acyclic-graph utility used for Einsum dependency
 * graphs.  Node payloads live elsewhere (the Cascade); the Dag only
 * stores structure plus the queries DPipe needs: sources, sinks,
 * topological order, weak connectivity and reachability of node
 * subsets.
 */

#ifndef TRANSFUSION_EINSUM_DAG_HH
#define TRANSFUSION_EINSUM_DAG_HH

#include <cstdint>
#include <string>
#include <vector>

namespace transfusion::einsum
{

/** Directed acyclic graph over nodes 0..n-1. */
class Dag
{
  public:
    /** Create a DAG with n isolated nodes. */
    explicit Dag(int n = 0);

    /** Add edge from -> to; duplicate edges are ignored. */
    void addEdge(int from, int to);

    int nodeCount() const { return static_cast<int>(succ.size()); }
    const std::vector<int> &successors(int v) const;
    const std::vector<int> &predecessors(int v) const;
    bool hasEdge(int from, int to) const;
    int edgeCount() const;

    /** Nodes with zero in-degree, ascending. */
    std::vector<int> sources() const;

    /** Nodes with zero out-degree, ascending. */
    std::vector<int> sinks() const;

    /**
     * Deterministic topological order (Kahn's algorithm, smallest
     * node id first).  Panics if the graph has a cycle.
     */
    std::vector<int> topoSort() const;

    /** True if the graph (as built) is acyclic. */
    bool isAcyclic() const;

    /**
     * Whether the induced subgraph over `members` is weakly
     * connected (treating edges as undirected).  Empty subsets and
     * singletons count as connected.
     */
    bool isWeaklyConnected(const std::vector<bool> &members) const;

    /**
     * Whether every member node is reachable from some DAG source
     * via paths that stay inside `members`.
     */
    bool allReachableFromSources(
        const std::vector<bool> &members) const;

    /**
     * Whether `members` is dependency-complete: every predecessor of
     * a member is itself a member.
     */
    bool isDependencyComplete(const std::vector<bool> &members) const;

    /** Count the linear extensions (topological orders), capped. */
    std::uint64_t countTopoOrders(std::uint64_t cap) const;

    /**
     * Enumerate topological orders deterministically (lexicographic
     * by node id), stopping after `cap` orders.
     */
    std::vector<std::vector<int>>
    enumerateTopoOrders(std::size_t cap) const;

    /** Graphviz dot text, with optional node labels. */
    std::string toDot(const std::vector<std::string> &labels = {}) const;

    /** Same nodes and the same edges, inserted in the same order. */
    bool operator==(const Dag &) const = default;

  private:
    std::vector<std::vector<int>> succ;
    std::vector<std::vector<int>> pred;
};

} // namespace transfusion::einsum

#endif // TRANSFUSION_EINSUM_DAG_HH
