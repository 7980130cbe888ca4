// Directed acyclic graph container and classic algorithms.
//
// The application model (src/model) stores its precedence structure in a Dag;
// generators (src/graph/generators) produce random Dags for synthetic
// workloads. Vertices are dense 0-based ids.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/types.hpp"

namespace rtlb {

/// Square bit matrix stored as one row of 64-bit words per vertex, so a row
/// union is a word-parallel OR: the representation of Dag::reachability().
class BitMatrix {
 public:
  BitMatrix() = default;
  explicit BitMatrix(std::size_t n) : n_(n), words_((n + 63) / 64), bits_(n * words_, 0) {}

  std::size_t size() const { return n_; }
  bool test(std::size_t r, std::size_t c) const {
    return ((bits_[r * words_ + c / 64] >> (c % 64)) & 1u) != 0;
  }
  void set(std::size_t r, std::size_t c) {
    bits_[r * words_ + c / 64] |= std::uint64_t{1} << (c % 64);
  }
  std::span<const std::uint64_t> row(std::size_t r) const {
    return {bits_.data() + r * words_, words_};
  }
  /// Row dst |= row src.
  void or_row(std::size_t dst, std::size_t src) {
    std::uint64_t* d = bits_.data() + dst * words_;
    const std::uint64_t* s = bits_.data() + src * words_;
    for (std::size_t k = 0; k < words_; ++k) d[k] |= s[k];
  }

  bool operator==(const BitMatrix&) const = default;

 private:
  std::size_t n_ = 0;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> bits_;
};

class Dag {
 public:
  Dag() = default;
  explicit Dag(std::size_t num_vertices);

  std::size_t num_vertices() const { return succ_.size(); }
  std::size_t num_edges() const { return num_edges_; }

  /// Add vertices so that the graph has at least `n` of them.
  void grow_to(std::size_t n);

  /// Add edge u -> v. Duplicate edges and self-loops are rejected.
  void add_edge(std::uint32_t u, std::uint32_t v);

  bool has_edge(std::uint32_t u, std::uint32_t v) const;

  const std::vector<std::uint32_t>& successors(std::uint32_t v) const { return succ_[v]; }
  const std::vector<std::uint32_t>& predecessors(std::uint32_t v) const { return pred_[v]; }

  std::size_t in_degree(std::uint32_t v) const { return pred_[v].size(); }
  std::size_t out_degree(std::uint32_t v) const { return succ_[v].size(); }

  std::vector<std::uint32_t> sources() const;
  std::vector<std::uint32_t> sinks() const;

  /// Kahn topological order, or nullopt if the edge set has a cycle. Among
  /// the ready vertices the smallest id always goes first, so the order is a
  /// pure function of the edge set. O((V + E) log V).
  std::optional<std::vector<std::uint32_t>> topological_order() const;

  bool is_acyclic() const { return topological_order().has_value(); }

  /// Reachability closure: reach.test(u, v) iff a path u ->* v of at least
  /// one edge exists. Rows are ORed in reverse topological order, O(V*E/64).
  /// Requires acyclic; `topo` overload takes a precomputed order.
  BitMatrix reachability() const;
  BitMatrix reachability(std::span<const std::uint32_t> topo) const;

  /// Longest weighted path ending at each vertex (vertex weights), i.e. the
  /// classic critical-path level. Requires acyclic; throws otherwise.
  std::vector<Time> longest_path_to(const std::vector<Time>& vertex_weight) const;

  /// Longest weighted path starting at each vertex (inclusive of the vertex).
  std::vector<Time> longest_path_from(const std::vector<Time>& vertex_weight) const;

  /// Length of the overall critical path under the given vertex weights.
  Time critical_path(const std::vector<Time>& vertex_weight) const;

  /// Depth level of each vertex (sources are level 0).
  std::vector<std::uint32_t> levels() const;

  /// Graphviz dot output, one label per vertex.
  std::string to_dot(const std::vector<std::string>& labels) const;

  /// The transitive reduction: the unique minimal edge set with the same
  /// reachability (unique for DAGs). Useful for de-cluttering generated
  /// precedence graphs. Requires acyclic; throws otherwise. Built on the
  /// bitset closure: O(V*E/64). The kept edges keep their adjacency order.
  Dag transitive_reduction() const;
  /// Same, over a precomputed topological order of this graph.
  Dag transitive_reduction(std::span<const std::uint32_t> topo) const;

 private:
  std::vector<std::vector<std::uint32_t>> succ_;
  std::vector<std::vector<std::uint32_t>> pred_;
  std::size_t num_edges_ = 0;
};

}  // namespace rtlb
