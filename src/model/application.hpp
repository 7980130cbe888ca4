// The real-time application model of Section 2.1: a DAG of annotated tasks
// with message sizes on edges.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/types.hpp"
#include "src/graph/dag.hpp"
#include "src/model/platform.hpp"
#include "src/model/task.hpp"

namespace rtlb {

class Application {
 public:
  /// The catalog must outlive the application; it resolves every ResourceId.
  explicit Application(const ResourceCatalog& catalog) : catalog_(&catalog) {}

  /// Add a task. `task.resources` is canonicalized (sorted, deduplicated).
  TaskId add_task(Task task);

  /// Add precedence edge from -> to carrying a message of `msg_size` ticks
  /// (m_{from,to}; the transfer latency if the two tasks are on different
  /// processors/nodes).
  void add_edge(TaskId from, TaskId to, Time msg_size);

  std::size_t num_tasks() const { return tasks_.size(); }
  const Task& task(TaskId i) const { return tasks_[i]; }
  Task& task(TaskId i) { return tasks_[i]; }
  const std::vector<Task>& tasks() const { return tasks_; }

  const Dag& dag() const { return dag_; }
  const ResourceCatalog& catalog() const { return *catalog_; }

  /// Pred_i / Succ_i as task ids.
  const std::vector<std::uint32_t>& predecessors(TaskId i) const { return dag_.predecessors(i); }
  const std::vector<std::uint32_t>& successors(TaskId i) const { return dag_.successors(i); }

  /// One edge message: ((from, to), m_{from,to}).
  using EdgeMessage = std::pair<std::pair<TaskId, TaskId>, Time>;

  /// m_{ji}: message size on edge j -> i. Edge must exist. A row-index
  /// lookup plus a search of task j's (sorted) outgoing messages.
  Time message(TaskId from, TaskId to) const;

  /// Every edge message, ordered by (from, to) -- one entry per DAG edge.
  /// For whole-graph snapshots: one pass here instead of one message()
  /// lookup per edge (see also adjacent_messages()).
  const std::vector<EdgeMessage>& messages() const { return messages_; }

  /// Resize the message on an EXISTING edge (ModelError otherwise) -- the
  /// delta the sensitivity sweeps and AnalysisSession apply; the DAG shape
  /// never changes after construction.
  void set_message(TaskId from, TaskId to, Time msg_size);

  /// RES = union over tasks of (R_i u {phi_i}), ascending ids.
  std::vector<ResourceId> resource_set() const;

  /// ST_r: ids of the tasks that use r (as processor type or resource),
  /// ascending.
  std::vector<TaskId> tasks_using(ResourceId r) const;

  /// Total computation demand placed on r by ST_r.
  Time total_demand(ResourceId r) const;

  /// Find a task by name; kInvalidTask if absent.
  TaskId find_task(std::string_view name) const;

  /// Throws ModelError on the first structural violation: non-positive comp,
  /// release/deadline inversion, deadline window smaller than comp, invalid
  /// resource ids, processor id that is not a processor type, duplicate
  /// non-empty task names, or a cyclic edge set. Implemented on top of the
  /// structural lint pass (src/lint/passes.hpp); use rtlb::lint() to get ALL
  /// violations as batched diagnostics instead of the first one.
  void validate() const;

 private:
  /// messages_ index of (from, to), or messages_.size() when absent.
  std::size_t find_message(TaskId from, TaskId to) const;

  const ResourceCatalog* catalog_;
  std::vector<Task> tasks_;
  Dag dag_;
  /// The one message store, sorted by (from, to).
  std::vector<EdgeMessage> messages_;
  /// Row index into messages_: task i's outgoing messages are
  /// [msg_row_[i], msg_row_[i + 1]). It covers tasks up to the last one with
  /// an outgoing edge; the rows past its end are empty, so appending edges
  /// in ascending `from` order costs O(1) each.
  std::vector<std::uint32_t> msg_row_;
};

/// Edge messages laid out alongside the DAG adjacency lists:
/// out(i)[k] is m_{i, successors(i)[k]} and in(i)[k] is
/// m_{predecessors(i)[k], i}. A read-only snapshot for per-edge loops (the
/// windows engine, the lint passes, the checker), built from messages() in
/// O(n + E); it goes stale when a message changes.
struct AdjacentMessages {
  std::vector<std::size_t> succ_off, pred_off;  ///< n+1 CSR offsets
  std::vector<Time> succ_msg, pred_msg;         ///< aligned with adjacency order

  std::span<const Time> out(TaskId i) const {
    return {succ_msg.data() + succ_off[i], succ_off[i + 1] - succ_off[i]};
  }
  std::span<const Time> in(TaskId i) const {
    return {pred_msg.data() + pred_off[i], pred_off[i + 1] - pred_off[i]};
  }
};

AdjacentMessages adjacent_messages(const Application& app);

}  // namespace rtlb
