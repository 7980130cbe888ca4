#include "src/model/application.hpp"

#include <algorithm>

#include "src/lint/passes.hpp"

namespace rtlb {

TaskId Application::add_task(Task task) {
  std::sort(task.resources.begin(), task.resources.end());
  task.resources.erase(std::unique(task.resources.begin(), task.resources.end()),
                       task.resources.end());
  // phi_i is tracked separately; keep R_i free of it so unions stay simple.
  std::erase(task.resources, task.proc);
  tasks_.push_back(std::move(task));
  dag_.grow_to(tasks_.size());
  return static_cast<TaskId>(tasks_.size() - 1);
}

void Application::add_edge(TaskId from, TaskId to, Time msg_size) {
  RTLB_CHECK(from < tasks_.size() && to < tasks_.size(), "edge endpoint out of range");
  if (msg_size < 0) throw ModelError("negative message size");
  dag_.add_edge(from, to);
  // New empty rows up to `from` start at the end of the store.
  if (msg_row_.size() < std::size_t{from} + 2) {
    msg_row_.resize(std::size_t{from} + 2, static_cast<std::uint32_t>(messages_.size()));
  }
  const auto first = messages_.begin() + msg_row_[from];
  const auto last = messages_.begin() + msg_row_[from + 1];
  const auto pos = std::lower_bound(first, last, to, [](const EdgeMessage& e, TaskId t) {
    return e.first.second < t;
  });
  messages_.insert(pos, EdgeMessage{{from, to}, msg_size});
  for (std::size_t k = std::size_t{from} + 1; k < msg_row_.size(); ++k) ++msg_row_[k];
}

std::size_t Application::find_message(TaskId from, TaskId to) const {
  if (std::size_t{from} + 1 >= msg_row_.size()) return messages_.size();
  const auto first = messages_.begin() + msg_row_[from];
  const auto last = messages_.begin() + msg_row_[from + 1];
  const auto it = std::lower_bound(first, last, to, [](const EdgeMessage& e, TaskId t) {
    return e.first.second < t;
  });
  if (it == last || it->first.second != to) return messages_.size();
  return static_cast<std::size_t>(it - messages_.begin());
}

Time Application::message(TaskId from, TaskId to) const {
  const std::size_t k = find_message(from, to);
  RTLB_CHECK(k != messages_.size(), "message queried for a missing edge");
  return messages_[k].second;
}

void Application::set_message(TaskId from, TaskId to, Time msg_size) {
  const std::size_t k = find_message(from, to);
  if (k == messages_.size()) {
    throw ModelError("set_message: no edge " + std::to_string(from) + " -> " +
                     std::to_string(to));
  }
  if (msg_size < 0) throw ModelError("negative message size");
  messages_[k].second = msg_size;
}

AdjacentMessages adjacent_messages(const Application& app) {
  const std::size_t n = app.num_tasks();
  AdjacentMessages m;
  m.succ_off.resize(n + 1, 0);
  m.pred_off.resize(n + 1, 0);
  for (TaskId i = 0; i < n; ++i) {
    m.succ_off[i + 1] = m.succ_off[i] + app.successors(i).size();
    m.pred_off[i + 1] = m.pred_off[i] + app.predecessors(i).size();
  }
  m.succ_msg.resize(m.succ_off[n]);
  m.pred_msg.resize(m.pred_off[n]);
  // O(n + E) with one scratch index. The store is sorted by (from, to), so
  // task p's outgoing messages are the run msgs[succ_off[p], succ_off[p+1])
  // in ascending `to`. In-rows: walking the targets in ascending order, the
  // message of each edge (p, i) is the next unread one of p's run. Out-rows:
  // a position index (pos[v] = v's slot in the successor list) scatters
  // each run into adjacency order.
  const std::vector<Application::EdgeMessage>& msgs = app.messages();
  std::vector<std::size_t> scratch(m.succ_off.begin(), m.succ_off.end() - 1);
  for (TaskId i = 0; i < n; ++i) {
    const auto& pred = app.predecessors(i);
    for (std::size_t k = 0; k < pred.size(); ++k) {
      m.pred_msg[m.pred_off[i] + k] = msgs[scratch[pred[k]]++].second;
    }
  }
  std::vector<std::size_t>& pos = scratch;
  for (TaskId i = 0; i < n; ++i) {
    const auto& succ = app.successors(i);
    for (std::size_t k = 0; k < succ.size(); ++k) pos[succ[k]] = k;
    for (std::size_t e = m.succ_off[i]; e < m.succ_off[i + 1]; ++e) {
      m.succ_msg[m.succ_off[i] + pos[msgs[e].first.second]] = msgs[e].second;
    }
  }
  return m;
}

std::vector<ResourceId> Application::resource_set() const {
  std::vector<bool> seen(catalog_->size(), false);
  for (const Task& t : tasks_) {
    seen[t.proc] = true;
    for (ResourceId r : t.resources) seen[r] = true;
  }
  std::vector<ResourceId> out;
  for (ResourceId r = 0; r < seen.size(); ++r) {
    if (seen[r]) out.push_back(r);
  }
  return out;
}

std::vector<TaskId> Application::tasks_using(ResourceId r) const {
  std::vector<TaskId> out;
  for (TaskId i = 0; i < tasks_.size(); ++i) {
    if (tasks_[i].uses(r)) out.push_back(i);
  }
  return out;
}

Time Application::total_demand(ResourceId r) const {
  Time sum = 0;
  for (const Task& t : tasks_) {
    if (t.uses(r)) sum += t.comp;
  }
  return sum;
}

TaskId Application::find_task(std::string_view name) const {
  for (TaskId i = 0; i < tasks_.size(); ++i) {
    if (tasks_[i].name == name) return i;
  }
  return kInvalidTask;
}

void Application::validate() const {
  // Delegates to the structural lint pass (src/lint/passes.hpp) so the
  // error wording and coverage cannot drift between the throwing and the
  // batched-diagnostics paths; validate() keeps its historical first-error
  // contract by throwing the first error-level finding.
  LintResult result;
  DiagnosticSink sink(result, LintOptions{.max_errors = 1});
  structural_lint_pass(LintContext{*this}, sink);
  for (const Diagnostic& d : result.diagnostics) {
    if (d.severity != Severity::kError) continue;
    throw ModelError(d.subject.empty() ? d.message : d.subject + ": " + d.message);
  }
}

}  // namespace rtlb
