#include "dag/export.h"

#include <array>
#include <map>

#include "util/hash.h"
#include "util/units.h"

namespace hepvine::dag {

namespace {

const char* category_color(const std::string& category) {
  static constexpr std::array<const char*, 6> kPalette = {
      "lightblue", "lightgreen", "salmon", "gold", "plum", "lightgray"};
  const auto h = util::hash_bytes(category);
  return kPalette[h % kPalette.size()];
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string to_dot(const TaskGraph& graph, const DotOptions& options) {
  std::string out = "digraph workflow {\n  rankdir=TB;\n  node [shape=box];\n";
  const std::size_t limit = std::min(options.max_tasks, graph.size());
  for (std::size_t i = 0; i < limit; ++i) {
    const Task& task = graph.task(static_cast<TaskId>(i));
    out += "  t" + std::to_string(task.id) + " [label=\"" +
           escape(task.spec.category) + " #" + std::to_string(task.id) +
           "\"";
    if (options.color_by_category) {
      out += ", style=filled, fillcolor=";
      out += category_color(task.spec.category);
    }
    out += "];\n";
    for (TaskId dep : task.spec.deps) {
      if (static_cast<std::size_t>(dep) < limit) {
        out += "  t" + std::to_string(dep) + " -> t" +
               std::to_string(task.id) + ";\n";
      }
    }
    if (options.show_input_files) {
      for (data::FileId f : task.spec.input_files) {
        out += "  f" + std::to_string(f) +
               " [shape=note, label=\"" +
               escape(graph.catalog().get(f).name) + "\"];\n";
        out += "  f" + std::to_string(f) + " -> t" +
               std::to_string(task.id) + ";\n";
      }
    }
  }
  if (limit < graph.size()) {
    out += "  truncated [shape=plaintext, label=\"... " +
           std::to_string(graph.size() - limit) + " more tasks\"];\n";
  }
  out += "}\n";
  return out;
}

std::string to_json_summary(const TaskGraph& graph) {
  std::map<std::string, std::size_t> counts = graph.category_counts();
  std::string out = "{\n";
  out += "  \"tasks\": " + std::to_string(graph.size()) + ",\n";
  out += "  \"roots\": " + std::to_string(graph.roots().size()) + ",\n";
  out += "  \"sinks\": " + std::to_string(graph.sinks().size()) + ",\n";
  out += "  \"files\": " + std::to_string(graph.catalog().size()) + ",\n";
  out += "  \"input_bytes\": " + std::to_string(graph.input_bytes()) + ",\n";
  out += "  \"intermediate_bytes\": " +
         std::to_string(graph.modeled_intermediate_bytes()) + ",\n";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", graph.critical_path_seconds());
  out += std::string("  \"critical_path_seconds\": ") + buf + ",\n";
  std::snprintf(buf, sizeof(buf), "%.3f", graph.total_cpu_seconds());
  out += std::string("  \"total_cpu_seconds\": ") + buf + ",\n";
  out += "  \"categories\": {";
  bool first = true;
  for (const auto& [name, count] : counts) {
    if (!first) out += ", ";
    first = false;
    out.append("\"").append(escape(name)).append("\": ");
    out.append(std::to_string(count));
  }
  out += "}\n}\n";
  return out;
}

}  // namespace hepvine::dag
