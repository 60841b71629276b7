#include "harness/topology_export.hpp"

#include <cstdio>

#include "util/logging.hpp"
#include "util/text_file.hpp"

namespace telea {

std::string render_topology_dot(Network& net) {
  std::string out = "digraph wsn {\n"
                    "  rankdir=BT;\n"
                    "  node [shape=circle, fontsize=9];\n";
  char buf[256];
  const auto& positions = net.config().topology.positions;
  for (NodeId i = 0; i < net.size(); ++i) {
    std::string label = std::to_string(i);
    if (const auto* tele = net.node(i).tele();
        tele != nullptr && tele->addressing().has_code()) {
      label += "\\n" + tele->addressing().code().to_string();
    }
    const char* style = net.node(i).killed()
                            ? "style=filled, fillcolor=gray"
                            : (i == kSinkNode ? "style=filled, fillcolor=gold"
                                              : "style=solid");
    std::snprintf(buf, sizeof(buf),
                  "  n%u [label=\"%s\", pos=\"%.1f,%.1f!\", %s];\n", i,
                  label.c_str(), positions[i].x, positions[i].y, style);
    out += buf;
  }
  for (NodeId i = 1; i < net.size(); ++i) {
    const NodeId parent = net.node(i).ctp().parent();
    if (parent == kInvalidNode) continue;
    std::snprintf(buf, sizeof(buf), "  n%u -> n%u;\n", i, parent);
    out += buf;
  }
  out += "}\n";
  return out;
}

bool write_topology_dot(Network& net, const std::string& path) {
  const std::string dot = render_topology_dot(net);
  if (!write_text_file(path, dot)) {
    TELEA_WARN("harness.topo") << "cannot write " << path;
    return false;
  }
  TELEA_DEBUG("harness.topo") << "wrote " << path << " (" << dot.size()
                              << " bytes)";
  return true;
}

}  // namespace telea
