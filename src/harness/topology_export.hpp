#pragma once

#include <string>

#include "harness/network.hpp"

namespace telea {

/// GraphViz DOT rendering of a network's current state: node positions
/// (as layout hints), the live CTP tree (solid edges), path codes as labels
/// and killed nodes grayed out. `dot -Kneato -n -Tpng` reproduces the
/// deployment geometry.
[[nodiscard]] std::string render_topology_dot(Network& net);

/// Writes the DOT rendering to `path`. Returns false on I/O failure.
[[nodiscard]] bool write_topology_dot(Network& net, const std::string& path);

}  // namespace telea
