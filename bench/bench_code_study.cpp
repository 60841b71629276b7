// Reproduces the paper's code study (Sec. IV-A) on the 225-node Tight-grid
// and Sparse-linear fields: Figs. 6(a)-(d) all read the same two converged
// networks, as in the paper.
//
// Paper shapes:
// - Fig. 6(a) (path-code length vs hop count): code length grows roughly
//   linearly with hop count; ~40 bits suffice for the Tight-grid; the
//   Sparse-linear field needs longer codes at equal hop count (bit space
//   wasted per hop on potential hidden children in a sparser tree).
// - Fig. 6(b) (children per hop): in the tight network some nodes solicit
//   many children (enlarging the per-hop bit space but shrinking total
//   depth); the sparse network spreads children thinly across many hops.
// - Fig. 6(c) (convergence rate, the CDF of the time between a node's
//   routing-found event and its first path code in routing-beacon rounds of
//   512 ms): no node exceeds ~20 beacon-times; most converge in <10. (The
//   10-round stability window of Algorithm 1 dominates the constant.)
// - Fig. 6(d) (downward, i.e. reverse-path / code-tree, hop count vs the CTP
//   routing hop count): the reverse path closely tracks the CTP path; the
//   ratio of average reverse hops to average CTP hops is ~1.08 (the code
//   tree lags the live routing tree slightly, it never needs loop-avoidance
//   updates).

#include "bench_common.hpp"
#include "stats/summary.hpp"

using namespace telea;
using namespace telea::bench;

namespace {

void fig6a_codelen(const char* name, Network& net) {
  GroupedStats len_by_hop;
  std::size_t max_len = 0;
  std::size_t coded = 0;
  for (NodeId i = 1; i < net.size(); ++i) {
    const auto* tele = net.node(i).tele();
    if (tele == nullptr || !tele->addressing().has_code()) continue;
    const int hops = net.node(i).ctp().hops();
    if (hops <= 0 || hops >= 0xFF) continue;
    ++coded;
    const std::size_t len = tele->addressing().code().size();
    len_by_hop.add(hops, static_cast<double>(len));
    max_len = std::max(max_len, len);
  }
  std::printf("\n%s: %zu/%zu nodes coded, max code length %zu bits\n", name,
              coded, net.size() - 1, max_len);
  TextTable table({"hop count", "nodes", "avg code len (bits)", "min", "max"});
  for (const auto& [hop, stats] : len_by_hop.groups()) {
    table.row({std::to_string(hop), std::to_string(stats.count()),
               TextTable::fmt(stats.mean(), 2), TextTable::fmt(stats.min(), 0),
               TextTable::fmt(stats.max(), 0)});
  }
  table.print();
}

void fig6b_children(const char* name, Network& net) {
  GroupedStats children_by_hop;
  SummaryStats overall;
  for (NodeId i = 0; i < net.size(); ++i) {
    const auto* tele = net.node(i).tele();
    if (tele == nullptr) continue;
    const int hops = net.node(i).ctp().hops();
    if (hops < 0 || hops >= 0xFF) continue;
    const auto n = static_cast<double>(tele->addressing().children().size());
    children_by_hop.add(hops, n);
    if (n > 0) overall.add(n);
  }
  std::printf("\n%s\n", name);
  TextTable table({"hop count", "nodes", "avg #children", "max #children"});
  for (const auto& [hop, stats] : children_by_hop.groups()) {
    table.row({std::to_string(hop), std::to_string(stats.count()),
               TextTable::fmt(stats.mean(), 2),
               TextTable::fmt(stats.max(), 0)});
  }
  table.print();
  std::printf("parents only: mean %.2f children, max %.0f\n", overall.mean(),
              overall.max());
}

void fig6c_convergence(const char* name, Network& net) {
  Cdf beacons;
  std::size_t converged = 0, total = 0;
  for (NodeId i = 1; i < net.size(); ++i) {
    const auto* tele = net.node(i).tele();
    if (tele == nullptr) continue;
    ++total;
    const auto& a = tele->addressing();
    if (!a.triggered_at().has_value() || !a.code_assigned_at().has_value()) {
      continue;
    }
    ++converged;
    const double rounds =
        static_cast<double>(*a.code_assigned_at() - *a.triggered_at()) /
        static_cast<double>(kWakeInterval);
    beacons.add(rounds);
  }
  // Per-level cascade latency: how long after its *allocator* obtained a
  // code this node's own code arrived. This isolates the protocol's own
  // per-hop cost from network-wide tree formation (see EXPERIMENTS.md on
  // the measuring-point difference vs the paper).
  Cdf per_level;
  for (NodeId i = 1; i < net.size(); ++i) {
    const auto* tele = net.node(i).tele();
    if (tele == nullptr) continue;
    const auto& a = tele->addressing();
    const NodeId p = a.code_parent();
    if (!a.code_assigned_at().has_value() || p == kInvalidNode) continue;
    const auto* ptele = net.node(p).tele();
    if (ptele == nullptr ||
        !ptele->addressing().code_assigned_at().has_value()) {
      continue;
    }
    const SimTime parent_at = *ptele->addressing().code_assigned_at();
    const SimTime mine_at = *a.code_assigned_at();
    if (mine_at >= parent_at) {
      per_level.add(static_cast<double>(mine_at - parent_at) /
                    static_cast<double>(kWakeInterval));
    }
  }

  std::printf("\n%s: %zu/%zu nodes converged\n", name, converged, total);
  TextTable table({"percentile", "since own routing-found (rounds)",
                   "since allocator's code (rounds)"});
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    table.row({TextTable::fmt_pct(q, 0),
               TextTable::fmt(beacons.quantile(q), 1),
               TextTable::fmt(per_level.quantile(q), 1)});
  }
  table.print();
  std::printf("fraction within 10 beacons: %s, within 20: %s "
              "(per-level: %s / %s)\n",
              TextTable::fmt_pct(beacons.at(10.0), 1).c_str(),
              TextTable::fmt_pct(beacons.at(20.0), 1).c_str(),
              TextTable::fmt_pct(per_level.at(10.0), 1).c_str(),
              TextTable::fmt_pct(per_level.at(20.0), 1).c_str());
}

void fig6d_hopcount(const char* name, Network& net) {
  GroupedStats down_by_ctp;
  SummaryStats advertised_hops, live_hops, down_hops;
  for (NodeId i = 1; i < net.size(); ++i) {
    const int ctp = net.node(i).ctp().hops();       // beacon-carried field
    const int live = net.ctp_tree_depth(i);         // live parent chain
    const int down = net.code_tree_depth(i);        // allocator chain
    if (ctp <= 0 || ctp >= 0xFF || down <= 0 || live <= 0) continue;
    down_by_ctp.add(ctp, down);
    advertised_hops.add(ctp);
    live_hops.add(live);
    down_hops.add(down);
  }
  std::printf("\n%s (%zu nodes with all measures)\n", name,
              advertised_hops.count());
  TextTable table(
      {"ctp hops", "nodes", "avg downward hops", "min", "max"});
  for (const auto& [hop, stats] : down_by_ctp.groups()) {
    table.row({std::to_string(hop), std::to_string(stats.count()),
               TextTable::fmt(stats.mean(), 2), TextTable::fmt(stats.min(), 0),
               TextTable::fmt(stats.max(), 0)});
  }
  emit_table(table, std::string("fig6d_") + name);
  // Two honest denominators: the beacon-carried hops field can lag the live
  // tree (Trickle backs beacons off), the live parent chain cannot. The
  // paper's 1.08 sits between the two views.
  const double vs_advertised = advertised_hops.mean() > 0
                                   ? down_hops.mean() / advertised_hops.mean()
                                   : 0.0;
  const double vs_live =
      live_hops.mean() > 0 ? down_hops.mean() / live_hops.mean() : 0.0;
  std::printf("avg downward hops / avg advertised CTP hops = %.3f, "
              "/ avg live-chain hops = %.3f (paper: 1.08)\n",
              vs_advertised, vs_live);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  auto tight = converge_code_study(make_tight_grid(opt.seed), opt.seed, opt);
  auto sparse =
      converge_code_study(make_sparse_linear(opt.seed), opt.seed, opt);

  std::printf("== Fig. 6(a): path code length vs hop count ==\n");
  std::printf("paper: near-linear growth; Tight-grid fits in ~40 bits;\n");
  std::printf("       Sparse-linear needs more bits at equal hop count\n");
  fig6a_codelen("Tight-grid (15x15, 200mx200m, high gain)", *tight);
  fig6a_codelen("Sparse-linear (5x45, 60mx600m, low gain)", *sparse);

  std::printf("\n== Fig. 6(b): number of children per hop ==\n");
  fig6b_children("Tight-grid", *tight);
  fig6b_children("Sparse-linear", *sparse);

  std::printf("\n== Fig. 6(c): path-code convergence rate ==\n");
  std::printf("paper: all nodes < ~20 beacon rounds, most < 10\n");
  fig6c_convergence("Tight-grid", *tight);
  fig6c_convergence("Sparse-linear", *sparse);

  std::printf("\n== Fig. 6(d): downward hop count vs CTP hop count ==\n");
  fig6d_hopcount("Tight-grid", *tight);
  fig6d_hopcount("Sparse-linear", *sparse);
  return 0;
}
