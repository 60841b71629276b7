// Reproduces Table II: nodes' path-code length per hop count on the 40-node
// indoor testbed at CC2420 power level 2 (up to 6 hops) — paper Sec. IV-A2.
//
// Paper values for reference:
//   hop:      1     2     3      4      5      6
//   avg len:  4.23  7.06  9.41   11.28  13.83  15.8
//   min len:  3     4     5      7      8      12
//   max len:  5     9     18     16     17     20
// Shape to reproduce: ~2-3 bits per hop, max ~20 bits at 6 hops.

#include "bench_common.hpp"
#include "stats/summary.hpp"

using namespace telea;
using namespace telea::bench;

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);

  std::printf("== Table II: indoor-testbed path-code length per hop ==\n");

  GroupedStats len_by_hop;
  for (unsigned r = 0; r < opt.runs; ++r) {
    auto net = converge_code_study(make_indoor_testbed(opt.seed + r),
                                   opt.seed + r, opt);
    for (NodeId i = 1; i < net->size(); ++i) {
      const auto* tele = net->node(i).tele();
      if (tele == nullptr || !tele->addressing().has_code()) continue;
      const int hops = net->node(i).ctp().hops();
      if (hops <= 0 || hops >= 0xFF) continue;
      len_by_hop.add(hops,
                     static_cast<double>(tele->addressing().code().size()));
    }
  }

  TextTable table({"hop count", "nodes", "avg code len", "min", "max",
                   "paper avg"});
  const char* paper_avg[] = {"-", "4.23", "7.06", "9.41", "11.28", "13.83",
                             "15.8"};
  for (const auto& [hop, stats] : len_by_hop.groups()) {
    table.row({std::to_string(hop), std::to_string(stats.count()),
               TextTable::fmt(stats.mean(), 2), TextTable::fmt(stats.min(), 0),
               TextTable::fmt(stats.max(), 0),
               hop >= 1 && hop <= 6 ? paper_avg[hop] : "-"});
  }
  emit_table(table, "table2_indoor_codelen");
  return 0;
}
