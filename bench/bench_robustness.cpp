// Robustness sweep (extension; the paper's robustness evidence is Fig. 7's
// WiFi contrast): control-plane PDR as relay nodes die mid-experiment.
// After warm-up, k random non-sink nodes are killed; the sink keeps sending
// control packets to the *surviving* nodes. Deterministic protocols lose
// whatever routed through the dead relays until their state heals; the
// anycast planes route around them.

#include <set>

#include "bench_common.hpp"

using namespace telea;
using namespace telea::bench;

namespace {

struct Outcome {
  unsigned sent = 0;
  unsigned delivered = 0;
};

Outcome run_with_failures(ControlProtocol proto, unsigned kills,
                          std::uint64_t seed, const Options& opt) {
  NetworkConfig cfg;
  cfg.topology = make_indoor_testbed(seed);
  cfg.seed = seed;
  cfg.protocol = proto;
  Network net(cfg);
  net.start();
  net.run_for(opt.warmup);

  // Kill k random non-sink nodes.
  Pcg32 rng(seed ^ 0xDEADULL, kills + 1);
  std::set<NodeId> dead;
  while (dead.size() < kills) {
    dead.insert(static_cast<NodeId>(
        1 + rng.uniform(static_cast<std::uint32_t>(net.size() - 1))));
  }
  for (NodeId d : dead) net.node(d).kill();

  Outcome out;
  std::set<std::uint32_t> delivered_seqs;
  std::uint32_t next_seq = 1;
  for (NodeId i = 1; i < net.size(); ++i) {
    if (dead.contains(i)) continue;
    if (auto* tele = net.node(i).tele()) {
      tele->on_control_delivered = [&delivered_seqs](
                                       const msg::ControlPacket& p, bool) {
        delivered_seqs.insert(p.seqno);
      };
    }
    if (auto* drip = net.node(i).drip()) {
      drip->on_delivered = [&delivered_seqs](const msg::DripMsg& m) {
        delivered_seqs.insert(m.version);
      };
    }
    if (auto* rpl = net.node(i).rpl()) {
      rpl->on_delivered = [&delivered_seqs](const msg::RplData& d) {
        delivered_seqs.insert(d.seqno);
      };
    }
  }

  Pcg32 dest_rng(seed ^ 0x5EL, 3);
  const SimTime end = net.sim().now() + opt.duration;
  while (net.sim().now() < end) {
    net.run_for(kMinute);
    if (net.sim().now() >= end) break;
    NodeId dest;
    do {
      dest = static_cast<NodeId>(
          1 + dest_rng.uniform(static_cast<std::uint32_t>(net.size() - 1)));
    } while (dead.contains(dest));

    ++out.sent;
    switch (proto) {
      case ControlProtocol::kTele:
      case ControlProtocol::kReTele: {
        auto* dest_tele = net.node(dest).tele();
        if (dest_tele != nullptr && dest_tele->addressing().has_code()) {
          net.sink().tele()->send_control(
              dest, dest_tele->addressing().code(), 1);
        }
        break;
      }
      case ControlProtocol::kDrip:
        net.sink().drip()->disseminate(dest, 1);
        break;
      case ControlProtocol::kRpl:
        net.sink().rpl()->send_downward(dest, 1, next_seq);
        break;
      case ControlProtocol::kOrpl:
        net.sink().orpl()->send_downward(dest, 1, next_seq);
        break;
    }
    ++next_seq;
  }
  net.run_for(2 * kMinute);
  out.delivered = static_cast<unsigned>(delivered_seqs.size());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse_options(argc, argv);
  if (!opt.full && opt.duration > 30 * kMinute) opt.duration = 30 * kMinute;

  std::printf("== Robustness: PDR with k relays killed after warm-up ==\n");
  const ControlProtocol protocols[] = {ControlProtocol::kReTele,
                                       ControlProtocol::kRpl,
                                       ControlProtocol::kDrip};
  TextTable table({"k killed", "Re-Tele", "RPL", "Drip"});
  for (unsigned k : {0u, 2u, 4u, 8u}) {
    std::vector<std::string> row{std::to_string(k)};
    for (ControlProtocol p : protocols) {
      const auto out = run_with_failures(p, k, opt.seed, opt);
      row.push_back(out.sent == 0
                        ? "-"
                        : TextTable::fmt_pct(
                              static_cast<double>(out.delivered) /
                                  static_cast<double>(out.sent),
                              1));
    }
    table.row(std::move(row));
  }
  emit_table(table, "robustness");
  std::printf("expected: the anycast planes degrade gracefully with k; "
              "deterministic RPL falls off fastest\n");
  return 0;
}
