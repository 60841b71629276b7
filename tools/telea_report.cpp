// telea_report — offline span analyzer. Consumes a run's trace JSONL (as
// written by telea_sim trace=FILE or Tracer::write_jsonl) and emits:
//   (a) a per-command critical-path table naming the dominant latency
//       segment (stdout),
//   (b) aggregate latency/energy percentile tables as
//       <out>/report_<name>.json,
//   (c) a Chrome trace-event / Perfetto-loadable <out>/trace.perfetto.json
//       (tracks = nodes and commands, slices = spans).
//
//   $ ./telea_report trace=run.trace.jsonl out=bench_results name=demo
//
// Options (key=value):
//   trace=FILE        trace JSONL to analyze (required)
//   out=DIR           output directory (default bench_results)
//   name=NAME         report name -> report_<NAME>.json (default "run")
//   tx_ma= rx_ma= volts= airtime_s=   energy-model overrides
//
// Exit codes: 0 ok; 2 usage/input error; 3 span reconciliation failure
// (segment sums disagree with end-to-end latency — a mangled trace).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "stats/spans.hpp"
#include "stats/trace.hpp"
#include "util/config.hpp"
#include "util/text_file.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: telea_report trace=FILE [out=DIR] [name=NAME]\n"
               "                    [tx_ma=N] [rx_ma=N] [volts=N] "
               "[airtime_s=N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const telea::Config cfg = telea::Config::from_args(argc - 1, argv + 1);
  if (!cfg.positional().empty()) {
    std::fprintf(stderr, "telea_report: unexpected argument '%s'\n",
                 cfg.positional().front().c_str());
    return usage();
  }
  const std::string trace_path = cfg.get_string("trace", "");
  const std::string out_dir = cfg.get_string("out", "bench_results");
  const std::string name = cfg.get_string("name", "run");
  telea::SpanEnergyConfig energy;
  energy.tx_current_ma = cfg.get_double("tx_ma", energy.tx_current_ma);
  energy.rx_current_ma = cfg.get_double("rx_ma", energy.rx_current_ma);
  energy.supply_volts = cfg.get_double("volts", energy.supply_volts);
  energy.copy_airtime_s = cfg.get_double("airtime_s", energy.copy_airtime_s);
  const auto unknown = cfg.unused_keys();
  if (!unknown.empty()) {
    for (const auto& k : unknown) {
      std::fprintf(stderr, "telea_report: unknown option '%s'\n", k.c_str());
    }
    return usage();
  }
  if (trace_path.empty()) return usage();

  const auto records = telea::load_trace_jsonl(trace_path);
  if (!records.has_value()) {
    std::fprintf(stderr, "telea_report: cannot read %s\n", trace_path.c_str());
    return 2;
  }
  const auto spans = telea::build_command_spans(*records);
  if (spans.empty()) {
    std::fprintf(stderr, "telea_report: no control commands in %s\n",
                 trace_path.c_str());
    return 2;
  }

  telea::render_critical_path_table(spans, energy).print();

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::string report_path = out_dir + "/report_" + name + ".json";
  const std::string perfetto_path = out_dir + "/trace.perfetto.json";
  if (!telea::write_text_file(
          report_path, telea::render_report_json(spans, energy, name)) ||
      !telea::write_text_file(perfetto_path,
                              telea::render_perfetto_json(spans))) {
    std::fprintf(stderr, "telea_report: cannot write outputs under %s\n",
                 out_dir.c_str());
    return 2;
  }
  std::printf("telea_report: wrote %s and %s (%zu commands)\n",
              report_path.c_str(), perfetto_path.c_str(), spans.size());

  const std::size_t failures = telea::count_reconcile_failures(spans);
  if (failures > 0) {
    std::fprintf(stderr,
                 "telea_report: %zu delivered command(s) failed segment-sum "
                 "reconciliation\n",
                 failures);
    return 3;
  }
  return 0;
}
