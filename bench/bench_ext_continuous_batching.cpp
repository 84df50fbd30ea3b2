// Extension study: static batching (the paper's serving regime) vs
// continuous token-level batching on the same simulated Orin AGX, same
// arrival process, same workload. Quantifies the paper's "dedicated
// inference engines" future-work direction.
#include <cstdio>

#include "core/cli.h"
#include "core/error.h"
#include "core/table.h"
#include "serving/engine.h"
#include "trace/export.h"

using namespace orinsim;
using namespace orinsim::serving;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string model = args.get("model", "llama3");
  const auto requests = static_cast<std::size_t>(args.get_int("requests", 96));
  const bool csv = args.get_bool("csv", false);
  // --trace-out=BASE writes BASE.jsonl and BASE.trace.json for the last
  // continuous-batching run (the full StepEvent stream the table is
  // derived from).
  const std::string trace_out = args.get("trace-out", "");

  std::printf("== Extension: static vs continuous batching (%s, FP16, sl=96) ==\n\n",
              model.c_str());
  Table table({"Arrival (req/s)", "Scheduler", "mean TTLT (s)", "p95 TTLT (s)",
               "Throughput (tok/s)", "Energy/request (J)", "Mean occupancy"});

  SimSession session(model, DType::kF16, workload::Dataset::kWikiText2);
  const workload::SeqConfig seq = workload::seq_config_default();
  SimTokenBackend::Config cc;
  cc.model_key = model;
  cc.max_concurrency = 32;
  cc.seq = seq;
  for (double rps : {0.5, 2.0, 5.0, 10.0}) {
    workload::ArrivalConfig arrivals;
    arrivals.rate_rps = rps;
    arrivals.total_requests = requests;
    const std::vector<double> arrival_times = arrivals.generate();
    // Static batching (the paper's regime), best-of max-batch {8, 32}.
    for (std::size_t max_batch : {std::size_t{8}, std::size_t{32}}) {
      const EngineResult r = StaticBatchPolicy(session, max_batch, seq)
                                 .run(requests_from_arrivals(arrival_times, seq));
      table.new_row()
          .add_number(rps, 1)
          .add_cell("static bs<=" + std::to_string(max_batch))
          .add_number(r.mean_latency_s(), 2)
          .add_number(r.p95_latency_s(), 2)
          .add_number(r.throughput_tps(), 1)
          .add_number(r.energy_j / static_cast<double>(requests), 0)
          .add_number(r.timeline.mean_batch(trace::Phase::kDecode), 1);
    }
    // Continuous batching at the same concurrency cap. Memory gate: the
    // steady state is max_concurrency sequences at full length.
    ORINSIM_CHECK(sim::MemoryModel().workload_fits(sim::model_by_key(model), cc.dtype,
                                                   cc.max_concurrency, seq.input,
                                                   seq.output),
                  "continuous: concurrency does not fit in device memory");
    SimTokenBackend backend(cc);
    const EngineResult r =
        ContinuousPolicy(backend).run(requests_from_arrivals(arrival_times, seq));
    table.new_row()
        .add_number(rps, 1)
        .add_cell("continuous c<=32")
        .add_number(r.mean_latency_s(), 2)
        .add_number(r.p95_latency_s(), 2)
        .add_number(r.throughput_tps(), 1)
        .add_number(r.energy_j / static_cast<double>(requests), 0)
        .add_number(r.mean_active, 1);
    if (!trace_out.empty()) {
      trace::write_jsonl(r.timeline, trace_out + ".jsonl");
      trace::write_chrome_trace(r.timeline, trace_out + ".trace.json",
                                "continuous:" + model);
    }
  }
  std::fputs((csv ? table.to_csv() : table.to_markdown()).c_str(), stdout);
  if (!trace_out.empty()) {
    std::printf("\nwrote %s.jsonl and %s.trace.json\n", trace_out.c_str(),
                trace_out.c_str());
  }

  std::printf("\nReading: under load, continuous batching removes the paper's core\n");
  std::printf("batch-size dilemma (Fig 1) — requests no longer wait for a batch to\n");
  std::printf("form or for its slowest member — at the same device throughput.\n");
  return 0;
}
