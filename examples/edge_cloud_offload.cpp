// Edge-cloud offload: the paper's conclusion proposes "coupling edge
// inferencing with cloud endpoints". This example serves a request stream on
// the simulated Orin AGX with overflow routed to a priced cloud endpoint,
// and sweeps the routing policies: pure edge (cheapest, privacy-preserving,
// slow under load), pure cloud (fast, costs money, every prompt leaves the
// device), and the hybrid policies in between.
//
// Run: ./edge_cloud_offload [--model=llama3] [--rps=4] [--requests=128]
//                           [--slo-s=30] [--queue-threshold=32]
#include <cstdio>

#include "core/cli.h"
#include "core/table.h"
#include "serving/engine.h"

using namespace orinsim;
using namespace orinsim::serving;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string model = args.get("model", "llama3");
  const double rps = args.get_double("rps", 4.0);
  const auto requests = static_cast<std::size_t>(args.get_int("requests", 128));

  std::printf("Edge-cloud offload: %s FP16 on Orin AGX + hosted endpoint, %.1f req/s\n\n",
              model.c_str(), rps);

  SimSession session(model, DType::kF16, workload::Dataset::kWikiText2);
  const workload::SeqConfig seq = workload::seq_config_default();
  workload::ArrivalConfig arrivals;
  arrivals.rate_rps = rps;
  arrivals.total_requests = requests;
  const std::vector<double> arrival_times = arrivals.generate();
  StaticBatchPolicy::Offload offload;
  offload.queue_threshold =
      static_cast<std::size_t>(args.get_int("queue-threshold", 32));
  offload.latency_slo_s = args.get_double("slo-s", 30.0);

  Table table({"Policy", "Edge reqs", "Cloud reqs", "mean latency (s)", "p95 (s)",
               "Edge energy (J)", "Cloud cost ($)", "Prompts leaving device"});
  for (OffloadPolicy policy :
       {OffloadPolicy::kEdgeOnly, OffloadPolicy::kCloudOnly, OffloadPolicy::kQueueDepth,
        OffloadPolicy::kLatencyThreshold}) {
    offload.policy = policy;
    const EngineResult r = StaticBatchPolicy(session, 32, seq, offload)
                               .run(requests_from_arrivals(arrival_times, seq));
    const std::size_t cloud = r.timeline.count(trace::Phase::kOffload);
    table.new_row()
        .add_cell(offload_policy_name(policy))
        .add_cell(std::to_string(r.latencies_s.size() - cloud))
        .add_cell(std::to_string(cloud))
        .add_number(r.mean_latency_s(), 2)
        .add_number(r.p95_latency_s(), 2)
        .add_number(r.energy_j, 0)
        .add_number(static_cast<double>(cloud) *
                        offload.cloud.request_cost_usd(seq.input, seq.output),
                    4)
        .add_cell(cloud == 0 ? "none" : "yes");
  }
  std::fputs(table.to_markdown().c_str(), stdout);

  std::printf("\nThe trade the paper motivates (section 1): keeping inference on the\n");
  std::printf("edge preserves privacy and avoids per-token fees; the hybrid policies\n");
  std::printf("bound tail latency by spilling only the overflow to the cloud.\n");
  return 0;
}
