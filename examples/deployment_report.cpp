// Deployment report: the capstone example — everything the library knows
// about putting one model into production on a Jetson, in one page.
// Composes the device catalog (where does it fit), the Pareto optimizer
// (how to configure it), the thermal model (can the enclosure sustain it),
// and the DLA/offload estimates (what to do with the leftover silicon).
//
// Run: ./deployment_report [--model=llama3] [--fanless]
#include <cstdio>

#include "core/cli.h"
#include "core/table.h"
#include "core/units.h"
#include "harness/pareto.h"
#include "sim/device_catalog.h"
#include "sim/dla.h"
#include "sim/thermal.h"

using namespace orinsim;
using namespace orinsim::sim;
using namespace orinsim::harness;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string model = args.get("model", "llama3");
  const bool fanless = args.get_bool("fanless", false);
  const ModelSpec& spec = model_by_key(model);

  std::printf("================ DEPLOYMENT REPORT: %s ================\n\n",
              spec.display.c_str());

  // 1. Where does it fit?
  std::printf("[1] Device fit (largest precision whose weights + default workload fit)\n");
  for (const auto& dev : device_catalog()) {
    const MemoryModel mm(dev.spec);
    std::string fit = "does not fit";
    for (DType dt : kAllDTypes) {
      if (mm.workload_fits(spec, dt, 32, 32, 64)) {
        const auto mem = mm.workload_memory(spec, dt, 32, 32, 64);
        fit = dtype_name(dt) + " (" + format_double(mem.total_gb(), 1) + " GB of " +
              format_double(mm.usable_gb(), 1) + " usable)";
        break;
      }
    }
    std::printf("    %-32s %s\n", dev.spec.name.c_str(), fit.c_str());
  }

  // 2. How to configure it on the paper's device.
  std::printf("\n[2] Recommended configurations (Orin AGX 64GB, sl=96)\n");
  ParetoOptions options;
  options.model_key = model;
  const auto points = enumerate_configs(options);
  if (points.empty()) {
    std::printf("    model does not run on this device at any precision\n");
    return 1;
  }
  Constraints none;
  const auto fastest = best_config(points, none, Objective::kLatencyPerToken);
  const auto frugal = best_config(points, none, Objective::kEnergyPerToken);
  Constraints cap30;
  cap30.max_power_w = 30.0;
  const auto capped = best_config(points, cap30, Objective::kThroughput);
  std::printf("    fastest        : %-28s %.2f ms/token\n", fastest->label().c_str(),
              fastest->latency_per_token_ms);
  std::printf("    lowest energy  : %-28s %.3f J/token\n", frugal->label().c_str(),
              frugal->energy_per_token_j);
  if (capped) {
    std::printf("    under 30 W cap : %-28s %.1f tok/s\n", capped->label().c_str(),
                capped->throughput_tps);
  }

  // 3. Thermal sustainability of the fastest configuration.
  std::printf("\n[3] Thermal check (%s, long-sequence workload sl=1024)\n",
              fanless ? "fanless enclosure" : "devkit fan");
  {
    SimRequest rq;
    rq.model_key = model;
    rq.dtype = spec.default_dtype;
    rq.in_tokens = 256;
    rq.out_tokens = 768;
    const ThermalParams params =
        fanless ? ThermalParams::fanless_enclosure() : ThermalParams::devkit_fan();
    const ThermalRunResult t = simulate_with_thermals(rq, params);
    std::printf("    peak junction %.1f C, throttled %.0f%% of decode, latency x%.2f\n",
                t.peak_temp_c, t.throttled_fraction * 100.0,
                t.latency_s / t.ideal_latency_s);
    if (t.throttled_fraction > 0.1) {
      std::printf("    -> consider PM-A or better cooling for sustained load\n");
    }
  }

  // 4. Leftover silicon: a DLA-hosted assistant.
  std::printf("\n[4] DLA co-execution (Phi-2 INT8 on one NVDLA core)\n");
  {
    const DlaCoExecution d = estimate_dla_coexecution(spec, spec.default_dtype,
                                                      model_by_key("phi2"));
    std::printf("    side-channel assistant: %.1f tok/s for %.1f W extra,\n", d.dla_tps,
                d.added_power_w);
    std::printf("    costing the main model %.1f%% throughput (DRAM contention)\n",
                d.gpu_degradation * 100.0);
  }

  std::printf("\nAll numbers from the calibrated Orin AGX simulator; see\n");
  std::printf("EXPERIMENTS.md for its validation against the paper.\n");
  return 0;
}
