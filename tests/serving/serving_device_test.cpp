// ServingDevice: the engine+backend+governor bundle the fleet router steps.
// Pins of the extraction refactor: a catalog-built device must reproduce the
// hand-assembled SimTokenBackend + ContinuousPolicy schedule exactly, and
// heterogeneous catalog entries must yield distinct, roofline-consistent
// step costs from the same request stream.
#include "serving/serving_device.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/error.h"
#include "serving/engine.h"
#include "sim/device_catalog.h"
#include "workload/arrivals.h"

namespace orinsim::serving {
namespace {

std::vector<Request> poisson_stream(std::size_t count, double rps,
                                    const workload::SeqConfig& seq) {
  workload::ArrivalConfig arrivals;
  arrivals.kind = workload::ArrivalKind::kPoisson;
  arrivals.rate_rps = rps;
  arrivals.total_requests = count;
  return requests_from_arrivals(arrivals.generate(), seq);
}

TEST(ServingDeviceTest, ReproducesHandAssembledEngineExactly) {
  // The refactor pin: wrapping backend+engine+governor in ServingDevice must
  // not change a single scheduling decision or charged cost on the paper's
  // reference device.
  const workload::SeqConfig seq = workload::seq_config_default();

  ServingDevice::SimConfig dc;
  dc.max_concurrency = 4;
  dc.governor.power_cap_w = 40.0;
  ServingDevice device(dc);
  const EngineResult a = device.run(poisson_stream(24, 4.0, seq));

  SimTokenBackend::Config bc;
  bc.model_key = "llama3";
  bc.max_concurrency = 4;
  bc.seq = seq;
  SimTokenBackend backend(bc);
  GovernorConfig gov;
  gov.power_cap_w = 40.0;
  const EngineResult b = ContinuousPolicy(backend, gov).run(poisson_stream(24, 4.0, seq));

  EXPECT_EQ(a.latencies_s, b.latencies_s);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.governor_step_downs, b.governor_step_downs);
  EXPECT_EQ(a.decode_steps, b.decode_steps);
}

TEST(ServingDeviceTest, HeterogeneousCatalogEntriesYieldDistinctStepCosts) {
  // Same model, same stream, different silicon: the Nano's decode steps must
  // be strictly slower than the reference Orin's (bandwidth-bound roofline),
  // stretching its makespan.
  const workload::SeqConfig seq = workload::seq_config_default();
  auto mean_decode_s = [&](const char* key) {
    ServingDevice::SimConfig dc;
    dc.device_key = key;
    dc.model_key = "phi2";
    dc.dtype = DType::kI8;  // fits every catalog device
    dc.max_concurrency = 2;
    ServingDevice device(dc);
    const EngineResult r = device.run(poisson_stream(8, 2.0, seq));
    double decode_s = 0.0;
    std::size_t steps = 0;
    for (const trace::StepEvent& ev : r.timeline.events()) {
      if (ev.phase == trace::Phase::kDecode) {
        decode_s += ev.duration_s;
        ++steps;
      }
    }
    EXPECT_GT(steps, 0u) << key;
    return decode_s / static_cast<double>(steps);
  };
  const double orin = mean_decode_s("orin-agx-64");
  const double xavier = mean_decode_s("xavier-agx-32");
  const double nano = mean_decode_s("orin-nano-8");
  EXPECT_LT(orin, xavier);
  EXPECT_LT(xavier, nano);
}

TEST(ServingDeviceTest, GovernorLadderIsScaledToTheDevice) {
  // A throttled Nano must walk its *own* clock ladder, not Orin-absolute
  // frequencies it cannot reach.
  ServingDevice::SimConfig dc;
  dc.device_key = "orin-nano-8";
  dc.model_key = "phi2";
  dc.dtype = DType::kI8;
  dc.governor.power_cap_w = 5.0;  // low enough to force step-downs
  ServingDevice device(dc);
  const sim::DeviceSpec& nano = sim::device_by_key("orin-nano-8").spec;

  const std::vector<sim::PowerMode>& ladder = device.governor().ladder;
  ASSERT_FALSE(ladder.empty());
  EXPECT_DOUBLE_EQ(ladder.front().gpu_freq_mhz, nano.gpu_max_freq_mhz);
  for (const sim::PowerMode& pm : ladder) {
    EXPECT_LE(pm.gpu_freq_mhz, nano.gpu_max_freq_mhz);
  }

  const workload::SeqConfig seq = workload::seq_config_default();
  const EngineResult r = device.run(poisson_stream(8, 4.0, seq));
  EXPECT_GT(r.governor_step_downs, 0u);
}

TEST(ServingDeviceTest, ConfiguredModeHeadsTheAutoLadder) {
  // Starting at mode "A" must drop the MaxN rung: the descent begins where
  // the device is configured, per the governor's ladder[0] contract.
  ServingDevice::SimConfig dc;
  dc.power_mode = "A";
  dc.governor.power_cap_w = 30.0;
  ServingDevice device(dc);
  const std::vector<sim::PowerMode>& ladder = device.governor().ladder;
  ASSERT_FALSE(ladder.empty());
  EXPECT_EQ(ladder.front().name, "A");
  for (const sim::PowerMode& pm : ladder) EXPECT_NE(pm.name, "MaxN");
}

TEST(ServingDeviceTest, UnknownDeviceKeyRejected) {
  ServingDevice::SimConfig dc;
  dc.device_key = "h100-sxm";
  EXPECT_THROW(ServingDevice device(dc), ContractViolation);
}

}  // namespace
}  // namespace orinsim::serving
