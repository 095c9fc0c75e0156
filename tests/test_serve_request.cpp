// Property tests for the canonical request keys of the plan-serving
// subsystem: exact power-of-two rescales of a profile must share one cache
// key (and one plan, after denormalization), anything else must not.
#include "serve/request.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "madpipe/planner.hpp"
#include "models/zoo.hpp"
#include "serve/protocol.hpp"

namespace madpipe::serve {
namespace {

/// A deliberately heterogeneous chain so rescale bugs can't hide behind
/// uniformity.
Chain ragged_chain(double time_factor = 1.0, double byte_factor = 1.0,
                   const std::string& name = "ragged") {
  std::vector<Layer> layers;
  for (int l = 1; l <= 8; ++l) {
    Layer layer;
    layer.name = name + "_l" + std::to_string(l);
    layer.forward_time = ms(1.0 + 0.37 * l) * time_factor;
    layer.backward_time = ms(2.0 + 0.61 * l) * time_factor;
    layer.weight_bytes = (3.0 + l) * MB * byte_factor;
    layer.output_bytes = (40.0 + 7.0 * l) * MB * byte_factor;
    layer.scratch_bytes = MB * byte_factor;
    layers.push_back(layer);
  }
  return Chain(name, 25 * MB * byte_factor, std::move(layers));
}

PlanRequest make_request(double time_factor = 1.0, double byte_factor = 1.0,
                         const std::string& name = "ragged") {
  return PlanRequest{"test",
                     ragged_chain(time_factor, byte_factor, name),
                     Platform{4, 2 * GB * byte_factor,
                              12 * GB * byte_factor / time_factor},
                     MadPipeOptions{},
                     0.0};
}

TEST(ServeRequest, CanonicalizationIsDeterministic) {
  const CanonicalRequest a = canonicalize(make_request());
  const CanonicalRequest b = canonicalize(make_request());
  EXPECT_TRUE(a.normalized);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.key, b.key);
}

TEST(ServeRequest, Pow2TimeRescaleSharesKey) {
  const CanonicalRequest base = canonicalize(make_request());
  for (const double factor : {2.0, 4.0, 0.5, 1024.0, 1.0 / 4096.0}) {
    const CanonicalRequest scaled = canonicalize(make_request(factor, 1.0));
    EXPECT_TRUE(scaled.normalized) << factor;
    EXPECT_EQ(scaled.fingerprint, base.fingerprint) << factor;
    EXPECT_EQ(scaled.key, base.key) << factor;
    EXPECT_EQ(scaled.time_unit, base.time_unit * factor) << factor;
  }
}

TEST(ServeRequest, Pow2ByteRescaleSharesKey) {
  const CanonicalRequest base = canonicalize(make_request());
  for (const double factor : {2.0, 8.0, 0.25}) {
    const CanonicalRequest scaled = canonicalize(make_request(1.0, factor));
    EXPECT_TRUE(scaled.normalized) << factor;
    EXPECT_EQ(scaled.fingerprint, base.fingerprint) << factor;
    EXPECT_EQ(scaled.key, base.key) << factor;
    EXPECT_EQ(scaled.byte_unit, base.byte_unit * factor) << factor;
  }
}

TEST(ServeRequest, CombinedPow2RescaleSharesKey) {
  const CanonicalRequest base = canonicalize(make_request());
  const CanonicalRequest scaled = canonicalize(make_request(8.0, 0.5));
  EXPECT_TRUE(scaled.normalized);
  EXPECT_EQ(scaled.fingerprint, base.fingerprint);
  EXPECT_EQ(scaled.key, base.key);
}

TEST(ServeRequest, LayerNamesDoNotAffectKey) {
  const CanonicalRequest a = canonicalize(make_request(1.0, 1.0, "alpha"));
  const CanonicalRequest b = canonicalize(make_request(1.0, 1.0, "beta"));
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.key, b.key);
}

TEST(ServeRequest, NonUniformPerturbationChangesKey) {
  const CanonicalRequest base = canonicalize(make_request());
  PlanRequest perturbed = make_request();
  // Rebuild the chain with one layer 1% slower: not a uniform rescale.
  std::vector<Layer> layers;
  for (int l = 1; l <= perturbed.chain.length(); ++l) {
    Layer layer = perturbed.chain.layer(l);
    if (l == 3) layer.forward_time *= 1.01;
    layers.push_back(layer);
  }
  perturbed.chain =
      Chain("ragged", perturbed.chain.activation(0), std::move(layers));
  const CanonicalRequest other = canonicalize(perturbed);
  EXPECT_NE(other.fingerprint, base.fingerprint);
  EXPECT_NE(other.key, base.key);
}

TEST(ServeRequest, PlatformShapeChangesKey) {
  const CanonicalRequest base = canonicalize(make_request());
  PlanRequest more_gpus = make_request();
  more_gpus.platform.processors = 8;
  EXPECT_NE(canonicalize(more_gpus).key, base.key);
  PlanRequest more_memory = make_request();
  more_memory.platform.memory_per_processor *= 1.5;  // not a pow2 co-rescale
  EXPECT_NE(canonicalize(more_memory).key, base.key);
}

TEST(ServeRequest, ResultDeterminingOptionsChangeKey) {
  const CanonicalRequest base = canonicalize(make_request());
  PlanRequest fewer_iterations = make_request();
  fewer_iterations.options.phase1.iterations = 7;
  EXPECT_NE(canonicalize(fewer_iterations).key, base.key);

  PlanRequest coarse = make_request();
  coarse.options.phase1.dp.grid = Discretization::coarse();
  EXPECT_NE(canonicalize(coarse).key, base.key);

  PlanRequest contiguous = make_request();
  contiguous.options.phase1.dp.allow_special = false;
  EXPECT_NE(canonicalize(contiguous).key, base.key);
}

TEST(ServeRequest, ContiguousPlannerIsOneKeyFromCppAndProtocol) {
  // The protocol's "madpipe-contig" planner and a C++ request that turns the
  // special processor off are the same planner run, so one cache entry.
  const BatchParse batch = parse_requests(
      R"({"network":{"name":"resnet50"},"gpus":4,"memory_gb":8,)"
      R"("planner":"madpipe-contig"})");
  ASSERT_TRUE(batch.ok()) << batch.error;
  ASSERT_EQ(batch.requests.size(), 1u);
  ASSERT_TRUE(batch.requests[0].ok()) << batch.requests[0].error;
  models::NetworkConfig config;
  config.network = "resnet50";
  PlanRequest cpp{"cpp", models::build_network(config),
                  Platform{4, 8 * GB, 12 * GB}, MadPipeOptions{}, 0.0};
  cpp.options.phase1.dp.allow_special = false;
  const CanonicalRequest from_protocol =
      canonicalize(*batch.requests[0].request);
  const CanonicalRequest from_cpp = canonicalize(cpp);
  EXPECT_EQ(from_protocol.fingerprint, from_cpp.fingerprint);
  EXPECT_EQ(from_protocol.key, from_cpp.key);
}

TEST(ServeRequest, ResultInvariantOptionsShareKey) {
  const CanonicalRequest base = canonicalize(make_request());
  // Speculation widths are bit-identical by construction (enforced by the
  // planner equivalence tests) — they must not split the cache.
  PlanRequest tweaked = make_request();
  tweaked.options.phase1.speculation = 3;
  tweaked.options.phase2.speculation = 2;
  tweaked.id = "different-id";
  tweaked.deadline_seconds = 0.5;
  EXPECT_EQ(canonicalize(tweaked).fingerprint, base.fingerprint);
  EXPECT_EQ(canonicalize(tweaked).key, base.key);
}

TEST(ServeRequest, UnscalableInputsFallBackToExactKey) {
  // A denormal layer time cannot be divided by the time unit exactly (the
  // quotient underflows to zero), so the round-trip check must refuse to
  // normalize and fall back to the exact key.
  PlanRequest request = make_request();
  std::vector<Layer> layers(2);
  layers[0].name = "a";
  layers[0].forward_time = 1.0;
  layers[0].backward_time = 2.0;
  layers[0].output_bytes = MB;
  layers[1].name = "b";
  layers[1].forward_time = 5e-324;  // smallest subnormal
  layers[1].backward_time = 1.0;
  layers[1].output_bytes = MB;
  request.chain = Chain("denormal", 0.0, std::move(layers));
  const CanonicalRequest canonical = canonicalize(request);
  EXPECT_FALSE(canonical.normalized);
  EXPECT_EQ(canonical.time_unit, 1.0);
  EXPECT_EQ(canonical.byte_unit, 1.0);
  // The fallback still keys deterministically.
  EXPECT_EQ(canonical.key, canonicalize(request).key);

  // Non-finite platform numbers are not provably scale-invariant either.
  PlanRequest infinite = make_request();
  infinite.platform.memory_per_processor =
      std::numeric_limits<double>::infinity();
  EXPECT_FALSE(canonicalize(infinite).normalized);
}

TEST(ServeRequest, CanonicalChainPlansLikeTheOriginal) {
  // The heart of the design: planning the canonical profile and rescaling
  // the result is bit-identical to planning the raw profile directly.
  MadPipeOptions options;
  options.phase1.dp.grid = Discretization::coarse();
  for (const double time_factor : {1.0, 16.0}) {
    PlanRequest request = make_request(time_factor, 2.0);
    request.options = options;
    const CanonicalRequest canonical = canonicalize(request);
    ASSERT_TRUE(canonical.normalized);

    const std::optional<Plan> direct =
        plan_madpipe(request.chain, request.platform, options);
    const std::optional<Plan> via_canonical =
        plan_madpipe(canonical.chain, canonical.platform, options);
    ASSERT_EQ(direct.has_value(), via_canonical.has_value()) << time_factor;
    if (!direct.has_value()) continue;
    const Plan denormalized =
        denormalize_plan(*via_canonical, canonical.time_unit);
    EXPECT_TRUE(plans_bit_identical(denormalized, *direct)) << time_factor;
  }
}

TEST(ServeRequest, PlansBitIdenticalDetectsDifferences) {
  MadPipeOptions options;
  options.phase1.dp.grid = Discretization::coarse();
  PlanRequest request = make_request();
  const std::optional<Plan> plan =
      plan_madpipe(request.chain, request.platform, options);
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plans_bit_identical(*plan, *plan));
  Plan tweaked = *plan;
  tweaked.pattern.period = std::nextafter(tweaked.pattern.period, 1e9);
  EXPECT_FALSE(plans_bit_identical(*plan, tweaked));
}

}  // namespace
}  // namespace madpipe::serve
