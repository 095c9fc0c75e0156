#include "serve/request.hpp"

#include <bit>
#include <cmath>
#include <cstdio>

#include "util/flat_hash.hpp"

namespace madpipe::serve {

namespace {

/// Largest power of two ≤ v (v > 0 and finite). frexp gives v = m·2^e with
/// m ∈ [0.5, 1), so the answer is 2^(e−1).
double pow2_floor(double v) {
  int exponent = 0;
  std::frexp(v, &exponent);
  return std::ldexp(1.0, exponent - 1);
}

/// v / unit when that division is exact (round-trips bit-for-bit and stays
/// finite); nullopt otherwise. Division by a power of two only shifts the
/// exponent, so this fails only on overflow or subnormal underflow.
std::optional<double> exact_div(double v, double unit) {
  if (!std::isfinite(v)) return std::nullopt;
  const double scaled = v / unit;
  if (!std::isfinite(scaled) || scaled * unit != v) return std::nullopt;
  return scaled;
}

void append_bits(std::string& out, double v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  out += buf;
  out += ',';
}

void append_int(std::string& out, long long v) {
  out += std::to_string(v);
  out += '|';
}

/// The result-determining option fields. Speculation widths are
/// deliberately left out: results are bit-identical across widths by
/// construction (enforced by the speculation-invariance tests), so requests
/// differing only in those must share a cache entry.
void append_options(std::string& out, const MadPipeOptions& o) {
  append_int(out, o.phase1.iterations);
  append_int(out, o.phase1.dp.grid.load_points);
  append_int(out, o.phase1.dp.grid.memory_points);
  append_int(out, o.phase1.dp.grid.delay_points);
  append_int(out, static_cast<int>(o.phase1.dp.grid.rounding));
  append_int(out, static_cast<int>(o.phase1.dp.delay_comm_variant));
  append_int(out, o.phase1.dp.allow_special ? 1 : 0);
  append_int(out, static_cast<long long>(o.phase1.dp.max_states));
  append_bits(out, o.phase2.relative_precision);
  append_int(out, o.phase2.max_probes);
  append_int(out, static_cast<long long>(o.phase2.bb.max_nodes));
  append_int(out, o.phase2.bb.max_candidates_per_op);
}

}  // namespace

std::uint64_t fingerprint_digest(const std::string& fingerprint) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a, then a final mix
  for (const unsigned char c : fingerprint) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  h = util::mix64(h);
  // The all-ones key is the flat table's empty sentinel.
  return h == ~0ull ? 0ull : h;
}

CanonicalRequest canonicalize(const PlanRequest& request) {
  const Chain& chain = request.chain;
  const Platform& platform = request.platform;
  const Seconds total = chain.total_compute();
  const Bytes memory = platform.memory_per_processor;

  double time_unit = 1.0;
  double byte_unit = 1.0;
  bool normalized = false;
  std::vector<Layer> layers;
  layers.reserve(static_cast<std::size_t>(chain.length()));
  Bytes input_bytes = chain.activation(0);
  Platform canonical_platform = platform;

  if (total > 0.0 && std::isfinite(total) && memory > 0.0 &&
      std::isfinite(memory) && platform.bandwidth > 0.0 &&
      std::isfinite(platform.bandwidth)) {
    time_unit = pow2_floor(total);
    byte_unit = pow2_floor(memory);
    normalized = true;
    const auto scale_bytes = [&](double v) { return exact_div(v, byte_unit); };
    const auto scale_time = [&](double v) { return exact_div(v, time_unit); };

    for (int l = 1; l <= chain.length() && normalized; ++l) {
      const Layer& raw = chain.layer(l);
      Layer layer;
      layer.name = 'l' + std::to_string(l);
      const auto f = scale_time(raw.forward_time);
      const auto b = scale_time(raw.backward_time);
      const auto w = scale_bytes(raw.weight_bytes);
      const auto a = scale_bytes(raw.output_bytes);
      const auto s = scale_bytes(raw.scratch_bytes);
      if (!f || !b || !w || !a || !s) {
        normalized = false;
        break;
      }
      layer.forward_time = *f;
      layer.backward_time = *b;
      layer.weight_bytes = *w;
      layer.output_bytes = *a;
      layer.scratch_bytes = *s;
      layers.push_back(std::move(layer));
    }
    const auto in = scale_bytes(chain.activation(0));
    const auto mem = scale_bytes(memory);
    // β is bytes/second: scale bytes down by byte_unit and seconds down by
    // time_unit, so β' = β · time_unit / byte_unit (two exact shifts).
    const auto bw = exact_div(platform.bandwidth * time_unit, byte_unit);
    const bool bandwidth_ok =
        bw.has_value() && std::isfinite(*bw) &&
        *bw * byte_unit / time_unit == platform.bandwidth;
    if (!in || !mem || !bandwidth_ok) normalized = false;
    if (normalized) {
      input_bytes = *in;
      canonical_platform.memory_per_processor = *mem;
      canonical_platform.bandwidth = *bw;
    }
  }

  if (!normalized) {
    // Exact-key fallback: raw values, unit factors 1. Names are still
    // dropped — they never influence planning, so requests differing only
    // in names must share an entry in this mode too.
    time_unit = 1.0;
    byte_unit = 1.0;
    layers.clear();
    for (int l = 1; l <= chain.length(); ++l) {
      Layer layer = chain.layer(l);
      layer.name = 'l' + std::to_string(l);
      layers.push_back(std::move(layer));
    }
    input_bytes = chain.activation(0);
    canonical_platform = platform;
  }

  CanonicalRequest canonical{
      Chain("canonical", input_bytes, std::move(layers)),
      canonical_platform,
      time_unit,
      byte_unit,
      normalized,
      std::string(),
      0};

  std::string& fp = canonical.fingerprint;
  fp.reserve(96 + static_cast<std::size_t>(chain.length()) * 85);
  fp = "madpipe-serve-key-v2|";
  append_int(fp, normalized ? 1 : 0);
  append_int(fp, platform.processors);
  append_int(fp, chain.length());
  append_options(fp, request.options);
  append_bits(fp, canonical.platform.memory_per_processor);
  append_bits(fp, canonical.platform.bandwidth);
  append_bits(fp, canonical.chain.activation(0));
  fp += "layers:";
  for (int l = 1; l <= canonical.chain.length(); ++l) {
    const Layer& layer = canonical.chain.layer(l);
    append_bits(fp, layer.forward_time);
    append_bits(fp, layer.backward_time);
    append_bits(fp, layer.weight_bytes);
    append_bits(fp, layer.output_bytes);
    append_bits(fp, layer.scratch_bytes);
    fp += ';';
  }
  canonical.key = fingerprint_digest(fp);
  return canonical;
}

Plan denormalize_plan(Plan plan, double time_unit) {
  const double unit = time_unit;
  if (unit == 1.0) return plan;
  plan.phase1_period *= unit;
  plan.pattern.period *= unit;
  for (PatternOp& op : plan.pattern.ops) {
    op.start *= unit;
    op.duration *= unit;
  }
  return plan;
}

std::string allocation_fingerprint(const Allocation& allocation) {
  std::string out;
  const Partitioning& parts = allocation.partitioning();
  for (int s = 0; s < parts.num_stages(); ++s) {
    if (!out.empty()) out += ';';
    out += std::to_string(parts.stage(s).first) + '-' +
           std::to_string(parts.stage(s).last) + '@' +
           std::to_string(allocation.processor_of(s));
  }
  return out;
}

bool plans_bit_identical(const Plan& a, const Plan& b) noexcept {
  if (a.planner != b.planner || a.phase1_period != b.phase1_period ||
      a.pattern.period != b.pattern.period ||
      !(a.allocation == b.allocation) ||
      a.pattern.ops.size() != b.pattern.ops.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.pattern.ops.size(); ++i) {
    const PatternOp& x = a.pattern.ops[i];
    const PatternOp& y = b.pattern.ops[i];
    if (x.kind != y.kind || x.stage != y.stage ||
        !(x.resource == y.resource) || x.start != y.start ||
        x.duration != y.duration || x.shift != y.shift) {
      return false;
    }
  }
  return true;
}

}  // namespace madpipe::serve
