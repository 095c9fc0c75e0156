#include "serve/request.hpp"

#include <bit>
#include <charconv>
#include <cmath>

#include "obs/trace.hpp"
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

/// The bits of `v` as 16 lowercase hex digits (what "%016llx" prints), then
/// ','.
void append_bits(std::string& out, double v) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  char buf[17];
  for (int i = 15; i >= 0; --i) {
    buf[i] = kHex[bits & 0xf];
    bits >>= 4;
  }
  buf[16] = ',';
  out.append(buf, sizeof(buf));
}

void append_int(std::string& out, long long v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
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

/// The power-of-two units that normalize `chain` on `platform` exactly, or
/// nullopt when some value defeats exact normalization (a zero/non-finite
/// total, memory or bandwidth; a quotient that underflows or overflows).
std::optional<std::pair<double, double>> normalizing_units(
    const Chain& chain, const Platform& platform) {
  const Seconds total = chain.total_compute();
  const Bytes memory = platform.memory_per_processor;
  if (!(total > 0.0 && std::isfinite(total) && memory > 0.0 &&
        std::isfinite(memory) && platform.bandwidth > 0.0 &&
        std::isfinite(platform.bandwidth))) {
    return std::nullopt;
  }
  const double time_unit = pow2_floor(total);
  const double byte_unit = pow2_floor(memory);
  const auto time_ok = [&](double v) {
    return exact_div(v, time_unit).has_value();
  };
  const auto bytes_ok = [&](double v) {
    return exact_div(v, byte_unit).has_value();
  };
  for (int l = 1; l <= chain.length(); ++l) {
    const Layer& layer = chain.layer(l);
    if (!time_ok(layer.forward_time) || !time_ok(layer.backward_time) ||
        !bytes_ok(layer.weight_bytes) || !bytes_ok(layer.output_bytes) ||
        !bytes_ok(layer.scratch_bytes)) {
      return std::nullopt;
    }
  }
  // β is bytes/second: scale bytes down by byte_unit and seconds down by
  // time_unit, so β' = β · time_unit / byte_unit (two exact shifts).
  const auto bw = exact_div(platform.bandwidth * time_unit, byte_unit);
  const bool bandwidth_ok = bw.has_value() && std::isfinite(*bw) &&
                            *bw * byte_unit / time_unit == platform.bandwidth;
  if (!bytes_ok(chain.activation(0)) || !bytes_ok(memory) || !bandwidth_ok) {
    return std::nullopt;
  }
  return std::pair{time_unit, byte_unit};
}

/// Raw value → canonical value under `key`. The exact-key fallback passes
/// raw values through untouched (bit for bit).
struct Scale {
  const CacheKey& key;
  double time(double v) const { return key.normalized ? v / key.time_unit : v; }
  double bytes(double v) const {
    return key.normalized ? v / key.byte_unit : v;
  }
  double bandwidth(double v) const {
    return key.normalized ? v * key.time_unit / key.byte_unit : v;
  }
};

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

CacheKey cache_key(const PlanRequest& request) {
  const Chain& chain = request.chain;
  const Platform& platform = request.platform;
  CacheKey key;
  if (const auto units = normalizing_units(chain, platform)) {
    key.time_unit = units->first;
    key.byte_unit = units->second;
    key.normalized = true;
  }
  // Names are dropped in both modes: they never influence planning, so
  // requests differing only in names must share an entry.
  const Scale scale{key};
  std::string& fp = key.fingerprint;
  fp.reserve(192 + static_cast<std::size_t>(chain.length()) * 86);
  fp = kCacheKeyPrefix;
  append_int(fp, key.normalized ? 1 : 0);
  append_int(fp, platform.processors);
  append_int(fp, chain.length());
  append_options(fp, request.options);
  append_bits(fp, scale.bytes(platform.memory_per_processor));
  append_bits(fp, scale.bandwidth(platform.bandwidth));
  append_bits(fp, scale.bytes(chain.activation(0)));
  fp += "layers:";
  for (int l = 1; l <= chain.length(); ++l) {
    const Layer& layer = chain.layer(l);
    append_bits(fp, scale.time(layer.forward_time));
    append_bits(fp, scale.time(layer.backward_time));
    append_bits(fp, scale.bytes(layer.weight_bytes));
    append_bits(fp, scale.bytes(layer.output_bytes));
    append_bits(fp, scale.bytes(layer.scratch_bytes));
    fp += ';';
  }
  key.key = fingerprint_digest(fp);
  return key;
}

CanonicalRequest canonicalize(const PlanRequest& request, CacheKey key) {
  const Chain& chain = request.chain;
  const Scale scale{key};
  std::vector<Layer> layers;
  layers.reserve(static_cast<std::size_t>(chain.length()));
  for (int l = 1; l <= chain.length(); ++l) {
    const Layer& raw = chain.layer(l);
    Layer layer;
    layer.name = 'l' + std::to_string(l);
    layer.forward_time = scale.time(raw.forward_time);
    layer.backward_time = scale.time(raw.backward_time);
    layer.weight_bytes = scale.bytes(raw.weight_bytes);
    layer.output_bytes = scale.bytes(raw.output_bytes);
    layer.scratch_bytes = scale.bytes(raw.scratch_bytes);
    layers.push_back(std::move(layer));
  }
  Platform platform = request.platform;
  platform.memory_per_processor = scale.bytes(platform.memory_per_processor);
  platform.bandwidth = scale.bandwidth(platform.bandwidth);
  Chain canonical("canonical", scale.bytes(chain.activation(0)),
                  std::move(layers));
  return CanonicalRequest{std::move(key), std::move(canonical), platform};
}

CanonicalRequest canonicalize(const PlanRequest& request) {
  return canonicalize(request, cache_key(request));
}

PreparedRequest prepare(PlanRequest request) {
  obs::Span span("serve_prepare", obs::kCatServe);
  CacheKey key = cache_key(request);
  return PreparedRequest{std::move(request), std::move(key)};
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
