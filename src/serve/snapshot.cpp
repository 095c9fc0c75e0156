#include "serve/snapshot.hpp"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <vector>

#include "core/chain.hpp"
#include "serve/request.hpp"

namespace madpipe::serve {

namespace {

constexpr char kMagic[] = "madpipe-cachesnap-v1\n";
constexpr std::size_t kMagicSize = sizeof(kMagic) - 1;
constexpr std::uint32_t kEndianTag = 0x01020304u;

std::uint64_t fnv1a(const char* data, std::size_t size) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ull;
  }
  return h;
}

class Encoder {
 public:
  void u8(std::uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void i32(std::int32_t v) { raw(&v, sizeof(v)); }
  void i64(std::int64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buffer_.append(s);
  }
  void magic() { buffer_.append(kMagic, kMagicSize); }

  std::string& buffer() { return buffer_; }

 private:
  void raw(const void* p, std::size_t n) {
    buffer_.append(static_cast<const char*>(p), n);
  }
  std::string buffer_;
};

class Decoder {
 public:
  explicit Decoder(const std::string& data) : data_(data) {}

  bool u8(std::uint8_t& v) { return raw(&v, sizeof(v)); }
  bool u32(std::uint32_t& v) { return raw(&v, sizeof(v)); }
  bool u64(std::uint64_t& v) { return raw(&v, sizeof(v)); }
  bool i32(std::int32_t& v) { return raw(&v, sizeof(v)); }
  bool i64(std::int64_t& v) { return raw(&v, sizeof(v)); }
  bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    v = std::bit_cast<double>(bits);
    return true;
  }
  bool str(std::string& s) {
    std::uint32_t size = 0;
    if (!u32(size)) return false;
    if (offset_ + size > data_.size()) return false;
    s.assign(data_, offset_, size);
    offset_ += size;
    return true;
  }
  bool magic() {
    if (offset_ + kMagicSize > data_.size()) return false;
    if (std::memcmp(data_.data() + offset_, kMagic, kMagicSize) != 0) {
      return false;
    }
    offset_ += kMagicSize;
    return true;
  }

  std::size_t offset() const { return offset_; }

 private:
  bool raw(void* p, std::size_t n) {
    if (offset_ + n > data_.size()) return false;
    std::memcpy(p, data_.data() + offset_, n);
    offset_ += n;
    return true;
  }
  const std::string& data_;
  std::size_t offset_ = 0;
};

void encode_plan(Encoder& enc, const Plan& plan) {
  enc.str(plan.planner);
  enc.u32(static_cast<std::uint32_t>(plan.allocation.num_processors()));
  const Partitioning& partitioning = plan.allocation.partitioning();
  enc.u32(static_cast<std::uint32_t>(partitioning.num_stages()));
  for (int s = 0; s < partitioning.num_stages(); ++s) {
    enc.i32(partitioning.stage(s).first);
    enc.i32(partitioning.stage(s).last);
    enc.i32(plan.allocation.processor_of(s));
  }
  enc.f64(plan.phase1_period);
  enc.f64(plan.pattern.period);
  enc.u32(static_cast<std::uint32_t>(plan.pattern.ops.size()));
  for (const PatternOp& op : plan.pattern.ops) {
    enc.u8(static_cast<std::uint8_t>(op.kind));
    enc.i32(op.stage);
    enc.u8(static_cast<std::uint8_t>(op.resource.kind));
    enc.i32(op.resource.a);
    enc.i32(op.resource.b);
    enc.f64(op.start);
    enc.f64(op.duration);
    enc.i64(op.shift);
  }
}

std::optional<Plan> decode_plan(Decoder& dec) {
  std::string planner_name;
  std::uint32_t num_processors = 0;
  std::uint32_t num_stages = 0;
  if (!dec.str(planner_name)) return std::nullopt;
  if (!dec.u32(num_processors)) return std::nullopt;
  if (!dec.u32(num_stages)) return std::nullopt;
  if (num_stages == 0 || num_stages > (1u << 20)) return std::nullopt;
  std::vector<Stage> stages;
  std::vector<int> processor_of_stage;
  stages.reserve(num_stages);
  processor_of_stage.reserve(num_stages);
  int last_layer = 0;
  for (std::uint32_t s = 0; s < num_stages; ++s) {
    std::int32_t first = 0, last = 0, processor = 0;
    if (!dec.i32(first) || !dec.i32(last) || !dec.i32(processor)) {
      return std::nullopt;
    }
    stages.push_back(Stage{first, last});
    processor_of_stage.push_back(processor);
    last_layer = last;
  }
  // The Partitioning constructor validates tiling against a chain; the
  // canonical chain itself is not persisted (the fingerprint pins it), so a
  // uniform dummy of the right length stands in for the structural check.
  if (last_layer <= 0 || last_layer > (1 << 24)) return std::nullopt;
  std::optional<Plan> result;
  try {
    const Chain dummy = make_uniform_chain(last_layer, 1.0, 1.0, 0, 0, 0);
    result.emplace(Plan{std::move(planner_name),
                        Allocation(Partitioning(dummy, std::move(stages)),
                                   std::move(processor_of_stage),
                                   static_cast<int>(num_processors)),
                        PeriodicPattern{}, 0.0, 0.0, PlannerStats{}});
  } catch (const std::exception&) {
    return std::nullopt;
  }
  Plan& plan = *result;
  std::uint32_t op_count = 0;
  if (!dec.f64(plan.phase1_period)) return std::nullopt;
  if (!dec.f64(plan.pattern.period)) return std::nullopt;
  if (!dec.u32(op_count)) return std::nullopt;
  if (op_count > (1u << 26)) return std::nullopt;
  plan.pattern.ops.reserve(op_count);
  for (std::uint32_t i = 0; i < op_count; ++i) {
    PatternOp op;
    std::uint8_t kind = 0, resource_kind = 0;
    std::int64_t shift = 0;
    if (!dec.u8(kind) || !dec.i32(op.stage) || !dec.u8(resource_kind) ||
        !dec.i32(op.resource.a) || !dec.i32(op.resource.b) ||
        !dec.f64(op.start) || !dec.f64(op.duration) || !dec.i64(shift)) {
      return std::nullopt;
    }
    if (kind > static_cast<std::uint8_t>(OpKind::CommBackward)) {
      return std::nullopt;
    }
    if (resource_kind > 1) return std::nullopt;
    op.kind = static_cast<OpKind>(kind);
    op.resource.kind = static_cast<ResourceId::Kind>(resource_kind);
    op.shift = shift;
    plan.pattern.ops.push_back(op);
  }
  return result;
}

}  // namespace

SnapshotSaveResult save_cache_snapshot(const ShardedPlanCache& cache,
                                       const std::string& path) {
  SnapshotSaveResult result;
  const std::vector<ShardedPlanCache::ExportedEntry> entries =
      cache.export_entries();

  Encoder enc;
  enc.magic();
  enc.u32(kEndianTag);
  enc.u64(entries.size());
  for (const ShardedPlanCache::ExportedEntry& entry : entries) {
    enc.u64(entry.key);
    enc.str(entry.fingerprint);
    enc.f64(entry.cached.creator_time_unit);
    enc.f64(entry.cached.creator_byte_unit);
    enc.u8(entry.cached.plan.has_value() ? 1 : 0);
    if (entry.cached.plan.has_value()) encode_plan(enc, *entry.cached.plan);
  }
  const std::string& payload = enc.buffer();
  enc.u64(fnv1a(payload.data(), payload.size()));

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      result.error = "cannot open " + tmp + " for writing";
      return result;
    }
    out.write(enc.buffer().data(),
              static_cast<std::streamsize>(enc.buffer().size()));
    if (!out) {
      result.error = "short write to " + tmp;
      return result;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    result.error = "cannot rename " + tmp + " to " + path;
    return result;
  }
  result.ok = true;
  result.entries = entries.size();
  result.bytes = enc.buffer().size();
  return result;
}

SnapshotLoadResult load_cache_snapshot(ShardedPlanCache& cache,
                                       const std::string& path) {
  SnapshotLoadResult result;
  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      result.error = "cannot open " + path;
      return result;
    }
    in.seekg(0, std::ios::end);
    const std::streamoff size = in.tellg();
    if (size < 0) {
      result.error = "cannot stat " + path;
      return result;
    }
    data.resize(static_cast<std::size_t>(size));
    in.seekg(0);
    in.read(data.data(), size);
    if (!in) {
      result.error = "short read from " + path;
      return result;
    }
  }
  if (data.size() < kMagicSize + sizeof(std::uint32_t) +
                        2 * sizeof(std::uint64_t)) {
    result.error = "snapshot too small to be valid";
    return result;
  }

  // Checksum first: everything else assumes intact bytes.
  const std::size_t payload_size = data.size() - sizeof(std::uint64_t);
  std::uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, data.data() + payload_size,
              sizeof(stored_checksum));
  if (fnv1a(data.data(), payload_size) != stored_checksum) {
    result.error = "checksum mismatch (truncated or corrupted snapshot)";
    return result;
  }

  Decoder dec(data);
  if (!dec.magic()) {
    result.error = "bad magic: not a madpipe-cachesnap-v1 file";
    return result;
  }
  std::uint32_t endian = 0;
  if (!dec.u32(endian) || endian != kEndianTag) {
    result.error = "endianness tag mismatch";
    return result;
  }
  std::uint64_t count = 0;
  if (!dec.u64(count)) {
    result.error = "truncated entry count";
    return result;
  }

  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t key = 0;
    std::string fingerprint;
    CachedPlan cached;
    std::uint8_t feasible = 0;
    if (!dec.u64(key) || !dec.str(fingerprint) ||
        !dec.f64(cached.creator_time_unit) ||
        !dec.f64(cached.creator_byte_unit) || !dec.u8(feasible)) {
      result.error = "truncated entry " + std::to_string(i);
      return result;
    }
    if (feasible != 0) {
      std::optional<Plan> plan = decode_plan(dec);
      if (!plan.has_value()) {
        result.error = "malformed plan in entry " + std::to_string(i);
        return result;
      }
      cached.plan = std::move(plan);
    }
    // Fingerprint verification: the key must be the digest of the stored
    // fingerprint, exactly as cache_key() would compute it today.
    if (fingerprint_digest(fingerprint) != key) {
      ++result.rejected;
      continue;
    }
    cache.insert_raw(key, fingerprint, cached);
    ++result.loaded;
  }
  result.ok = true;
  return result;
}

}  // namespace madpipe::serve
