// Seedable, portable random numbers for simulations and benchmarks.
//
// util::Rng is splitmix64 (Steele/Lea/Flood; the seeding generator of the
// xoshiro family): one 64-bit state, an additive Weyl sequence and a
// 3-round mixer. Two properties matter here more than statistical depth:
//
//   * the sequence is a pure function of the seed — no global state, no
//     platform-dependent std::random distributions — so a benchmark
//     workload or a property test generated from a seed is bit-identical
//     on every host and toolchain;
//   * every draw is O(1) with no warm-up, so tests can spin up thousands
//     of independent streams cheaply (one Rng per property-test case).
//
// All derived draws (uniform, below, range, chance) are implemented
// from raw next_u64 bits with explicitly spelled-out arithmetic for the
// same reason: std::uniform_int_distribution is not reproducible across
// standard libraries, this is.
#pragma once

#include <cstdint>

namespace madpipe::util {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next raw 64-bit draw (splitmix64).
  std::uint64_t next_u64() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, 1): the top 53 bits scaled by 2^-53 (every value is an
  /// exactly representable double, so the mapping is bit-reproducible).
  double uniform() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n) without modulo bias (Lemire's multiply-shift
  /// reduction — the bias of a plain % is below any observable threshold at
  /// the bounds drawn here, but the reduction is just as cheap and exact).
  /// The high half of the 64x64 product is computed from 32-bit halves so
  /// the code stays strictly portable C++ (no __int128).
  std::uint64_t below(std::uint64_t n) noexcept {
    if (n == 0) return 0;
    const std::uint64_t a = next_u64();
    const std::uint64_t a_lo = a & 0xFFFFFFFFull, a_hi = a >> 32;
    const std::uint64_t n_lo = n & 0xFFFFFFFFull, n_hi = n >> 32;
    const std::uint64_t lo_lo = a_lo * n_lo;
    const std::uint64_t hi_lo = a_hi * n_lo;
    const std::uint64_t lo_hi = a_lo * n_hi;
    const std::uint64_t hi_hi = a_hi * n_hi;
    const std::uint64_t cross =
        (lo_lo >> 32) + (hi_lo & 0xFFFFFFFFull) + lo_hi;
    return hi_hi + (hi_lo >> 32) + (cross >> 32);
  }

  /// Uniform integer in [lo, hi] (inclusive bounds, the natural shape for
  /// "pick a GPU count between min and max").
  long long range(long long lo, long long hi) noexcept {
    if (hi <= lo) return lo;
    return lo + static_cast<long long>(
                    below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Bernoulli draw.
  bool chance(double p) noexcept { return uniform() < p; }

 private:
  std::uint64_t state_;
};

}  // namespace madpipe::util
