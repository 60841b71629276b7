#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/time.hpp"
#include "util/rng.hpp"

namespace telea {

/// Synthetic substitute for TOSSIM's `meyer-heavy.txt` noise trace (which is
/// not distributable here — see DESIGN.md §4). Statistically similar shape:
/// a Gaussian noise floor around -98 dBm with a two-state Markov burst
/// process lifting readings into the -80…-45 dBm band, producing the
/// heavy-tailed, temporally-correlated noise the paper's simulations rely on.
struct SyntheticTraceConfig {
  std::size_t length = 20000;  // readings
};

/// The range every synthetic reading is clamped to.
inline constexpr double kTraceMinDbm = -105.0;
inline constexpr double kTraceMaxDbm = -40.0;

/// Generates a meyer-heavy-like trace of quantized dBm readings.
[[nodiscard]] std::vector<std::int8_t> generate_heavy_noise_trace(
    const SyntheticTraceConfig& config, std::uint64_t seed);

/// CPM (Closest-Pattern Matching) noise model, after Lee, Cerpa & Levis,
/// "Improving wireless simulation through noise modeling" (IPSN'07) — the
/// model TOSSIM uses and the paper adopts (Sec. IV-A1).
///
/// Training builds a conditional probability table: a hash of the last
/// `history` quantized readings maps to the empirical distribution of the
/// next reading. Generation walks the chain, falling back to the marginal
/// distribution for patterns never observed in training. This reproduces the
/// burstiness and temporal correlation of measured noise, which independent
/// Gaussian sampling cannot.
///
/// The table is flat: an open-addressed bucket array keyed by the pattern
/// hash, each bucket naming a run of one contiguous successor array that
/// holds that pattern's successors in trace order. A lookup touches one or
/// two cache lines and allocates nothing.
///
/// Each successor also records the bucket of the pattern it leads to (its
/// bag's pattern shifted by one, plus the successor), so a generator walks
/// bucket to bucket without hashing or probing. That is an exact memo of
/// the probe because no two patterns share a bucket: FNV-1a gives every
/// pattern of up to kInjectiveHistory readings its own hash.
class CpmNoiseModel {
 public:
  /// Trains the table from a trace of quantized dBm readings. Throws
  /// std::invalid_argument unless the trace is longer than `history`
  /// (a history of 0 is treated as 1), if `history` exceeds
  /// kInjectiveHistory, or if the trace holds so many distinct patterns
  /// that the bucket array outgrows kMaxBuckets.
  CpmNoiseModel(const std::vector<std::int8_t>& trace, std::size_t history = 3);

  /// A generator: an independent random walk over the trained model. Each
  /// node owns one so noise processes across nodes are uncorrelated (as in
  /// TOSSIM, where each node gets its own CPM instance).
  class Generator {
   public:
    Generator(const CpmNoiseModel& model, std::uint64_t seed,
              std::uint64_t stream);

    /// Noise in dBm at virtual time `t`. Advances the underlying process in
    /// fixed steps; queries far apart are decorrelated by re-seeding from the
    /// marginal (bounded catch-up keeps cost O(1) per query).
    [[nodiscard]] double noise_dbm(SimTime t) {
      return static_cast<double>(reading_at(t));
    }

    /// The same reading in milliwatts: exactly dbm_to_mw(noise_dbm(t)),
    /// looked up rather than recomputed.
    [[nodiscard]] double noise_mw(SimTime t) {
      return model_->mw_of_reading_[static_cast<std::uint8_t>(reading_at(t))];
    }

    /// The process step period (how long one reading is "held").
    [[nodiscard]] SimTime step_period() const noexcept { return kStep; }

   private:
    static constexpr SimTime kStep = 2 * kMillisecond;
    static constexpr std::size_t kMaxCatchUpSteps = 32;
    /// bucket_ when the pattern in recent_ has to be hashed and probed.
    static constexpr std::uint32_t kUnknown = 0xFFFFFFFF;

    [[nodiscard]] std::int8_t reading_at(SimTime t);
    void advance_one();
    /// Refills recent_ from the marginal.
    void reseed();

    const CpmNoiseModel* model_;
    Pcg32 rng_;
    std::vector<std::int8_t> recent_;  // last `history` readings
    std::uint32_t bucket_ = kUnknown;  // recent_'s bucket, once known
    std::int8_t current_ = 0;
    SimTime current_step_ = 0;
    bool primed_ = false;
  };

  [[nodiscard]] Generator make_generator(std::uint64_t seed,
                                         std::uint64_t stream) const {
    return Generator(*this, seed, stream);
  }

  [[nodiscard]] std::size_t history() const noexcept { return history_; }

  /// Mean of the training trace (useful as a static noise floor estimate).
  [[nodiscard]] double marginal_mean_dbm() const noexcept {
    return marginal_mean_;
  }

 private:
  friend class Generator;
  friend struct CpmNoiseModelPeer;  // tests: the hash and its proof

  /// FNV-1a over the quantized readings, the hash every model trains with.
  [[nodiscard]] static std::uint64_t pattern_hash(
      std::span<const std::int8_t> recent) noexcept;

  /// pattern_hash gives every pattern of up to this many readings its own
  /// value, the longest history a model accepts. Two equal-length inputs
  /// that collide must, after some prefix of k < length bytes, reach states
  /// that differ in the low 8 bits only (a byte XOR then evens them out,
  /// and multiplying by the odd prime is a bijection). No two of the 2^8
  /// one-byte or 2^16 two-byte states do; a test enumerates them.
  static constexpr std::size_t kInjectiveHistory = 3;

  /// The most buckets a model holds, so next_bucket() fits 16 bits. A
  /// 20,000-reading trace has under 20,000 patterns and at most this many
  /// buckets (the array is at most half full).
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 16;

  /// Index of the bucket for the pattern `recent`.
  [[nodiscard]] std::uint32_t bucket_of(
      std::span<const std::int8_t> recent) const noexcept {
    return static_cast<std::uint32_t>(probe(pattern_hash(recent)));
  }

  /// Bucket of the pattern successor `i` leads to (see the class comment).
  [[nodiscard]] std::uint32_t next_bucket(std::size_t i) const noexcept {
    return next_[i];
  }

  /// Samples from the marginal distribution.
  [[nodiscard]] std::int8_t sample_marginal(Pcg32& rng) const;

  // One pattern's successor bag: successors_[offset, offset + count).
  // count == 0 marks an empty bucket.
  struct Bucket {
    std::uint64_t hash = 0;
    std::uint32_t offset = 0;
    std::uint32_t count = 0;
  };

  /// Index of the bucket holding `hash`, or of the empty bucket where it
  /// would go (linear probing; the table is never full).
  [[nodiscard]] std::size_t probe(std::uint64_t hash) const noexcept;

  /// Doubles the bucket array and reinserts every pattern.
  void grow();

  std::size_t history_;
  // pattern hash -> all observed successors (sampling uniformly from the
  // successor bag reproduces the empirical conditional distribution).
  std::vector<Bucket> buckets_;  // power-of-two size, at most half full
  std::vector<std::int8_t> successors_;
  std::vector<std::uint16_t> next_;  // next_bucket() per successor
  std::vector<std::int8_t> marginal_;
  double marginal_mean_ = -98.0;
  // dbm_to_mw of every int8 reading, indexed by the reading's byte.
  std::array<double, 256> mw_of_reading_{};
};

}  // namespace telea
