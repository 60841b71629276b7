#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/ids.hpp"

namespace telea {

/// Per-neighbor link quality estimation in the style of TinyOS's 4-bit link
/// estimator (the one CTP ships with): beacon-driven inbound delivery ratio
/// via sequence-number gaps (windowed WMEWMA), blended with data-driven ETX
/// from unicast acknowledgement outcomes once available.
class LinkEstimator {
 public:
  /// Neighbours the table holds; a new one past this evicts the worst.
  static constexpr std::size_t kTableLimit = 24;

  /// Records a received routing beacon (seqno drives the gap estimate).
  void on_beacon(NodeId neighbor, std::uint8_t seqno);

  /// Records the outcome of one unicast data transmission attempt.
  void on_data_tx(NodeId neighbor, bool acked);

  /// Bidirectional ETX to `neighbor` in 1/10 units (10 = perfect link),
  /// or max when the neighbor is unknown / too stale to trust.
  [[nodiscard]] std::uint16_t etx10(NodeId neighbor) const;

  [[nodiscard]] bool knows(NodeId neighbor) const;

  /// Inbound delivery ratio estimate in [0,1]; 0 when unknown.
  [[nodiscard]] double inbound_quality(NodeId neighbor) const;

  [[nodiscard]] std::vector<NodeId> neighbors() const;

  /// Drops a neighbor (e.g. proven dead).
  void evict(NodeId neighbor);

  /// Drops every estimate — a reboot that loses RAM state starts from an
  /// empty table and re-learns links from scratch.
  void clear() { table_.clear(); }

 private:
  struct Entry {
    NodeId id = kInvalidNode;
    std::uint8_t last_seqno = 0;
    bool has_seqno = false;
    std::uint32_t window_received = 0;
    std::uint32_t window_missed = 0;
    double in_quality = 0.0;   // WMEWMA inbound delivery ratio
    bool quality_valid = false;
    double data_etx = 0.0;     // EWMA of attempts-per-success
    std::uint32_t data_attempts_since_success = 0;
    bool data_valid = false;
  };

  [[nodiscard]] const Entry* find(NodeId neighbor) const;
  Entry* find_or_insert(NodeId neighbor);

  std::vector<Entry> table_;
};

}  // namespace telea
