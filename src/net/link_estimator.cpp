#include "net/link_estimator.hpp"

#include "util/field.hpp"

#include <algorithm>
#include <cmath>

namespace telea {

namespace {
constexpr std::size_t kBeaconWindow = 5;   // receptions per WMEWMA update
constexpr double kAlpha = 0.9;             // WMEWMA history weight
constexpr double kDataAlpha = 0.75;        // data-driven ETX EWMA weight
constexpr std::uint16_t kMaxEtx10 = 1000;  // saturation (ETX 100.0)
}  // namespace

const LinkEstimator::Entry* LinkEstimator::find(NodeId neighbor) const {
  for (const auto& e : table_) {
    if (e.id == neighbor) return &e;
  }
  return nullptr;
}

LinkEstimator::Entry* LinkEstimator::find_or_insert(NodeId neighbor) {
  for (auto& e : table_) {
    if (e.id == neighbor) return &e;
  }
  if (table_.size() >= kTableLimit) {
    // Evict the entry with the worst inbound quality that has no data-driven
    // state (a neighbor we never used); if all are in use, the worst overall.
    auto victim = std::min_element(
        table_.begin(), table_.end(), [](const Entry& a, const Entry& b) {
          if (a.data_valid != b.data_valid) return !a.data_valid;
          return a.in_quality < b.in_quality;
        });
    *victim = Entry{};
    victim->id = neighbor;
    return &*victim;
  }
  table_.push_back(Entry{});
  table_.back().id = neighbor;
  return &table_.back();
}

void LinkEstimator::on_beacon(NodeId neighbor, std::uint8_t seqno) {
  Entry* e = find_or_insert(neighbor);
  if (!e->has_seqno) {
    e->has_seqno = true;
    e->last_seqno = seqno;
    e->window_received = 1;
    return;
  }
  // Link seqnos are defined to wrap mod 256; the delta wants modular, not
  // saturating, arithmetic.
  const std::uint8_t gap = field::wrap_u8(seqno - e->last_seqno);
  e->last_seqno = seqno;
  if (gap == 0) return;  // duplicate beacon copy
  e->window_received += 1;
  e->window_missed += gap - 1;
  if (e->window_received >= kBeaconWindow) {
    const double ratio =
        static_cast<double>(e->window_received) /
        static_cast<double>(e->window_received + e->window_missed);
    if (e->quality_valid) {
      e->in_quality = kAlpha * e->in_quality +
                      (1.0 - kAlpha) * ratio;
    } else {
      e->in_quality = ratio;
      e->quality_valid = true;
    }
    e->window_received = 0;
    e->window_missed = 0;
  }
}

void LinkEstimator::on_data_tx(NodeId neighbor, bool acked) {
  Entry* e = find_or_insert(neighbor);
  ++e->data_attempts_since_success;
  if (!acked) return;
  const auto attempts = static_cast<double>(e->data_attempts_since_success);
  e->data_attempts_since_success = 0;
  if (e->data_valid) {
    e->data_etx = kDataAlpha * e->data_etx +
                  (1.0 - kDataAlpha) * attempts;
  } else {
    e->data_etx = attempts;
    e->data_valid = true;
  }
}

std::uint16_t LinkEstimator::etx10(NodeId neighbor) const {
  const Entry* e = find(neighbor);
  if (e == nullptr) return kMaxEtx10;

  double etx = 0.0;
  if (e->data_attempts_since_success >= 3) {
    // A run of unacknowledged transmissions is evidence *now*, even before
    // the next success closes the window — otherwise a one-way link (heard
    // fine, never acks) would keep its optimistic estimate forever.
    etx = std::max<double>(e->data_valid ? e->data_etx : 0.0,
                           e->data_attempts_since_success);
  } else if (e->data_valid) {
    // Data-driven forward ETX is ground truth once we have it.
    etx = e->data_etx;
  } else if (e->quality_valid && e->in_quality > 0.01) {
    // Beacon-only estimate: assume roughly symmetric links, so the
    // bidirectional ETX is ~1/q² (forward ≈ reverse ≈ q).
    etx = 1.0 / (e->in_quality * e->in_quality);
  } else {
    // Known neighbor without a full estimation window yet: optimistic
    // default (TinyOS's estimator likewise seeds new links optimistically so
    // routes can form before five beacons have been counted).
    etx = 2.0;
  }
  const double etx10 = std::min(etx * 10.0,
                                static_cast<double>(kMaxEtx10));
  return field::u16(std::lround(etx10));
}

bool LinkEstimator::knows(NodeId neighbor) const {
  return find(neighbor) != nullptr;
}

double LinkEstimator::inbound_quality(NodeId neighbor) const {
  const Entry* e = find(neighbor);
  return (e != nullptr && e->quality_valid) ? e->in_quality : 0.0;
}

std::vector<NodeId> LinkEstimator::neighbors() const {
  std::vector<NodeId> out;
  out.reserve(table_.size());
  for (const auto& e : table_) out.push_back(e.id);
  return out;
}

void LinkEstimator::evict(NodeId neighbor) {
  std::erase_if(table_, [neighbor](const Entry& e) { return e.id == neighbor; });
}

}  // namespace telea
