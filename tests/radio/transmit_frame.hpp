#pragma once

#include "radio/medium.hpp"
#include "radio/packet.hpp"

namespace telea {

/// Transmits `frame` from `src`, sized as LplMac sizes it.
inline void transmit_frame(RadioMedium& medium, NodeId src,
                           const Frame& frame) {
  medium.transmit(src, frame, wire_size_bytes(frame));
}

}  // namespace telea
