// Compile-only probe of the rules the build enforces through telea_warnings
// (top-level CMakeLists.txt). tests/CMakeLists.txt compiles it once per
// CHECK_* macro, and each selected violation must fail with its diagnostic;
// with no macro defined the file is the conforming twin and must compile
// without a warning.
#include "stats/trace.hpp"
#include "util/bitstring.hpp"

namespace telea {

// -Werror=unused-result: a BitString capacity result may not be dropped.
bool grow(BitString& code, const BitString& tail) {
#if defined(CHECK_DISCARD_PUSH_BACK)
  code.push_back(true);
#elif defined(CHECK_DISCARD_APPEND_BITS)
  code.append_bits(5u, 3u);
#elif defined(CHECK_DISCARD_APPEND)
  code.append(tail);
#endif
  return code.push_back(true) && code.append_bits(5u, 3u) &&
         code.append(tail);
}

// -Werror=switch: a switch over TraceEvent without a default: label names
// every enumerator (this one must list each event, as trace_event_name does).
bool is_event(TraceEvent e) {
  switch (e) {
    case TraceEvent::kControlTx:
    case TraceEvent::kParentChange:
    case TraceEvent::kCodeChange:
    case TraceEvent::kKill:
    case TraceEvent::kRevive:
    case TraceEvent::kForwardDecision:
    case TraceEvent::kSuppress:
    case TraceEvent::kBacktrack:
    case TraceEvent::kRedirect:
    case TraceEvent::kAckPath:
    case TraceEvent::kCommandRetry:
    case TraceEvent::kCommandResolve:
    case TraceEvent::kLinkFault:
    case TraceEvent::kNoiseBurst:
    case TraceEvent::kReboot:
    case TraceEvent::kInvariantViolation:
    case TraceEvent::kControlTxDone:
    case TraceEvent::kControlDelivered:
    case TraceEvent::kFlightDump:
    case TraceEvent::kAlertFired:
    case TraceEvent::kAlertResolved:
    case TraceEvent::kAckTimeout:
#if !defined(CHECK_SWITCH_MISSING_CASE)
    case TraceEvent::kGiveUp:
#endif
      return true;
  }
  return false;
}

}  // namespace telea
