#pragma once

/// \file event.h
/// The wire unit of the online MooD gateway: one timestamped location fix
/// attributed to a user, plus the gateway's per-event verdict vocabulary.
///
/// The batch harness evaluates whole test traces; the gateway instead
/// consumes a globally time-ordered stream of these events (see replay.h
/// for the dataset -> stream conversion) and answers, per event and per
/// user, whether the user's current sliding window can be published
/// raw (expose) or needs a protection mechanism (protect).

#include <cstdint>

#include "decision/kernel.h"
#include "mobility/record.h"
#include "mobility/trace.h"

namespace mood::stream {

/// One location fix arriving at the gateway.
struct StreamEvent {
  mobility::UserId user;
  mobility::Record record;
  /// Global arrival index (assigned by make_event_stream; ties in record
  /// time keep each user's original record order).
  std::uint64_t seq = 0;
};

/// The verdict vocabulary now lives with the decision kernel (shared by
/// the batch gateway evaluator); re-exported here as the gateway's wire
/// vocabulary.
using decision::Decision;
using decision::to_string;

}  // namespace mood::stream
