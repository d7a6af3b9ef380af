// The flight-recorder record vocabulary.
//
// One TraceRecord per simulation event or scheduler decision, compact and
// fixed-layout so a recorder can retain millions of them cheaply and hash
// the stream incrementally.  The stream is a *total order*: records are
// appended in the exact order the single-threaded simulator produces them,
// so two runs of the same SimConfig are bit-identical streams — the
// property the replay verifier (obs/replay.h) checks and pinpoints
// violations of.
//
// Field reuse: the record is deliberately flat (no unions, no variants) so
// equality, hashing and serialization stay trivial.  Fields a kind does not
// use hold their -1/0 defaults; `aux` and `score` carry the kind-specific
// payload documented per enumerator below.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "dollymp/sim/types.h"

namespace dollymp {

/// Everything the flight recorder can witness.  Values are part of the
/// on-disk log format — append new kinds at the end, never renumber.
enum class TraceEv : std::uint8_t {
  kJobArrival = 0,         ///< job joined the active set
  kCopyPlaced = 1,         ///< first concurrent copy of a task (aux = locality level)
  kClonePlaced = 2,        ///< redundant sibling launched by cloning (aux = locality)
  kSpeculativePlaced = 3,  ///< backup launched by the speculation pass (aux = locality)
  kCopyFinished = 4,       ///< copy ran to completion (aux = duration in slots)
  kCopyKilled = 5,         ///< copy terminated by sibling finish / failure (aux = duration)
  kTaskCompleted = 6,      ///< task done; aux = total copies it ever had
  kPhaseCompleted = 7,     ///< last task of the phase finished
  kJobCompleted = 8,       ///< last phase finished
  kServerFailed = 9,       ///< machine crashed; hosted copies are being killed
  kServerRepaired = 10,    ///< machine back up and accepting placements
  kSchedulerInvoked = 11,  ///< schedule() about to run; aux = active job count
  kWakeupRequested = 12,   ///< request_wakeup registered a timer; aux = target slot
  kTimerFired = 13,        ///< a registered timer wakeup popped at this slot
  kPlacementQuery = 14,    ///< a placement helper chose `server` with `score`
                           ///< (aux = query kind: 0 best-fit, 1 first-fit,
                           ///<  3 DollyMP weighted; 2 is no longer emitted)
  kSpeculationPass = 15,   ///< straggler sweep; aux = candidates<<16 | launched
  kCopyFault = 16,         ///< transient fault killed one running copy
  kServerDegraded = 17,    ///< fail-slow onset; aux = slowdown_factor * 100
  kServerRestored = 18,    ///< fail-slow recovery; server speed back to normal
  kQuarantineEnter = 19,   ///< resilience policy quarantined a server
  kQuarantineExit = 20,    ///< quarantine expired; server back in candidacy
  kRetryBackoff = 21,      ///< re-placement deferred; aux = backoff slots
  kCloneBudgetDegraded = 22,  ///< clone budget shrunk under low capacity
                              ///< (aux = effective<<16 | configured)
  kArrivalShed = 23,          ///< admission gate dropped an arrival
                              ///< (aux = shed reason<<8 | tenant class;
                              ///<  reasons: 0 token bucket, 1 watermark,
                              ///<  2 overload ladder level 3)
  kOverloadLevelChanged = 24, ///< degradation ladder moved
                              ///< (aux = new level<<8 | old level)
  kGangPlaced = 25,           ///< a gang phase committed atomically
                              ///< (aux = distinct racks<<32 | tasks placed)
  kGangRollback = 26,         ///< a gang probe failed; tentative allocations
                              ///< released (aux = tasks probed before failure)
};

[[nodiscard]] const char* to_string(TraceEv ev);

/// One flight-recorder record.  56 bytes in memory, 53 on the wire.
struct TraceRecord {
  std::uint64_t seq = 0;    ///< position in the stream, stamped by the recorder
  SimTime slot = 0;         ///< simulation slot the event happened at
  TraceEv type = TraceEv::kJobArrival;
  JobId job = -1;
  PhaseIndex phase = -1;
  std::int32_t task = -1;
  std::int32_t copy = -1;   ///< copy index within the task, where meaningful
  std::int32_t server = -1;
  std::int64_t aux = 0;     ///< kind-specific payload (see TraceEv)
  double score = 0.0;       ///< placement score for kPlacementQuery, else 0

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

/// Serialized size of one record in the binary log (packed fields, no
/// padding) — also the unit of Recorder::bytes_written().
inline constexpr std::size_t kTraceRecordWireBytes = 53;

/// Incremental stream hash: fold `record` into the running 64-bit hash `h`.
/// Every payload field participates (seq included), so any reordering,
/// mutation, insertion or truncation of the stream changes the final value.
/// Start from kTraceHashSeed.
inline constexpr std::uint64_t kTraceHashSeed = 0xcbf29ce484222325ULL;

[[nodiscard]] std::uint64_t fold_record_hash(std::uint64_t h, const TraceRecord& record);

/// Human-readable one-line decoding, e.g.
///   "#142 slot=317 clone-placed job=5 phase=1 task=12 copy=1 server=23".
[[nodiscard]] std::string decode(const TraceRecord& record);

}  // namespace dollymp
