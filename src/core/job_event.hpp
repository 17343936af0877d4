// Job lifecycle vocabulary shared by JobService, its handles, and the
// line-protocol server (core/job_protocol.hpp).
//
// A job walks queued -> running -> one terminal state (done / failed /
// cancelled). Every transition — plus mid-run progress ticks and each
// completed MethodResult row — is published to the job's event sink as a
// JobEvent, in order, from the worker thread executing the job. Sinks are
// how results stream: a server connection serializes events to its client
// as they happen instead of waiting for the whole sweep.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/flow_engine.hpp"

namespace iddq::core {

/// Coarse job state, also readable synchronously via JobHandle::status().
enum class JobState {
  queued,
  running,
  done,       // all rows produced
  failed,     // loader / flow / optimizer error (JobResult::error)
  cancelled,  // cooperative cancel honoured before completion
};

[[nodiscard]] constexpr bool is_terminal(JobState s) noexcept {
  return s == JobState::done || s == JobState::failed ||
         s == JobState::cancelled;
}

[[nodiscard]] constexpr const char* to_string(JobState s) noexcept {
  switch (s) {
    case JobState::queued: return "queued";
    case JobState::running: return "running";
    case JobState::done: return "done";
    case JobState::failed: return "failed";
    case JobState::cancelled: return "cancelled";
  }
  return "?";
}

/// One streamed notification. `kind` selects which payload fields are
/// meaningful; the rest stay default-initialized.
struct JobEvent {
  enum class Kind {
    queued,    // accepted by the service
    running,   // a worker picked the job up
    progress,  // live optimizer tick (method/iteration/evaluations/best)
    row,       // one method finished (row_index + row)
    done,      // terminal: every method finished
    failed,    // terminal: error carries what()
    cancelled  // terminal: cancel honoured
  };

  Kind kind = Kind::queued;
  std::uint64_t job = 0;     // JobService-assigned id
  std::string circuit;       // the job's circuit spec

  // Kind::progress payload.
  std::string method;
  std::size_t iteration = 0;
  std::size_t evaluations = 0;
  part::Fitness best;

  // Kind::row payload. Shared so sinks can retain rows without copying
  // the module lists.
  std::size_t row_index = 0;
  std::shared_ptr<const MethodResult> row;

  // Kind::failed payload. `reason` is the machine-readable failure class
  // ("timeout" for an expired deadline; empty for plain errors) and rides
  // the protocol's failed event as a `reason` field.
  std::string error;
  std::string reason;
};

/// Delivery contract of an event class under backpressure
/// (core/event_writer.hpp). Progress ticks are advisory UI: when a
/// session's outbound queue is full, the oldest ticks are dropped rather
/// than blocking a worker. Everything else — lifecycle transitions and
/// result rows — is part of the result stream and must arrive in order or
/// the session must be torn down; dropping one would silently corrupt the
/// byte-identity contract with direct FlowEngine runs.
enum class EventDeliveryClass {
  droppable,     // may be coalesced/dropped under backpressure
  must_deliver,  // delivered in order, or the session disconnects
};

/// Invoked from the worker thread running the job; events of one job are
/// ordered, events of different jobs interleave. Must not call back into
/// JobHandle::wait() (deadlock by design: the worker is the thread being
/// waited for) — JobHandle::cancel() is safe. Exceptions thrown by a sink
/// are swallowed by the service: a sink cannot veto or abort a job by
/// throwing (events come from bare worker threads and from terminal
/// transitions that must complete); use cancel() to stop a job. Sinks
/// should not block: the protocol session enqueues into a bounded
/// per-session queue (core/event_writer.hpp) and returns immediately, so
/// a slow client never stalls the emitting worker.
using JobEventSink = std::function<void(const JobEvent&)>;

}  // namespace iddq::core
