#include "core/job_protocol.hpp"

#include <chrono>
#include <csignal>
#include <thread>
#include <utility>

#include "support/error.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace iddq::core {

namespace {

using json::JsonWriter;
using support::SweepLine;

const char* event_name(JobEvent::Kind kind) {
  switch (kind) {
    case JobEvent::Kind::queued: return "queued";
    case JobEvent::Kind::running: return "running";
    case JobEvent::Kind::progress: return "progress";
    case JobEvent::Kind::row: return "row";
    case JobEvent::Kind::done: return "done";
    case JobEvent::Kind::failed: return "failed";
    case JobEvent::Kind::cancelled: return "cancelled";
  }
  return "?";
}

std::string event_json(const std::string& sweep_id, const JobEvent& e) {
  JsonWriter w;
  w.field("event", event_name(e.kind))
      .field("id", sweep_id)
      .field("circuit", e.circuit)
      .field("job", e.job);
  switch (e.kind) {
    case JobEvent::Kind::progress:
      w.field("method", e.method)
          .field("iteration", e.iteration)
          .field("evaluations", e.evaluations)
          .field("violation", e.best.violation)
          .field("cost", e.best.cost);
      break;
    case JobEvent::Kind::row: {
      const MethodResult& row = *e.row;
      JsonWriter costs(JsonWriter::Kind::Array);
      for (const double c : row.costs.as_array()) costs.element(c);
      w.field("index", e.row_index)
          .field("method", row.method)
          .field("modules", row.module_count)
          .field("violation", row.fitness.violation)
          .field("cost", row.fitness.cost)
          .field_raw("c", std::move(costs).str())
          .field("sensor_area", row.sensor_area)
          .field("delay_overhead", row.delay_overhead)
          .field("test_overhead", row.test_overhead)
          .field("iterations", row.iterations)
          .field("evaluations", row.evaluations)
          .field("feasible", row.fitness.feasible());
      // Measured-coverage columns ride along only when the server's flow
      // grades them: absent fields keep coverage-off streams byte-
      // identical to the previous protocol revision.
      if (row.has_coverage) {
        w.field("fault_coverage_pct", row.fault_coverage_pct)
            .field("faults_detected", row.faults_detected)
            .field("faults_total", row.faults_total)
            .field("patterns_used", row.patterns_used)
            .field("patterns_minimized", row.patterns_minimized);
      }
      break;
    }
    case JobEvent::Kind::failed:
      w.field("error", e.error);
      // Machine-readable failure class ("timeout"). Absent for plain
      // errors, keeping pre-deadline streams byte-identical.
      if (!e.reason.empty()) w.field("reason", e.reason);
      break;
    default:
      break;
  }
  return std::move(w).str();
}

std::string sweep_done_line(const std::string& id, std::size_t ok,
                            std::size_t failed, std::size_t cancelled) {
  return JsonWriter()
      .field("event", "sweep_done")
      .field("id", id)
      .field("ok", ok)
      .field("failed", failed)
      .field("cancelled", cancelled)
      .str();
}

}  // namespace

// ------------------------------------------------------- ServiceBackend --

/// The job server's backend: one per session, sharding its submits over
/// the shared JobService under the session's quota and the service's
/// admission bound.
class JobProtocolSession::ServiceBackend final : public support::SweepBackend {
 public:
  ServiceBackend(JobService& service, JobProtocolSession& session)
      : service_(&service), session_(&session) {}

  std::string hello_line() override {
    return JsonWriter()
        .field("event", "hello")
        .field("protocol", std::uint64_t{1})
        .field("workers", service_->worker_count())
        .str();
  }

  std::string ping_line(std::string_view id) override {
    // Liveness probe: answered inline by the session thread, no service
    // interaction — a wedged worker pool still answers, a dead transport
    // does not, which is exactly the health signal a cluster front-end
    // needs before routing shards here.
    JsonWriter pong;
    pong.field("event", "pong")
        .field("protocol", std::uint64_t{1})
        .field("workers", service_->worker_count());
    if (!id.empty()) pong.field("id", id);
    return std::move(pong).str();
  }

  std::string stats_line() override;
  std::shared_ptr<support::SweepHandle> submit_sweep(
      const support::SubmitRequest& request, support::SweepEmit emit) override;

  void cancel(support::SweepHandle& handle) override {
    auto& sweep = static_cast<Sweep&>(handle);
    std::vector<JobHandle> jobs;
    {
      const std::scoped_lock lock(sweep.mutex);
      jobs = sweep.jobs;
    }
    for (auto& job : jobs) job.cancel();
  }

 private:
  /// The shard sinks' shared accounting of one sweep.
  struct Tally {
    std::mutex mutex;
    std::size_t remaining = 0;
    std::size_t announced = 0;  // shards whose `queued` event was seen
    std::size_t ok = 0;
    std::size_t failed = 0;
    std::size_t cancelled = 0;
  };
  /// The session's handle on a sweep: its shards' JobHandles, for cancel.
  /// The sinks hold only the Tally, so no job keeps its own handle alive.
  struct Sweep final : support::SweepHandle {
    std::mutex mutex;  // guards jobs
    std::vector<JobHandle> jobs;
  };

  JobService* service_;
  JobProtocolSession* session_;
  /// This session's submitted shards not yet terminal (the quota's count).
  /// Sinks update it before their sweep's sweep_done is emitted, never
  /// after, so it is gone only once nothing can touch it.
  std::atomic<std::size_t> in_flight_{0};
};

std::string JobProtocolSession::ServiceBackend::stats_line() {
  const SessionTrafficStats* traffic = session_->options_.traffic;
  JsonWriter w;
  w.field("event", "stats")
      .field("workers", service_->worker_count())
      .field("submitted", service_->submitted())
      .field("completed", service_->completed())
      .field("failed", service_->failed())
      .field("cancelled", service_->cancelled())
      .field("timeouts", service_->timeouts())
      .field("drained_sessions",
             traffic != nullptr
                 ? traffic->drained_sessions.load(std::memory_order_relaxed)
                 : std::uint64_t{0});
  if (const ResultCache* cache = service_->flow_config().cache;
      cache != nullptr) {
    w.field("cache_hits", cache->hits())
        .field("cache_misses", cache->misses())
        .field("cache_entries", cache->size())
        .field("cache_corrupt_lines", cache->corrupt_lines())
        .field("cache_resident", cache->resident_size())
        .field("cache_evictions", cache->evictions())
        .field("cache_disk_hits", cache->disk_hits());
  }
  const SessionEventWriter::Stats q = session_->writer_->stats();
  JsonWriter qs;
  qs.field("depth", q.depth)
      .field("high_water", q.depth_high_water)
      .field("enqueued", q.enqueued)
      .field("dropped_progress", q.dropped_progress)
      .field("disconnects",
             traffic != nullptr
                 ? traffic->overflow_disconnects.load(
                       std::memory_order_relaxed)
                 : static_cast<std::uint64_t>(q.disconnected ? 1 : 0));
  w.field_raw("queue_stats", std::move(qs).str());
  return std::move(w).str();
}

std::shared_ptr<support::SweepHandle>
JobProtocolSession::ServiceBackend::submit_sweep(
    const support::SubmitRequest& request, support::SweepEmit emit) {
  const Options& options = session_->options_;
  const std::size_t width = request.circuits.size();
  // Per-session quota: one greedy client cannot monopolize the shared
  // worker pool. Checked before the global admission bound so the error
  // names the narrower limit. The session submits serially, so
  // check-then-admit cannot race with another submit of this session;
  // concurrent terminal events only shrink in_flight_.
  if (options.max_jobs_per_session > 0) {
    const std::size_t in_flight = in_flight_.load();
    if (in_flight + width > options.max_jobs_per_session) {
      if (options.traffic != nullptr)
        options.traffic->quota_rejections.fetch_add(
            1, std::memory_order_relaxed);
      throw Error("submit: session quota exceeded (" +
                  std::to_string(in_flight) + " in flight + " +
                  std::to_string(width) + " requested > quota " +
                  std::to_string(options.max_jobs_per_session) +
                  "); wait for running jobs to finish");
    }
  }
  // Admission control: reject the whole sweep up front when its fan-out
  // would overflow the queue bound — a partially admitted sweep would be
  // worse than a clean retry-later signal. The reservation is atomic
  // across sessions: concurrent submits cannot jointly overshoot the
  // bound (it is released below, once every shard is queued).
  if (options.max_queue > 0 && width > options.max_queue) {
    // Not transient: a sweep wider than the bound can never be admitted.
    throw Error("submit: sweep of " + std::to_string(width) +
                " jobs exceeds the queue bound " +
                std::to_string(options.max_queue) + "; split the sweep");
  }
  if (!service_->try_reserve(width, options.max_queue)) {
    throw Error("submit: queue full (" +
                std::to_string(service_->queue_depth()) + " queued, bound " +
                std::to_string(options.max_queue) + "); retry later");
  }
  // RAII over the reserved slots: whatever is still held when this frame
  // unwinds — early return, contained error, even an unexpected throw —
  // is handed back, so admission can never leak.
  struct ReservationGuard {
    JobService* service;
    std::size_t held;
    ~ReservationGuard() {
      if (held > 0) service->release_reservation(held);
    }
  } reservation{service_,
                // No bound -> try_reserve took nothing; hold (and later
                // release) nothing, or we would erode reservations other
                // sessions hold on the shared service.
                options.max_queue > 0 ? width : 0};

  auto sweep = std::make_shared<Sweep>();
  auto tally = std::make_shared<Tally>();
  tally->remaining = width;
  // Quota accounting mirrors tally->remaining exactly: charged whole
  // here, refunded per terminal event (announced shards) or by the
  // write-off below (shards that never reached the queue).
  in_flight_ += width;
  emit(support::accepted_line(request), SweepLine::event);

  auto sink = [tally, emit, id = request.id,
               in_flight = &in_flight_](const JobEvent& event) {
    emit(event_json(id, event), event.kind == JobEvent::Kind::progress
                                    ? SweepLine::progress
                                    : SweepLine::event);
    if (event.kind == JobEvent::Kind::queued) {
      // Ground truth for the write-off below: an announced shard is
      // guaranteed a terminal event (JobService::submit finalizes on any
      // post-announce failure), an unannounced one never produces any.
      const std::scoped_lock lock(tally->mutex);
      ++tally->announced;
      return;
    }
    if (event.kind != JobEvent::Kind::done &&
        event.kind != JobEvent::Kind::failed &&
        event.kind != JobEvent::Kind::cancelled)
      return;
    std::string done;
    {
      const std::scoped_lock lock(tally->mutex);
      if (event.kind == JobEvent::Kind::done) ++tally->ok;
      if (event.kind == JobEvent::Kind::failed) ++tally->failed;
      if (event.kind == JobEvent::Kind::cancelled) ++tally->cancelled;
      in_flight->fetch_sub(1);
      if (--tally->remaining == 0)
        done = sweep_done_line(id, tally->ok, tally->failed,
                               tally->cancelled);
    }
    // Last: once sweep_done is posted the session may end, so nothing
    // after this may touch it or this backend.
    if (!done.empty()) emit(done, SweepLine::sweep_done);
  };

  std::string error;
  try {
    for (std::size_t shard = 0; shard < width; ++shard) {
      // A session the backpressure policy disconnected will never deliver
      // results: stop admitting shards. The write-off below retires the
      // ones that never reached the queue (they produced no events).
      if (session_->writer_->disconnected())
        throw Error("session disconnected (event queue overflow)");
      JobSpec spec;
      spec.circuit = request.circuits[shard];
      spec.methods = request.methods;
      // The `iddqsyn --jobs` derivation, shard i at mix_seed(seed, i),
      // keeps a server sweep byte-identical to `iddqsyn --jobs N` at the
      // same base seed. An explicit "seeds" array overrides it — the seed
      // is then DATA the submitter shipped with the shard, independent of
      // its index here.
      spec.base_seed = request.seeds.empty()
                           ? Rng::mix_seed(request.seed, shard)
                           : request.seeds[shard];
      spec.max_evaluations = request.budget;
      spec.priority = request.priority;
      spec.deadline_ms = request.deadline_ms;
      spec.cache_policy = request.use_cache ? JobSpec::CachePolicy::use
                                            : JobSpec::CachePolicy::bypass;
      JobHandle job = service_->submit(std::move(spec), sink);
      // This shard is on the real queue now: release its promised slot
      // immediately, so a client slow to drain the event stream does not
      // pin admission slots that other sessions could use.
      if (reservation.held > 0) {
        service_->release_reservation(1);
        --reservation.held;
      }
      const std::scoped_lock lock(sweep->mutex);
      sweep->jobs.push_back(std::move(job));
    }
    return sweep;
  } catch (const std::exception& e) {
    // A concurrent shutdown closed intake mid-sweep (iddq::Error), or
    // something like bad_alloc hit: either way the exception must not
    // unwind the session thread.
    error = e.what();
  }
  // Account for the shards that will never run so the sweep still
  // completes, then tell the client. A shard whose `queued` event was
  // seen self-accounts through its sink; every other shard produced no
  // events and is written off here. The queued events fire synchronously
  // on this thread, so tally->announced is final by now.
  std::string done;
  {
    const std::scoped_lock lock(tally->mutex);
    const std::size_t unaccounted = width - tally->announced;
    if (unaccounted > 0 && tally->remaining >= unaccounted) {
      tally->remaining -= unaccounted;
      in_flight_ -= unaccounted;
      if (tally->remaining == 0)
        done = sweep_done_line(request.id, tally->ok, tally->failed,
                               tally->cancelled);
    }
  }
  emit(support::error_line("submit: " + error, request.id), SweepLine::event);
  if (!done.empty()) emit(done, SweepLine::sweep_done);
  return sweep;
}

// ---------------------------------------------------- JobProtocolSession --

JobProtocolSession::JobProtocolSession(JobService& service,
                                       support::LineChannel& channel,
                                       Options options)
    : owned_backend_(std::make_unique<ServiceBackend>(service, *this)),
      backend_(owned_backend_.get()),
      channel_(&channel),
      options_(options) {}

JobProtocolSession::JobProtocolSession(support::SweepBackend& backend,
                                       support::LineChannel& channel,
                                       Options options)
    : backend_(&backend), channel_(&channel), options_(options) {}

JobProtocolSession::~JobProtocolSession() = default;

bool JobProtocolSession::run() {
  bool shutdown_requested = false;
  // All channel writes of this session funnel through one writer thread;
  // emitting workers enqueue and return immediately, so a client that
  // stops reading can stall only this session.
  SessionEventWriter writer(
      *channel_, options_.session_queue, [this] { on_overflow_disconnect(); },
      support::error_line("event queue overflow: client not reading; "
                          "session disconnected"));
  writer_ = &writer;
  send(backend_->hello_line());

  std::string line;
  while (!writer.disconnected() && channel_->read_line(line)) {
    if (str::trim(line).empty()) continue;
    if (handle_line(line)) {
      shutdown_requested = true;
      break;
    }
  }
  // EOF and shutdown both drain: every submitted sweep reaches its
  // sweep_done before the session ends. (After an overflow disconnect the
  // sweeps were cancelled and their events are rejected at the queue, so
  // this stays prompt.) In server-wide drain mode the wait is bounded by
  // --drain-timeout-ms and the session says bye even when it was ended by
  // the accept loop's shutdown_read — the client sees an orderly close,
  // not a silent EOF.
  drain();
  const bool server_draining =
      options_.draining != nullptr &&
      options_.draining->load(std::memory_order_acquire);
  if ((shutdown_requested || server_draining) && !writer.disconnected())
    send(JsonWriter().field("event", "bye").str());
  if (server_draining && options_.traffic != nullptr)
    options_.traffic->drained_sessions.fetch_add(1,
                                                 std::memory_order_relaxed);
  // Everything queued is on the wire before run() returns — callers (and
  // tests) may read the channel's other end immediately after.
  writer.flush();
  writer_ = nullptr;
  return shutdown_requested;
}

bool JobProtocolSession::handle_line(const std::string& line) {
  const auto request = json::JsonValue::parse(line);
  if (!request || !request->is_object()) {
    send_error("malformed request: not a JSON object");
    return false;
  }
  const std::string op = request->get_string("op");
  if (op == "shutdown") {
    // Flip the server-wide drain flag here, not in the caller: every
    // OTHER session must start rejecting submits before this one's bye,
    // or a submit racing the shutdown could be half-admitted.
    if (options_.draining != nullptr)
      options_.draining->store(true, std::memory_order_release);
    return true;
  }
  if (op == "stats") {
    send(backend_->stats_line());
    return false;
  }
  if (op == "ping") {
    // The probe id is echoed (a heartbeat prober tags its pings "hb" so
    // its pongs never collide with a stats/ping rendezvous); plain pings
    // keep their old bytes.
    send(backend_->ping_line(request->get_string("id")));
    return false;
  }
  if (op == "cancel") {
    const std::string id = request->get_string("id");
    std::shared_ptr<support::SweepHandle> sweep;
    bool known = false;
    {
      const std::scoped_lock lock(mutex_);
      const auto it = sweeps_.find(id);
      known = it != sweeps_.end();
      if (known) sweep = it->second.handle;
    }
    if (!known) {
      send_error("cancel: unknown sweep id '" + id + "'");
      return false;
    }
    // A finished sweep holds no handle any more; cancelling it is a no-op.
    if (sweep != nullptr) backend_->cancel(*sweep);
    return false;
  }
  if (op == "submit") {
    std::string id = request->get_string("id");
    if (id.empty()) id = "job-" + std::to_string(++auto_id_);
    // Drain mode (docs/robustness.md): the server is shutting down —
    // in-flight work finishes, new work is turned away.
    if (options_.draining != nullptr &&
        options_.draining->load(std::memory_order_acquire)) {
      send_error("submit: server is draining; resubmit elsewhere", id);
      return false;
    }
    support::SubmitRequest submit;
    try {
      submit = support::parse_submit_request(*request, id,
                                             options_.default_deadline_ms);
    } catch (const Error& e) {
      send_error(e.what(), id);
      return false;
    }
    handle_submit(submit);
    return false;
  }
  send_error("unknown op '" + op + "'");
  return false;
}

void JobProtocolSession::handle_submit(
    const support::SubmitRequest& request) {
  bool reused = false;
  bool active = false;
  {
    const std::scoped_lock lock(mutex_);
    auto [it, inserted] = sweeps_.try_emplace(request.id);
    reused = !inserted;
    active = it->second.running;
    if (!active) {
      it->second.running = true;
      ++unfinished_;
    }
  }
  if (active) {
    send_error("submit: sweep id '" + request.id + "' is still active",
               request.id);
    return;
  }
  std::shared_ptr<support::SweepHandle> sweep;
  try {
    sweep = backend_->submit_sweep(
        request, [this, id = request.id](const std::string& line,
                                         support::SweepLine kind) {
          on_sweep_line(id, line, kind);
        });
  } catch (const std::exception& e) {
    // Rejected whole, nothing emitted: forget the submit.
    {
      const std::scoped_lock lock(mutex_);
      if (reused) {
        sweeps_[request.id].running = false;
      } else {
        sweeps_.erase(request.id);
      }
      --unfinished_;
    }
    send_error(e.what(), request.id);
    return;
  }
  bool running = false;
  {
    const std::scoped_lock lock(mutex_);
    Tracked& tracked = sweeps_[request.id];
    running = tracked.running;  // false: it finished during the submit
    if (running) tracked.handle = sweep;
  }
  // The overflow hook may have fired during the submit, before the handle
  // was registered for it to cancel.
  if (running && writer_->disconnected()) backend_->cancel(*sweep);
}

void JobProtocolSession::on_sweep_line(const std::string& id,
                                       const std::string& line,
                                       support::SweepLine kind) {
  if (kind != SweepLine::sweep_done) {
    send(line, kind == SweepLine::progress
                   ? EventDeliveryClass::droppable
                   : EventDeliveryClass::must_deliver);
    return;
  }
  {
    // Before the post: a client that resubmits the id on seeing
    // sweep_done must not be told it is still active.
    const std::scoped_lock lock(mutex_);
    Tracked& tracked = sweeps_[id];
    tracked.running = false;
    tracked.handle.reset();
  }
  send(line);
  // Last: once unfinished_ reaches 0 drain() may return and the session
  // end, so notify under the lock and touch nothing after it.
  const std::scoped_lock lock(mutex_);
  --unfinished_;
  finished_cv_.notify_all();
}

std::size_t JobProtocolSession::tracked_sweeps() {
  return running_sweeps().size();
}

void JobProtocolSession::send(const std::string& json,
                              EventDeliveryClass cls) {
  // Non-blocking: a rejected post means the session is disconnected or
  // the peer is gone — either way the stream is over.
  (void)writer_->post(json, cls);
}

void JobProtocolSession::send_error(const std::string& message,
                                    const std::string& id) {
  send(support::error_line(message, id));
}

std::vector<std::shared_ptr<support::SweepHandle>>
JobProtocolSession::running_sweeps() {
  std::vector<std::shared_ptr<support::SweepHandle>> running;
  const std::scoped_lock lock(mutex_);
  for (const auto& [id, tracked] : sweeps_)
    if (tracked.handle != nullptr) running.push_back(tracked.handle);
  return running;
}

void JobProtocolSession::cancel_all() {
  for (const auto& sweep : running_sweeps()) backend_->cancel(*sweep);
}

void JobProtocolSession::on_overflow_disconnect() {
  if (options_.traffic != nullptr)
    options_.traffic->overflow_disconnects.fetch_add(
        1, std::memory_order_relaxed);
  // Stop consuming requests: the read loop's blocking read aborts (where
  // the channel supports it) and its loop condition re-checks
  // writer_->disconnected() either way.
  channel_->shutdown_read();
  // The client will never see this session's remaining results; cancel
  // its sweeps so they stop consuming shared workers. Their events are
  // rejected at the (disconnected) queue, and drain() stays prompt.
  cancel_all();
}

void JobProtocolSession::drain() {
  const auto all_posted = [this] { return unfinished_ == 0; };
  std::unique_lock lock(mutex_);
  // Bounded drain (docs/robustness.md): once the server is draining,
  // in-flight sweeps get --drain-timeout-ms collectively; whatever still
  // runs at the deadline is cancelled (cooperative — it lands within one
  // progress tick, so the unconditional wait below stays prompt).
  if (options_.drain_timeout_ms > 0 && options_.draining != nullptr &&
      options_.draining->load(std::memory_order_acquire) &&
      !finished_cv_.wait_for(
          lock, std::chrono::milliseconds(options_.drain_timeout_ms),
          all_posted)) {
    lock.unlock();
    cancel_all();
    lock.lock();
  }
  finished_cv_.wait(lock, all_posted);
}

// ------------------------------------------------------- ProtocolServer --

namespace {

// SIGTERM → graceful drain (docs/robustness.md): the handler may only
// touch async-signal-safe state, so it takes the listener out of an
// atomic and closes it (shutdown/close), which unblocks the accept loop;
// everything else happens on normal threads.
std::atomic<support::SocketListener*> g_sigterm_listener{nullptr};

extern "C" void close_listener_on_sigterm(int /*signum*/) {
  if (auto* listener = g_sigterm_listener.exchange(nullptr))
    listener->close();
}

}  // namespace

void ProtocolServer::drain_on_sigterm() {
  g_sigterm_listener.store(listener_);
  (void)std::signal(SIGTERM, close_listener_on_sigterm);
  sigterm_hook_ = true;
}

bool ProtocolServer::serve() {
  std::vector<std::thread> sessions;
  while (auto accepted = listener_->accept()) {
    std::shared_ptr<support::FdChannel> conn = std::move(accepted);
    {
      const std::scoped_lock lock(mutex_);
      std::erase_if(live_, [](const auto& weak) { return weak.expired(); });
      live_.push_back(conn);
    }
    sessions.emplace_back([this, conn] {
      if (run_session_(*conn, options_)) {
        // A client-requested shutdown stops the whole server: closing
        // the listener unblocks accept() above.
        shutdown_requested_.store(true);
        listener_->close();
      }
    });
  }
  // Accept loop over — client shutdown op, SIGTERM or sever(). Enter
  // drain mode (new submits are rejected by every session) and stop every
  // session's blocked read so each finishes its in-flight sweeps bounded
  // by --drain-timeout-ms, flushes, and says bye.
  if (sigterm_hook_) {
    g_sigterm_listener.store(nullptr);
    (void)std::signal(SIGTERM, SIG_DFL);
  }
  draining_.store(true);
  {
    const std::scoped_lock lock(mutex_);
    for (const auto& weak : live_)
      if (const auto conn = weak.lock()) conn->shutdown_read();
  }
  for (auto& session : sessions) session.join();
  return shutdown_requested_.load();
}

void ProtocolServer::sever() {
  listener_->close();
  const std::scoped_lock lock(mutex_);
  for (const auto& weak : live_) {
    if (const auto conn = weak.lock()) {
      conn->shutdown_read();
      conn->shutdown_write();
    }
  }
}

}  // namespace iddq::core
