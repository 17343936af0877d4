#include "core/job_service.hpp"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "netlist/circuit_loader.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace iddq::core {

namespace detail {

/// Shared state between the service, the worker executing the job, and
/// every JobHandle copy. `state`/`result` are guarded by `mutex`; the
/// cancel flag is a lock-free atomic so progress-tick polling stays cheap.
struct JobControl {
  std::uint64_t id = 0;
  JobSpec spec;
  JobEventSink sink;

  std::atomic<bool> cancel_requested{false};

  /// Deadline from submit time (queue wait counts against the budget);
  /// unset when spec.deadline_ms == 0. `deadline_expired` records that a
  /// cooperative poll tripped the deadline, distinguishing the resulting
  /// CancelledError from a user cancel.
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
  std::atomic<bool> deadline_expired{false};

  mutable std::mutex mutex;
  mutable std::condition_variable cv;
  JobState state = JobState::queued;
  JobResult result;

  void emit(const JobEvent& event) const {
    if (!sink) return;
    try {
      sink(event);
    } catch (...) {
      // A sink cannot veto or abort a job by throwing (use
      // JobHandle::cancel()): events are emitted from submit callers AND
      // from bare worker threads, where an escaping exception would
      // terminate the process, and from finish(), where it would leave
      // the job permanently non-terminal. Swallowing here makes every
      // lifecycle transition unconditional.
    }
  }

  [[nodiscard]] JobEvent make_event(JobEvent::Kind kind) const {
    JobEvent e;
    e.kind = kind;
    e.job = id;
    e.circuit = spec.circuit;
    return e;
  }

  /// queued -> running; false when the job is already cancelled (the
  /// worker then finalizes without running it).
  [[nodiscard]] bool begin_running() {
    {
      const std::scoped_lock lock(mutex);
      if (cancel_requested.load(std::memory_order_relaxed))
        return false;
      state = JobState::running;
    }
    emit(make_event(JobEvent::Kind::running));
    return true;
  }

  void finish(JobResult&& r) {
    JobEvent::Kind kind;
    switch (r.state) {
      case JobState::done: kind = JobEvent::Kind::done; break;
      case JobState::cancelled: kind = JobEvent::Kind::cancelled; break;
      default: kind = JobEvent::Kind::failed; break;
    }
    JobEvent event = make_event(kind);
    event.error = r.error;
    event.reason = r.reason;
    // Emit the terminal event BEFORE wait() can return: a caller that
    // drains handles and then tears its sink down is guaranteed no event
    // arrives afterwards. (status() may briefly still read `running`
    // while the sink runs; the ordering trade is deliberate.)
    emit(event);
    {
      const std::scoped_lock lock(mutex);
      state = r.state;
      result = std::move(r);
    }
    cv.notify_all();
  }
};

}  // namespace detail

std::uint64_t JobHandle::id() const { return ctl_ ? ctl_->id : 0; }

JobState JobHandle::status() const {
  require(ctl_ != nullptr, "job handle: not attached to a job");
  const std::scoped_lock lock(ctl_->mutex);
  return ctl_->state;
}

void JobHandle::cancel() {
  require(ctl_ != nullptr, "job handle: not attached to a job");
  ctl_->cancel_requested.store(true, std::memory_order_relaxed);
}

const JobResult& JobHandle::wait() const {
  require(ctl_ != nullptr, "job handle: not attached to a job");
  std::unique_lock lock(ctl_->mutex);
  ctl_->cv.wait(lock, [this] { return is_terminal(ctl_->state); });
  return ctl_->result;
}

bool JobHandle::wait_for(std::chrono::milliseconds timeout) const {
  require(ctl_ != nullptr, "job handle: not attached to a job");
  std::unique_lock lock(ctl_->mutex);
  return ctl_->cv.wait_for(lock, timeout,
                           [this] { return is_terminal(ctl_->state); });
}

JobService::JobService(const lib::CellLibrary& library, Config config)
    : library_(&library),
      config_(std::move(config)),
      loader_([](const std::string& spec) {
        return netlist::load_circuit(spec);
      }) {
  const std::size_t workers = config_.workers == 0 ? 1 : config_.workers;
  workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    workers_.emplace_back([this] { worker_loop(); });
}

JobService::~JobService() { shutdown(); }

void JobService::set_circuit_loader(CircuitLoader loader) {
  loader_ = std::move(loader);
}

JobHandle JobService::submit(JobSpec spec, JobEventSink sink) {
  require(!spec.methods.empty(), "job spec: needs at least one method");
  auto ctl = std::make_shared<detail::JobControl>();
  ctl->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  ctl->spec = std::move(spec);
  ctl->sink = std::move(sink);
  if (ctl->spec.deadline_ms > 0) {
    ctl->has_deadline = true;
    ctl->deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(ctl->spec.deadline_ms);
  }
  // Invariant for callers: once the job is announced (queued emitted),
  // ANY failure to queue it — a closed queue after shutdown, an
  // exception while queueing — finalizes it as failed, so the sink
  // always sees a queued -> terminal pair (sink-thrown exceptions are
  // swallowed by emit and cannot break this). JobProtocolSession's sweep
  // accounting relies on exactly this: a submit that throws has either
  // announced-and-finalized the job, or (a throw before this point)
  // produced no events at all.
  const auto finalize_failed = [&ctl](const char* error) {
    JobResult result;
    result.circuit = ctl->spec.circuit;
    result.error = error;
    result.state = JobState::failed;
    ctl->finish(std::move(result));
  };
  bool finalized = false;
  try {
    ctl->emit(ctl->make_event(JobEvent::Kind::queued));
    if (!queue_.push(ctl, ctl->spec.priority)) {
      finalize_failed("job service: submit after shutdown");
      finalized = true;
      throw Error("job service: submit after shutdown");
    }
  } catch (const std::exception& e) {
    // Covers e.g. allocation failure building the event: the queued ->
    // terminal pairing must hold on every failure path.
    if (!finalized) finalize_failed(e.what());
    throw;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  return JobHandle(ctl);
}

bool JobService::try_reserve(std::size_t count, std::size_t max_queue) {
  if (max_queue == 0) return true;
  const std::scoped_lock lock(admission_mutex_);
  // Workers only ever shrink the queue between this read and the
  // reserved submits, so the check is a safe upper bound.
  if (queue_.size() + reserved_ + count > max_queue) return false;
  reserved_ += count;
  return true;
}

void JobService::release_reservation(std::size_t count) {
  const std::scoped_lock lock(admission_mutex_);
  reserved_ -= std::min(reserved_, count);
}

void JobService::shutdown() {
  if (shut_down_.exchange(true)) {
    // Second caller (e.g. the destructor after an explicit shutdown):
    // workers are already joined or being joined by the first caller.
    return;
  }
  queue_.close();
  for (auto& t : workers_)
    if (t.joinable()) t.join();
}

void JobService::worker_loop() {
  while (auto ctl = queue_.pop()) execute(**ctl);
}

void JobService::execute(detail::JobControl& job) {
  JobResult result;
  result.circuit = job.spec.circuit;

  if (!job.begin_running()) {
    // Cancelled while still queued: never ran.
    result.state = JobState::cancelled;
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    job.finish(std::move(result));
    return;
  }

  try {
    const netlist::Netlist nl = loader_(job.spec.circuit);
    FlowEngineConfig flow = config_.flow;
    if (job.spec.cache_policy == JobSpec::CachePolicy::bypass)
      flow.cache = nullptr;
    FlowEngine engine(nl, *library_, flow);
    result.plan = engine.plan();

    FlowSequenceOptions sequence;
    sequence.max_evaluations = job.spec.max_evaluations;
    // One cooperative stop signal serves both cancel and deadline: the
    // engine already polls this before each method and at every progress
    // tick, so an expired deadline lands exactly where a cancel would —
    // no second mechanism, no preemption (docs/robustness.md).
    sequence.cancelled = [&job] {
      if (job.cancel_requested.load(std::memory_order_relaxed)) return true;
      if (job.has_deadline &&
          std::chrono::steady_clock::now() >= job.deadline) {
        job.deadline_expired.store(true, std::memory_order_relaxed);
        return true;
      }
      return false;
    };
    // Chain rather than replace the config's default progress sink: the
    // service's event emitter would otherwise shadow it (run_method gives
    // per-run callbacks precedence), silencing e.g. the CLI's --progress
    // ticker for every run of an `iddqsyn --jobs` sweep.
    const ProgressCallback config_progress = flow.on_progress;
    sequence.on_progress = [&job,
                            config_progress](const OptimizerProgress& p) {
      JobEvent event = job.make_event(JobEvent::Kind::progress);
      event.method = std::string(p.method);
      event.iteration = p.iteration;
      event.evaluations = p.evaluations;
      event.best = p.best;
      job.emit(event);
      if (config_progress) config_progress(p);
    };
    // Rows accumulate here (not from the return value) so a job that is
    // cancelled or fails mid-sequence still surfaces its finished prefix.
    sequence.on_row = [&job, &result](std::size_t index,
                                      const MethodResult& row) {
      result.rows.push_back(row);
      JobEvent event = job.make_event(JobEvent::Kind::row);
      event.row_index = index;
      event.row = std::make_shared<const MethodResult>(row);
      job.emit(event);
    };

    (void)engine.run_methods(job.spec.methods, job.spec.base_seed, sequence);
    result.state = JobState::done;
    completed_.fetch_add(1, std::memory_order_relaxed);
  } catch (const CancelledError&) {
    if (job.deadline_expired.load(std::memory_order_relaxed)) {
      result.error = "timeout: exceeded deadline of " +
                     std::to_string(job.spec.deadline_ms) + "ms";
      result.reason = "timeout";
      result.state = JobState::failed;
      failed_.fetch_add(1, std::memory_order_relaxed);
      timeouts_.fetch_add(1, std::memory_order_relaxed);
    } else {
      result.state = JobState::cancelled;
      cancelled_.fetch_add(1, std::memory_order_relaxed);
    }
  } catch (const std::exception& e) {
    result.error = e.what();
    result.state = JobState::failed;
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
  job.finish(std::move(result));
}

std::uint64_t JobService::submitted() const noexcept {
  return submitted_.load(std::memory_order_relaxed);
}
std::uint64_t JobService::completed() const noexcept {
  return completed_.load(std::memory_order_relaxed);
}
std::uint64_t JobService::failed() const noexcept {
  return failed_.load(std::memory_order_relaxed);
}
std::uint64_t JobService::cancelled() const noexcept {
  return cancelled_.load(std::memory_order_relaxed);
}
std::uint64_t JobService::timeouts() const noexcept {
  return timeouts_.load(std::memory_order_relaxed);
}

}  // namespace iddq::core
