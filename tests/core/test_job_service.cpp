#include "core/job_service.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "netlist/gen/random_dag.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"
#include "support/rng.hpp"

namespace iddq::core {
namespace {

// Small synthetic circuits keyed by spec name; "bad" fails in the loader.
netlist::Netlist synthetic_circuit(const std::string& spec) {
  if (spec == "bad") throw Error("synthetic loader: bad circuit");
  const std::size_t gates = 120 + 40 * (spec.back() - 'a');
  return netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic(spec, gates, 10, 5));
}

FlowEngineConfig quick_config() {
  FlowEngineConfig config;
  config.optimizers.es.mu = 3;
  config.optimizers.es.lambda = 3;
  config.optimizers.es.chi = 1;
  config.optimizers.es.max_generations = 10;
  config.optimizers.es.stall_generations = 5;
  config.optimizers.random_samples = 50;
  return config;
}

// A config whose evolution run is effectively unbounded — only
// cancellation ends it. Used to hold a worker busy deterministically.
FlowEngineConfig unbounded_config() {
  FlowEngineConfig config = quick_config();
  config.optimizers.es.max_generations = 1000000;
  config.optimizers.es.stall_generations = 1000000;
  return config;
}

// JobService is pinned (workers capture `this`), so tests hold it by
// pointer.
std::unique_ptr<JobService> make_service(const lib::CellLibrary& library,
                                         std::size_t workers,
                                         FlowEngineConfig config) {
  JobServiceConfig service_config;
  service_config.workers = workers;
  service_config.flow = std::move(config);
  auto service =
      std::make_unique<JobService>(library, std::move(service_config));
  service->set_circuit_loader(synthetic_circuit);
  return service;
}

void expect_rows_identical(const MethodResult& a, const MethodResult& b) {
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.partition, b.partition);
  EXPECT_EQ(a.module_count, b.module_count);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.fitness.violation),
            std::bit_cast<std::uint64_t>(b.fitness.violation));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.fitness.cost),
            std::bit_cast<std::uint64_t>(b.fitness.cost));
  const auto ca = a.costs.as_array();
  const auto cb = b.costs.as_array();
  for (std::size_t i = 0; i < ca.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ca[i]),
              std::bit_cast<std::uint64_t>(cb[i]));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.sensor_area),
            std::bit_cast<std::uint64_t>(b.sensor_area));
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

// Thread-safe event log used to assert ordering across jobs.
struct EventLog {
  std::mutex mutex;
  std::vector<JobEvent> events;

  JobEventSink sink() {
    return [this](const JobEvent& e) {
      const std::scoped_lock lock(mutex);
      events.push_back(e);
    };
  }

  std::vector<JobEvent> snapshot() {
    const std::scoped_lock lock(mutex);
    return events;
  }
};

// Lets a sink (worker thread) safely cancel its own job: the sink blocks
// until the submitter has published the handle.
struct HandleGate {
  std::mutex mutex;
  std::condition_variable cv;
  JobHandle handle;
  bool ready = false;

  void publish(JobHandle h) {
    {
      const std::scoped_lock lock(mutex);
      handle = std::move(h);
      ready = true;
    }
    cv.notify_all();
  }

  JobHandle get() {
    std::unique_lock lock(mutex);
    cv.wait(lock, [this] { return ready; });
    return handle;
  }
};

TEST(JobService, RunsAJobAndStreamsOrderedEvents) {
  const auto library = lib::default_library();
  const auto service = make_service(library, 2, quick_config());

  EventLog log;
  JobSpec spec;
  spec.circuit = "ca";
  spec.methods = {"random", "standard"};
  spec.base_seed = 42;
  JobHandle handle = service->submit(spec, log.sink());
  const JobResult& result = handle.wait();

  EXPECT_EQ(result.state, JobState::done);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(handle.status(), JobState::done);
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0].method, "random");
  EXPECT_EQ(result.rows[1].method, "standard");
  EXPECT_GT(result.plan.module_count, 0u);

  const auto events = log.snapshot();
  ASSERT_GE(events.size(), 4u);
  EXPECT_EQ(events.front().kind, JobEvent::Kind::queued);
  EXPECT_EQ(events[1].kind, JobEvent::Kind::running);
  EXPECT_EQ(events.back().kind, JobEvent::Kind::done);
  // Rows arrive in spec order, before the terminal event, and carry the
  // same payloads as the final result.
  std::vector<const JobEvent*> rows;
  for (const auto& e : events)
    if (e.kind == JobEvent::Kind::row) rows.push_back(&e);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0]->row_index, 0u);
  EXPECT_EQ(rows[1]->row_index, 1u);
  expect_rows_identical(*rows[0]->row, result.rows[0]);
  expect_rows_identical(*rows[1]->row, result.rows[1]);
}

// Submits one job per circuit at the `iddqsyn --jobs` seeds (circuit i at
// mix_seed(base_seed, i)) and waits in argument order, as the CLI does.
std::vector<JobResult> run_sweep(JobService& service,
                                 const std::vector<std::string>& circuits,
                                 const std::vector<std::string>& methods,
                                 std::uint64_t base_seed) {
  std::vector<JobHandle> handles;
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    JobSpec spec;
    spec.circuit = circuits[i];
    spec.methods = methods;
    spec.base_seed = Rng::mix_seed(base_seed, i);
    handles.push_back(service.submit(std::move(spec)));
  }
  std::vector<JobResult> results;
  for (const auto& handle : handles) results.push_back(handle.wait());
  return results;
}

TEST(JobService, SweepMatchesDirectEngineLoop) {
  // The acceptance pin: a sweep on 3 workers must produce byte-identical
  // MethodResult rows to a per-circuit FlowEngine::run_methods loop at
  // mix_seed(base, circuit_index).
  const auto library = lib::default_library();
  const auto config = quick_config();
  const std::vector<std::string> circuits{"ca", "cb", "cc"};
  const std::vector<std::string> methods{"evolution", "random", "standard"};
  const std::uint64_t base_seed = 42;

  const auto service = make_service(library, 3, config);
  const auto items = run_sweep(*service, circuits, methods, base_seed);
  ASSERT_EQ(items.size(), circuits.size());

  for (std::size_t i = 0; i < circuits.size(); ++i) {
    SCOPED_TRACE(circuits[i]);
    const netlist::Netlist nl = synthetic_circuit(circuits[i]);
    FlowEngine engine(nl, library, config);
    const auto expected =
        engine.run_methods(methods, Rng::mix_seed(base_seed, i));

    ASSERT_TRUE(items[i].ok());
    EXPECT_EQ(items[i].circuit, circuits[i]);
    EXPECT_EQ(items[i].plan.module_count, engine.plan().module_count);
    ASSERT_EQ(items[i].rows.size(), expected.size());
    for (std::size_t m = 0; m < expected.size(); ++m) {
      SCOPED_TRACE(methods[m]);
      expect_rows_identical(items[i].rows[m], expected[m]);
    }
  }
}

TEST(JobService, SweepWithSharedPoolMatchesDirectSerialEngineLoop) {
  // The re-pin with intra-run parallelism on: N jobs x M threads share ONE
  // ExecutorPool through FlowEngineConfig, and the rows must still be
  // byte-identical to a plain single-threaded per-circuit engine loop.
  const auto library = lib::default_library();
  support::ExecutorPool pool(3);
  FlowEngineConfig threaded = quick_config();
  threaded.pool = &pool;
  const std::vector<std::string> circuits{"ca", "cb", "cc"};
  const std::vector<std::string> methods{"evolution", "tabu", "standard"};
  const std::uint64_t base_seed = 42;

  const auto service = make_service(library, 3, threaded);
  const auto items = run_sweep(*service, circuits, methods, base_seed);
  ASSERT_EQ(items.size(), circuits.size());

  support::ExecutorPool serial(1);
  FlowEngineConfig serial_config = quick_config();
  serial_config.pool = &serial;
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    SCOPED_TRACE(circuits[i]);
    const netlist::Netlist nl = synthetic_circuit(circuits[i]);
    FlowEngine engine(nl, library, serial_config);
    const auto expected =
        engine.run_methods(methods, Rng::mix_seed(base_seed, i));
    ASSERT_TRUE(items[i].ok());
    ASSERT_EQ(items[i].rows.size(), expected.size());
    for (std::size_t m = 0; m < expected.size(); ++m) {
      SCOPED_TRACE(methods[m]);
      expect_rows_identical(items[i].rows[m], expected[m]);
    }
  }
}

TEST(JobService, TaskFailureIsIsolated) {
  const auto library = lib::default_library();
  const auto service = make_service(library, 2, quick_config());
  const auto items = run_sweep(*service, {"ca", "bad", "cb"}, {"standard"}, 1);
  ASSERT_EQ(items.size(), 3u);
  EXPECT_TRUE(items[0].ok());
  EXPECT_FALSE(items[1].ok());
  EXPECT_NE(items[1].error.find("bad circuit"), std::string::npos);
  EXPECT_TRUE(items[2].ok());
}

TEST(JobService, UnknownMethodIsReportedPerTask) {
  const auto library = lib::default_library();
  const auto service = make_service(library, 1, quick_config());
  const auto items =
      run_sweep(*service, {"ca", "cb"}, {"standard", "no-such-method"}, 1);
  ASSERT_EQ(items.size(), 2u);
  for (const auto& item : items) {
    EXPECT_EQ(item.state, JobState::failed);
    EXPECT_NE(item.error.find("unknown optimizer"), std::string::npos);
  }
}

TEST(JobService, HigherPriorityJobOvertakesQueuedBulkWork) {
  const auto library = lib::default_library();
  const auto service = make_service(library, 1, unbounded_config());

  // Hold the single worker inside an unbounded job so the next submits
  // provably queue up behind it.
  std::mutex mutex;
  std::condition_variable cv;
  bool started = false;
  bool release = false;
  HandleGate gate;
  JobSpec hold;
  hold.circuit = "ca";
  hold.methods = {"evolution"};
  JobHandle hold_handle = service->submit(hold, [&](const JobEvent& e) {
    if (e.kind == JobEvent::Kind::progress) {
      {
        std::unique_lock lock(mutex);
        started = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
      }
      gate.get().cancel();
    }
  });
  gate.publish(hold_handle);
  {
    // Only submit the contenders once the worker is provably inside the
    // hold job, so both genuinely wait in the queue.
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return started; });
  }

  EventLog log;
  JobSpec bulk;
  bulk.circuit = "cb";
  bulk.methods = {"standard"};
  bulk.priority = 0;
  JobHandle bulk_handle = service->submit(bulk, log.sink());

  JobSpec interactive;
  interactive.circuit = "cc";
  interactive.methods = {"standard"};
  interactive.priority = 5;
  JobHandle interactive_handle = service->submit(interactive, log.sink());

  EXPECT_EQ(service->queue_depth(), 2u);
  {
    const std::scoped_lock lock(mutex);
    release = true;
  }
  cv.notify_all();

  (void)hold_handle.wait();
  (void)bulk_handle.wait();
  (void)interactive_handle.wait();
  EXPECT_EQ(bulk_handle.status(), JobState::done);
  EXPECT_EQ(interactive_handle.status(), JobState::done);

  // The interactive submit, though queued second, ran first.
  const auto events = log.snapshot();
  std::size_t interactive_running = events.size();
  std::size_t bulk_running = events.size();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind != JobEvent::Kind::running) continue;
    if (events[i].job == interactive_handle.id()) interactive_running = i;
    if (events[i].job == bulk_handle.id()) bulk_running = i;
  }
  ASSERT_LT(interactive_running, events.size());
  ASSERT_LT(bulk_running, events.size());
  EXPECT_LT(interactive_running, bulk_running);
}

TEST(JobService, ReservationsAdmitAtomicallyAgainstTheBound) {
  // The server's --max-queue admission: two sweeps may not jointly
  // overshoot the bound, reservations are all-or-nothing, and releasing
  // returns the slots.
  const auto library = lib::default_library();
  const auto service = make_service(library, 1, quick_config());

  EXPECT_TRUE(service->try_reserve(100, 0));  // 0 = unbounded, no state
  EXPECT_TRUE(service->try_reserve(3, 4));    // 0 queued + 3 <= 4
  EXPECT_FALSE(service->try_reserve(2, 4));   // 3 reserved + 2 > 4
  EXPECT_TRUE(service->try_reserve(1, 4));    // exactly fills the bound
  EXPECT_FALSE(service->try_reserve(1, 4));
  service->release_reservation(4);
  EXPECT_TRUE(service->try_reserve(4, 4));
  service->release_reservation(4);
  service->release_reservation(1000);  // over-release clamps, no wrap
  EXPECT_TRUE(service->try_reserve(4, 4));
}

TEST(JobService, CancellationLandsMidRun) {
  const auto library = lib::default_library();
  const auto service = make_service(library, 1, unbounded_config());

  EventLog log;
  HandleGate gate;
  std::mutex once_mutex;
  bool cancelled_once = false;
  // Cancel from inside the sink at the first live progress tick — i.e.
  // genuinely mid-run, between two ES generations.
  JobSpec spec;
  spec.circuit = "ca";
  spec.methods = {"evolution", "standard"};
  JobHandle handle = service->submit(spec, [&](const JobEvent& e) {
    {
      const std::scoped_lock lock(log.mutex);
      log.events.push_back(e);
    }
    if (e.kind == JobEvent::Kind::progress) {
      JobHandle self = gate.get();
      const std::scoped_lock lock(once_mutex);
      if (!cancelled_once) {
        self.cancel();
        cancelled_once = true;
      }
    }
  });
  gate.publish(handle);

  const JobResult& result = handle.wait();
  EXPECT_EQ(result.state, JobState::cancelled);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.error.empty());
  // Cancelled during the first method: no row ever completed.
  EXPECT_TRUE(result.rows.empty());
  EXPECT_EQ(handle.status(), JobState::cancelled);

  const auto events = log.snapshot();
  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(events.back().kind, JobEvent::Kind::cancelled);
  bool saw_progress = false;
  for (const auto& e : events)
    if (e.kind == JobEvent::Kind::progress) saw_progress = true;
  EXPECT_TRUE(saw_progress);
}

TEST(JobService, CancelWhileQueuedNeverRuns) {
  const auto library = lib::default_library();
  const auto service = make_service(library, 1, unbounded_config());

  // Gate the single worker inside job A until B has been cancelled, so B
  // is provably still queued when the cancel lands.
  std::mutex mutex;
  std::condition_variable cv;
  bool release_a = false;
  HandleGate a_gate;
  JobSpec a_spec;
  a_spec.circuit = "ca";
  a_spec.methods = {"evolution"};
  JobHandle a_handle = service->submit(a_spec, [&](const JobEvent& e) {
    if (e.kind == JobEvent::Kind::progress) {
      {
        std::unique_lock lock(mutex);
        cv.wait(lock, [&] { return release_a; });
      }
      a_gate.get().cancel();  // end A once the assertion window closed
    }
  });
  a_gate.publish(a_handle);

  EventLog b_log;
  JobSpec b_spec;
  b_spec.circuit = "cb";
  b_spec.methods = {"standard"};
  JobHandle b_handle = service->submit(b_spec, b_log.sink());
  EXPECT_EQ(b_handle.status(), JobState::queued);
  b_handle.cancel();
  {
    const std::scoped_lock lock(mutex);
    release_a = true;
  }
  cv.notify_all();

  const JobResult& b_result = b_handle.wait();
  EXPECT_EQ(b_result.state, JobState::cancelled);
  EXPECT_TRUE(b_result.rows.empty());
  (void)a_handle.wait();

  // B never transitioned through running.
  for (const auto& e : b_log.snapshot())
    EXPECT_NE(e.kind, JobEvent::Kind::running);
}

TEST(JobService, OutOfOrderCompletionStreams) {
  const auto library = lib::default_library();
  const auto service = make_service(library, 2, unbounded_config());

  EventLog log;
  JobSpec slow;
  slow.circuit = "ca";
  slow.methods = {"evolution"};  // unbounded until cancelled
  JobHandle slow_handle = service->submit(slow, log.sink());

  JobSpec fast;
  fast.circuit = "cb";
  fast.methods = {"standard"};  // one evaluation
  JobHandle fast_handle = service->submit(fast, log.sink());

  // The fast job, submitted second, finishes first — its events stream
  // while the slow job is still running.
  const JobResult& fast_result = fast_handle.wait();
  EXPECT_EQ(fast_result.state, JobState::done);
  EXPECT_FALSE(is_terminal(slow_handle.status()));

  slow_handle.cancel();
  const JobResult& slow_result = slow_handle.wait();
  EXPECT_EQ(slow_result.state, JobState::cancelled);

  const auto events = log.snapshot();
  std::size_t fast_done_at = events.size();
  std::size_t slow_terminal_at = events.size();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == JobEvent::Kind::done &&
        events[i].job == fast_handle.id())
      fast_done_at = i;
    if (events[i].kind == JobEvent::Kind::cancelled &&
        events[i].job == slow_handle.id())
      slow_terminal_at = i;
  }
  ASSERT_LT(fast_done_at, events.size());
  ASSERT_LT(slow_terminal_at, events.size());
  EXPECT_LT(fast_done_at, slow_terminal_at);
}

TEST(JobService, CacheHitsReplayRepeatJobsByteIdentically) {
  const auto library = lib::default_library();
  ResultCache cache;
  FlowEngineConfig config = quick_config();
  config.cache = &cache;
  const auto service = make_service(library, 2, config);

  JobSpec spec;
  spec.circuit = "ca";
  spec.methods = {"evolution", "standard"};
  spec.base_seed = 7;
  const JobResult first = service->submit(spec).wait();
  ASSERT_TRUE(first.ok());
  const auto misses_after_first = cache.misses();
  EXPECT_GT(misses_after_first, 0u);

  const JobResult second = service->submit(spec).wait();
  ASSERT_TRUE(second.ok());
  EXPECT_GE(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), misses_after_first);
  ASSERT_EQ(second.rows.size(), first.rows.size());
  for (std::size_t i = 0; i < first.rows.size(); ++i)
    expect_rows_identical(second.rows[i], first.rows[i]);

  // A bypass job recomputes from scratch and never consults the cache.
  JobSpec bypass = spec;
  bypass.cache_policy = JobSpec::CachePolicy::bypass;
  const auto hits_before = cache.hits();
  const JobResult third = service->submit(bypass).wait();
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(cache.hits(), hits_before);
  for (std::size_t i = 0; i < first.rows.size(); ++i)
    expect_rows_identical(third.rows[i], first.rows[i]);
}

TEST(JobService, FailedJobCapturesLoaderError) {
  const auto library = lib::default_library();
  const auto service = make_service(library, 1, quick_config());
  EventLog log;
  JobSpec spec;
  spec.circuit = "bad";
  const JobResult result = service->submit(spec, log.sink()).wait();
  EXPECT_EQ(result.state, JobState::failed);
  EXPECT_NE(result.error.find("bad circuit"), std::string::npos);
  const auto events = log.snapshot();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().kind, JobEvent::Kind::failed);
  EXPECT_NE(events.back().error.find("bad circuit"), std::string::npos);
}

TEST(JobService, SubmitAfterShutdownThrows) {
  const auto library = lib::default_library();
  const auto service = make_service(library, 1, quick_config());
  JobSpec spec;
  spec.circuit = "ca";
  spec.methods = {"standard"};
  const JobResult result = service->submit(spec).wait();
  EXPECT_TRUE(result.ok());
  service->shutdown();
  EXPECT_THROW((void)service->submit(spec), Error);
  // The queued -> failed pairing of the rejected submit is pinned by
  // SubmitAfterShutdownStillPairsQueuedWithFailed.
}

TEST(JobService, ThrowingSinkCannotVetoOrCrashAJob) {
  // Sink exceptions are swallowed on every lifecycle path (they would
  // otherwise escape bare worker threads, or leave a job non-terminal
  // when thrown from the terminal emit): the job runs to completion and
  // later events still arrive.
  const auto library = lib::default_library();
  const auto service = make_service(library, 1, quick_config());
  JobSpec spec;
  spec.circuit = "ca";
  spec.methods = {"standard"};
  EventLog log;
  JobHandle handle =
      service->submit(spec, [&log](const JobEvent& e) {
        {
          const std::scoped_lock lock(log.mutex);
          log.events.push_back(e);
        }
        throw Error("sink throws on every event");
      });
  const JobResult& result = handle.wait();
  EXPECT_EQ(result.state, JobState::done);
  ASSERT_EQ(result.rows.size(), 1u);
  const auto events = log.snapshot();
  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(events.front().kind, JobEvent::Kind::queued);
  EXPECT_EQ(events.back().kind, JobEvent::Kind::done);
}

TEST(JobService, SubmitAfterShutdownStillPairsQueuedWithFailed) {
  // The queued -> terminal pairing on the rejection path (what the
  // protocol's sweep accounting relies on): submit against a shut-down
  // service announces, finalizes as failed, then throws.
  const auto library = lib::default_library();
  const auto service = make_service(library, 1, quick_config());
  service->shutdown();
  JobSpec spec;
  spec.circuit = "ca";
  spec.methods = {"standard"};
  std::vector<JobEvent::Kind> seen;
  EXPECT_THROW(
      (void)service->submit(
          spec, [&seen](const JobEvent& e) { seen.push_back(e.kind); }),
      Error);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], JobEvent::Kind::queued);
  EXPECT_EQ(seen[1], JobEvent::Kind::failed);
}

TEST(JobService, DestructionDrainsQueuedJobs) {
  const auto library = lib::default_library();
  std::vector<JobHandle> handles;
  {
    const auto service = make_service(library, 1, quick_config());
    for (int i = 0; i < 4; ++i) {
      JobSpec spec;
      spec.circuit = "ca";
      spec.methods = {"standard"};
      spec.base_seed = static_cast<std::uint64_t>(i);
      handles.push_back(service->submit(spec));
    }
  }  // destructor drains
  for (const auto& handle : handles)
    EXPECT_EQ(handle.status(), JobState::done);
}

TEST(JobService, WaitForTimesOutWhileRunning) {
  const auto library = lib::default_library();
  const auto service = make_service(library, 1, unbounded_config());
  JobSpec spec;
  spec.circuit = "ca";
  spec.methods = {"evolution"};
  JobHandle handle = service->submit(spec);
  EXPECT_FALSE(handle.wait_for(std::chrono::milliseconds(50)));
  handle.cancel();
  EXPECT_TRUE(handle.wait_for(std::chrono::milliseconds(60000)));
  EXPECT_EQ(handle.status(), JobState::cancelled);
}

}  // namespace
}  // namespace iddq::core
