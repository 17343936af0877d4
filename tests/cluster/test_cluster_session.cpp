// The cluster front-end's sessions are the job server's: one
// JobProtocolSession, here over an in-process ClusterClient fanning out to
// TestBackends, must answer a script the way a direct server session does
// — a silent cancel of a finished sweep, a pong that echoes the ping's id,
// a drained bye on shutdown and SIGTERM, and no finished sweep kept.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/cluster_client.hpp"
#include "core/job_protocol.hpp"
#include "library/cell_library.hpp"
#include "library/fingerprint.hpp"
#include "support/json.hpp"
#include "support/transport.hpp"
#include "test_backend.hpp"

namespace iddq::cluster {
namespace {

/// Hands out its request lines one by one; every line after the first
/// only once each submit read so far has its sweep_done written, so the
/// script acts on finished sweeps. `hook` runs on the session thread just
/// before line i > 0 is handed out.
class ScriptChannel final : public support::LineChannel {
 public:
  ScriptChannel(std::vector<std::string> lines,
                std::function<void(std::size_t)> hook)
      : lines_(std::move(lines)), hook_(std::move(hook)) {}

  bool read_line(std::string& out) override {
    if (next_ == lines_.size()) return false;
    if (next_ > 0) {
      std::unique_lock lock(mutex_);
      if (!cv_.wait_for(lock, std::chrono::seconds(60),
                        [this] { return sweeps_done_ >= submits_read_; }))
        return false;
      lock.unlock();
      hook_(next_);
    }
    out = lines_[next_++];
    if (kind_of_op(out) == "submit") ++submits_read_;
    return true;
  }
  bool write_line(std::string_view line) override {
    const std::scoped_lock lock(mutex_);
    written_.emplace_back(line);
    if (kind_of(written_.back()) == "sweep_done") {
      ++sweeps_done_;
      cv_.notify_all();
    }
    return true;
  }
  std::vector<std::string> written() {
    const std::scoped_lock lock(mutex_);
    return written_;
  }

 private:
  static std::string kind_of_op(const std::string& line) {
    const auto request = json::JsonValue::parse(line);
    return request ? request->get_string("op") : "";
  }

  std::vector<std::string> lines_;
  std::function<void(std::size_t)> hook_;
  std::size_t next_ = 0;          // session thread only
  std::size_t submits_read_ = 0;  // session thread only
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t sweeps_done_ = 0;
  std::vector<std::string> written_;
};

const std::vector<std::string> kScript{
    R"({"op":"submit","id":"t","circuits":["ca","cb","cc"],)"
    R"("methods":["evolution","standard"],"seed":42})",
    R"({"op":"cancel","id":"t"})",
    R"({"op":"ping","id":"p"})",
    R"({"op":"stats"})",
    R"({"op":"shutdown"})"};

/// kScript's run through one session: its output, how many sweeps the
/// session still held before each later line, and its run() result.
struct ScriptRun {
  std::vector<std::string> lines;
  std::vector<std::size_t> tracked;
  bool shutdown = false;
};

/// Runs kScript through a session over `backend` (a JobService or a
/// ClusterClient).
template <typename Backend>
ScriptRun run_script(Backend& backend) {
  ScriptRun run;
  core::JobProtocolSession* session_ptr = nullptr;
  ScriptChannel channel(kScript, [&](std::size_t) {
    run.tracked.push_back(session_ptr->tracked_sweeps());
  });
  core::JobProtocolSession session(backend, channel);
  session_ptr = &session;
  run.shutdown = session.run();
  run.lines = channel.written();
  return run;
}

std::set<std::string> field_names(const std::string& line) {
  std::set<std::string> names;
  const auto event = json::JsonValue::parse(line);
  if (event)
    for (const auto& [key, value] : event->members()) names.insert(key);
  return names;
}

std::vector<std::string> of_kind(const std::vector<std::string>& lines,
                                 const std::string& kind) {
  std::vector<std::string> out;
  for (const auto& line : lines)
    if (kind_of(line) == kind) out.push_back(line);
  return out;
}

/// The sweep's lines, sorted: rows, lifecycle and sweep_done are unique
/// per (circuit, kind, index), so sorted equality is stream equality up
/// to schedule. Progress ticks are droppable and left out.
std::vector<std::string> sweep_lines(const std::vector<std::string>& lines) {
  static const std::set<std::string> kinds{
      "accepted", "queued", "running",   "row",
      "done",     "failed", "cancelled", "sweep_done"};
  std::vector<std::string> out;
  for (const auto& line : lines)
    if (kinds.contains(kind_of(line))) out.push_back(line);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ClusterSession, FrontEndAnswersTheScriptLikeADirectServer) {
  const auto library = lib::default_library();
  const auto direct_service = make_service(library, synthetic_circuit);
  const ScriptRun direct = run_script(*direct_service);

  TestBackend b1(library, synthetic_circuit);
  TestBackend b2(library, synthetic_circuit);
  ClusterOptions options;
  options.backoff_ms = 5;
  ClusterClient client({b1.endpoint(), b2.endpoint()},
                       lib::library_fingerprint(library), options);
  const ScriptRun front = run_script(client);

  for (const ScriptRun* run : {&direct, &front}) {
    SCOPED_TRACE(run == &direct ? "direct server" : "front-end");
    EXPECT_TRUE(run->shutdown);
    // (a) Cancelling the finished sweep is a silent no-op.
    EXPECT_TRUE(of_kind(run->lines, "error").empty());
    EXPECT_TRUE(of_kind(run->lines, "cancelled").empty());
    // (b) The pong echoes the ping's id.
    const auto pongs = of_kind(run->lines, "pong");
    ASSERT_EQ(pongs.size(), 1u);
    EXPECT_EQ(json::JsonValue::parse(pongs[0])->get_string("id"), "p");
    EXPECT_EQ(of_kind(run->lines, "stats").size(), 1u);
    // (c) A shutdown drains and says bye, last.
    ASSERT_FALSE(run->lines.empty());
    EXPECT_EQ(kind_of(run->lines.back()), "bye");
    // (d) The finished sweep was released before the next line was read.
    EXPECT_EQ(run->tracked, (std::vector<std::size_t>{0, 0, 0, 0}));
  }
  EXPECT_EQ(sweep_lines(front.lines), sweep_lines(direct.lines));
  EXPECT_EQ(of_kind(front.lines, "sweep_done"),
            std::vector<std::string>{
                R"({"event":"sweep_done","id":"t","ok":3,"failed":0,)"
                R"("cancelled":0})"});

  // Each tool keeps its own hello, pong and stats fields.
  EXPECT_EQ(field_names(front.lines.front()),
            (std::set<std::string>{"event", "protocol", "backends"}));
  EXPECT_EQ(field_names(direct.lines.front()),
            (std::set<std::string>{"event", "protocol", "workers"}));
  EXPECT_EQ(field_names(of_kind(front.lines, "pong")[0]),
            (std::set<std::string>{"event", "protocol", "backends",
                                   "backends_alive", "workers", "id"}));
  EXPECT_EQ(field_names(of_kind(direct.lines, "pong")[0]),
            (std::set<std::string>{"event", "protocol", "workers", "id"}));
  EXPECT_TRUE(field_names(of_kind(front.lines, "stats")[0])
                  .contains("per_backend"));
  EXPECT_TRUE(field_names(of_kind(direct.lines, "stats")[0])
                  .contains("queue_stats"));
}

/// A protocol client of a ProtocolServer.
class Client {
 public:
  explicit Client(const std::string& endpoint)
      : channel_(support::connect_endpoint(endpoint)) {}
  void send(const std::string& line) {
    ASSERT_TRUE(channel_->write_line(line));
  }
  /// Reads until an event of `kind` (returned) or EOF (empty).
  std::string read_until(const std::string& kind) {
    std::string line;
    while (channel_->read_line(line)) {
      lines_.push_back(line);
      if (kind_of(line) == kind) return line;
    }
    return "";
  }
  [[nodiscard]] const std::vector<std::string>& lines() const {
    return lines_;
  }

 private:
  std::unique_ptr<support::FdChannel> channel_;
  std::vector<std::string> lines_;
};

/// A front-end on a TCP port over two TestBackends, like iddqsyn_cluster
/// --listen.
struct FrontEnd {
  explicit FrontEnd(const lib::CellLibrary& library)
      : b1(library, synthetic_circuit),
        b2(library, synthetic_circuit),
        client({b1.endpoint(), b2.endpoint()},
               lib::library_fingerprint(library)),
        listener("127.0.0.1", 0),
        server(listener, client, {}) {}

  TestBackend b1;
  TestBackend b2;
  ClusterClient client;
  support::TcpSocketListener listener;
  core::ProtocolServer server;
};

constexpr const char* kSubmit =
    R"({"op":"submit","id":"s","circuits":["ca","cb"],)"
    R"("methods":["evolution","standard"],"seed":7})";

TEST(ClusterSession, ClientShutdownDrainsEverySession) {
  const auto library = lib::default_library();
  FrontEnd front(library);
  bool shutdown = false;
  std::thread serving([&] { shutdown = front.server.serve(); });

  Client busy(front.listener.endpoint());
  busy.read_until("hello");
  busy.send(kSubmit);
  busy.read_until("accepted");
  Client idle(front.listener.endpoint());
  idle.read_until("hello");
  Client stopper(front.listener.endpoint());
  stopper.read_until("hello");
  stopper.send(R"({"op":"shutdown"})");

  // Every session is drained: the busy one finishes its sweep first, and
  // each says bye before its connection closes.
  EXPECT_EQ(stopper.read_until("bye"), R"({"event":"bye"})");
  EXPECT_EQ(idle.read_until("bye"), R"({"event":"bye"})");
  EXPECT_EQ(busy.read_until("bye"), R"({"event":"bye"})");
  const auto done = of_kind(busy.lines(), "sweep_done");
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(json::JsonValue::parse(done[0])->get_u64("ok"), 2u);
  serving.join();
  EXPECT_TRUE(shutdown);
}

TEST(ClusterSession, SigtermDrainsTheFrontEnd) {
  const auto library = lib::default_library();
  FrontEnd front(library);
  front.server.drain_on_sigterm();
  bool shutdown = true;
  std::thread serving([&] { shutdown = front.server.serve(); });

  Client busy(front.listener.endpoint());
  busy.read_until("hello");
  busy.send(kSubmit);
  busy.read_until("accepted");
  ASSERT_EQ(std::raise(SIGTERM), 0);

  EXPECT_EQ(busy.read_until("bye"), R"({"event":"bye"})");
  const auto done = of_kind(busy.lines(), "sweep_done");
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(json::JsonValue::parse(done[0])->get_u64("ok"), 2u);
  serving.join();
  EXPECT_FALSE(shutdown);
}

}  // namespace
}  // namespace iddq::cluster
