// Line-delimited transports for the job server (docs/server.md).
//
// The protocol is newline-framed JSON, so the only transport contract is
// "read a line / write a line". Three implementations:
//
//  * StreamChannel — wraps std::istream/std::ostream. Used for the server's
//    pipe mode (stdin/stdout), and by tests over stringstreams.
//  * Unix-domain sockets — UnixSocketListener accepts FdChannel
//    connections; connect_unix_socket() opens the client side. Local-only
//    by construction (filesystem permissions gate access), which is the
//    right scope for a per-host sweep server.
//  * TCP — TcpSocketListener accepts the same FdChannel connections on a
//    host:port endpoint; connect_tcp() opens the client side. This is the
//    containerized-deployment transport: the protocol bytes are identical
//    to the unix-socket path (tests bit-compare the two).
//
// write_line is NOT internally synchronized: concurrent writers (worker
// threads streaming events) must serialize through their own mutex, which
// the per-session event writer (core/event_writer.hpp) does.
//
// Half-shutdown: shutdown_read() / shutdown_write() let one thread abort a
// channel direction another thread is blocked on — the event writer uses
// this to disconnect a session whose reader stalled (docs/server.md,
// "Backpressure"). Both are best-effort on StreamChannel (an istream
// blocked in getline cannot be interrupted portably; the flag makes the
// NEXT call fail) and precise on FdChannel (::shutdown unblocks a blocked
// read/send on Linux sockets).
#pragma once

#include <atomic>
#include <cstdint>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace iddq::support {

class FaultPlan;

class LineChannel {
 public:
  virtual ~LineChannel() = default;

  /// Blocks for the next '\n'-terminated line (terminator stripped).
  /// Returns false on EOF, a broken connection, or after shutdown_read().
  virtual bool read_line(std::string& out) = 0;

  /// Writes `line` plus a terminating '\n' and flushes. Returns false when
  /// the peer is gone (or after shutdown_write()); the caller stops
  /// streaming to this channel.
  virtual bool write_line(std::string_view line) = 0;

  /// Aborts the inbound direction: a pending (where interruptible) and
  /// every future read_line returns false. Thread-safe, idempotent.
  virtual void shutdown_read() {}

  /// Aborts the outbound direction: a blocked (where interruptible) and
  /// every future write_line returns false. Thread-safe, idempotent.
  virtual void shutdown_write() {}
};

/// iostream-backed channel (pipe mode, tests).
class StreamChannel final : public LineChannel {
 public:
  StreamChannel(std::istream& in, std::ostream& out) : in_(&in), out_(&out) {}

  bool read_line(std::string& out) override;
  bool write_line(std::string_view line) override;
  void shutdown_read() override { read_shut_.store(true); }
  void shutdown_write() override { write_shut_.store(true); }

 private:
  std::istream* in_;
  std::ostream* out_;
  std::atomic<bool> read_shut_{false};
  std::atomic<bool> write_shut_{false};
};

/// File-descriptor channel (one accepted socket connection). Owns the fd.
class FdChannel final : public LineChannel {
 public:
  explicit FdChannel(int fd) : fd_(fd) {}
  ~FdChannel() override;

  FdChannel(const FdChannel&) = delete;
  FdChannel& operator=(const FdChannel&) = delete;

  bool read_line(std::string& out) override;
  bool write_line(std::string_view line) override;
  void shutdown_read() override;
  void shutdown_write() override;

  /// Resolves `plan`'s drop/stall rules for `tag` onto this channel
  /// (docs/robustness.md). Listeners tag accepted channels
  /// "accept:<endpoint>", connect_* tags clients "connect:<endpoint>" —
  /// only when a plan is armed, so the per-write fast path stays two
  /// integer compares against zero.
  void apply_fault_plan(const FaultPlan& plan, std::string_view tag);

 private:
  int fd_ = -1;
  std::string buffer_;  // bytes read past the last returned line
  // Armed fault-injection state (all zero unless apply_fault_plan ran).
  std::uint64_t fault_drop_after_ = 0;
  std::uint64_t fault_stall_line_ = 0;
  std::uint64_t fault_stall_ms_ = 0;
  std::uint64_t lines_written_ = 0;
};

/// Accept side of a socket transport. Both the unix-domain and the TCP
/// listener hand out FdChannel connections; the server's accept loop only
/// needs this interface.
class SocketListener {
 public:
  virtual ~SocketListener() = default;

  /// Blocks for the next connection; returns nullptr once close() was
  /// called (or the listener failed).
  [[nodiscard]] virtual std::unique_ptr<FdChannel> accept() = 0;

  /// Unblocks accept(). Safe to call from another thread and repeatedly.
  virtual void close() = 0;

  /// Human-readable bound endpoint (socket path, or host:port with the
  /// actual port when 0 was requested).
  [[nodiscard]] virtual std::string endpoint() const = 0;
};

/// Listening unix-domain socket. The constructor unlinks a stale socket
/// file at `path`, binds, and listens; the destructor closes and unlinks.
/// Throws iddq::Error on any socket-API failure.
class UnixSocketListener final : public SocketListener {
 public:
  explicit UnixSocketListener(const std::string& path);
  ~UnixSocketListener() override;

  UnixSocketListener(const UnixSocketListener&) = delete;
  UnixSocketListener& operator=(const UnixSocketListener&) = delete;

  [[nodiscard]] std::unique_ptr<FdChannel> accept() override;
  void close() override;
  [[nodiscard]] std::string endpoint() const override { return path_; }

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  /// Owned listening fd; -1 once closed. Atomic because close() may be
  /// called from a session thread while accept() runs in the accept loop
  /// (exchange also makes double-close impossible).
  std::atomic<int> fd_{-1};
};

/// Listening TCP socket on `host:port` (IPv4/IPv6 via getaddrinfo;
/// SO_REUSEADDR so restarts do not trip over TIME_WAIT). Port 0 binds an
/// ephemeral port — port() reports the one the kernel picked, which is
/// what tests and `--listen host:0` deployments read back. Throws
/// iddq::Error on resolve/bind/listen failure.
class TcpSocketListener final : public SocketListener {
 public:
  TcpSocketListener(const std::string& host, std::uint16_t port);
  ~TcpSocketListener() override;

  TcpSocketListener(const TcpSocketListener&) = delete;
  TcpSocketListener& operator=(const TcpSocketListener&) = delete;

  [[nodiscard]] std::unique_ptr<FdChannel> accept() override;
  void close() override;
  [[nodiscard]] std::string endpoint() const override;

  [[nodiscard]] const std::string& host() const noexcept { return host_; }
  /// The actually-bound port (resolves a requested port 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  std::string host_;
  std::uint16_t port_ = 0;
  std::atomic<int> fd_{-1};
};

/// Connects to a UnixSocketListener at `path`. Throws iddq::Error when the
/// socket does not exist or refuses the connection.
[[nodiscard]] std::unique_ptr<FdChannel> connect_unix_socket(
    const std::string& path);

/// Connects to a TcpSocketListener at host:port. Throws iddq::Error on
/// resolve failure or a refused connection — a clean client error, never a
/// hang (the kernel's connect timeout bounds unreachable hosts).
[[nodiscard]] std::unique_ptr<FdChannel> connect_tcp(const std::string& host,
                                                     std::uint16_t port);

/// Connects to `spec` using the --submit endpoint convention: TCP when the
/// last ':'-suffix parses as a port (parse_host_port), a unix-domain
/// socket path otherwise. Throws iddq::Error on failure. This is the one
/// place client-side endpoint dispatch lives — the CLI's --submit and the
/// cluster front-end's --backend connections both resolve through it.
[[nodiscard]] std::unique_ptr<FdChannel> connect_endpoint(
    const std::string& spec);

/// Splits "host:port" into its parts when — and only when — the text after
/// the LAST ':' is a valid port number (1..65535). Anything else (a unix
/// socket path, a trailing colon, port 0) returns nullopt, which is how
/// `--submit` and `--backend` distinguish TCP endpoints from socket paths.
/// `allow_port_zero` also accepts port 0, the ephemeral port a listener
/// (`--listen host:0`) asks the kernel for.
[[nodiscard]] std::optional<std::pair<std::string, std::uint16_t>>
parse_host_port(std::string_view spec, bool allow_port_zero = false);

}  // namespace iddq::support
