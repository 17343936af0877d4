#include "support/transport.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>

#include "support/error.hpp"
#include "support/fault_plan.hpp"

namespace iddq::support {

namespace {

// A peer that disconnects mid-stream must surface as write_line() == false,
// not as a process-killing SIGPIPE. MSG_NOSIGNAL covers the socket sends;
// this covers any remaining pipe writes (pipe-mode stdout).
void ignore_sigpipe_once() {
  static const bool done = [] {
    std::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)done;
}

sockaddr_un make_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw Error("unix socket path too long: '" + path + "'");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// getaddrinfo wrapper shared by the TCP listener and connector. Throws
/// with the endpoint in the message; the caller frees via the guard.
struct AddrInfoGuard {
  addrinfo* info = nullptr;
  ~AddrInfoGuard() {
    if (info != nullptr) ::freeaddrinfo(info);
  }
};

void resolve_tcp(const std::string& host, std::uint16_t port, bool listening,
                 AddrInfoGuard& out) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_protocol = IPPROTO_TCP;
  if (listening) hints.ai_flags = AI_PASSIVE;
  const std::string port_text = std::to_string(port);
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               port_text.c_str(), &hints, &out.info);
  if (rc != 0)
    throw Error("tcp: cannot resolve '" + host + ":" + port_text +
                "': " + ::gai_strerror(rc));
}

/// Fault-plan hooks (docs/robustness.md). Both are no-ops — one atomic
/// load — unless a plan is armed.
void tag_accepted_channel(FdChannel& conn, const std::string& endpoint) {
  if (const FaultPlan* plan = FaultPlan::active())
    conn.apply_fault_plan(*plan, "accept:" + endpoint);
}

void check_connect_refusal(const std::string& endpoint) {
  if (const FaultPlan* plan = FaultPlan::active()) {
    if (plan->refuse_connect(endpoint))
      throw Error("fault plan: refused connect to '" + endpoint + "'");
  }
}

void tag_connected_channel(FdChannel& conn, const std::string& endpoint) {
  if (const FaultPlan* plan = FaultPlan::active())
    conn.apply_fault_plan(*plan, "connect:" + endpoint);
}

std::uint16_t bound_port(int fd) {
  sockaddr_storage addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0)
    return 0;
  if (addr.ss_family == AF_INET)
    return ntohs(reinterpret_cast<const sockaddr_in*>(&addr)->sin_port);
  if (addr.ss_family == AF_INET6)
    return ntohs(reinterpret_cast<const sockaddr_in6*>(&addr)->sin6_port);
  return 0;
}

}  // namespace

bool StreamChannel::read_line(std::string& out) {
  ignore_sigpipe_once();
  if (read_shut_.load()) return false;
  return static_cast<bool>(std::getline(*in_, out));
}

bool StreamChannel::write_line(std::string_view line) {
  ignore_sigpipe_once();
  if (write_shut_.load()) return false;
  (*out_) << line << '\n';
  out_->flush();
  return static_cast<bool>(*out_);
}

FdChannel::~FdChannel() {
  if (fd_ >= 0) ::close(fd_);
}

bool FdChannel::read_line(std::string& out) {
  while (true) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      out.assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) {
      // EOF: a final unterminated line is delivered once.
      if (buffer_.empty()) return false;
      out = std::move(buffer_);
      buffer_.clear();
      return true;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool FdChannel::write_line(std::string_view line) {
  if (fault_drop_after_ != 0 || fault_stall_line_ != 0) {
    ++lines_written_;
    if (lines_written_ == fault_stall_line_ && fault_stall_ms_ > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(fault_stall_ms_));
    if (fault_drop_after_ != 0 && lines_written_ > fault_drop_after_) {
      // The scripted "crash": tear the whole connection down so the peer
      // sees EOF after exactly fault_drop_after_ lines.
      shutdown_write();
      return false;
    }
  }
  std::string framed(line);
  framed += '\n';
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void FdChannel::apply_fault_plan(const FaultPlan& plan,
                                 std::string_view tag) {
  const FaultPlan::ChannelFaults faults = plan.channel_faults(tag);
  fault_drop_after_ = faults.drop_after_lines;
  fault_stall_line_ = faults.stall_line;
  fault_stall_ms_ = faults.stall_ms;
}

void FdChannel::shutdown_read() {
  // Unblocks a concurrent blocked ::read (returns 0 = EOF) and makes
  // every later read see EOF. Errors (already-shut, not-connected) are
  // fine — the goal state is "reads fail", which they then do.
  if (fd_ >= 0) (void)::shutdown(fd_, SHUT_RD);
}

void FdChannel::shutdown_write() {
  // SHUT_RDWR rather than SHUT_WR: a writer blocked in send() because the
  // peer stopped draining is only reliably woken by the full shutdown,
  // and by the time the event writer aborts output the session has
  // stopped reading this channel anyway (shutdown_read came first).
  if (fd_ >= 0) (void)::shutdown(fd_, SHUT_RDWR);
}

UnixSocketListener::UnixSocketListener(const std::string& path)
    : path_(path) {
  ignore_sigpipe_once();
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0)
    throw Error(std::string("unix socket: ") + std::strerror(errno));
  const sockaddr_un addr = make_address(path_);
  ::unlink(path_.c_str());  // a stale socket file from a dead server
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw Error("unix socket: cannot bind '" + path_ + "': " + reason);
  }
  if (::listen(fd, 16) < 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    ::unlink(path_.c_str());
    throw Error("unix socket: cannot listen on '" + path_ + "': " + reason);
  }
  fd_.store(fd);
}

UnixSocketListener::~UnixSocketListener() { close(); }

std::unique_ptr<FdChannel> UnixSocketListener::accept() {
  while (true) {
    const int fd = fd_.load();
    if (fd < 0) return nullptr;
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn >= 0) {
      auto channel = std::make_unique<FdChannel>(conn);
      tag_accepted_channel(*channel, path_);
      return channel;
    }
    if (errno == EINTR) continue;
    return nullptr;  // closed under us, or unrecoverable
  }
}

void UnixSocketListener::close() {
  // Exactly one caller wins the exchange, so a shutdown-requesting session
  // thread and the destructor can both call close() without double-closing
  // (and without ever closing an fd number the kernel has recycled).
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    // shutdown() unblocks a concurrent accept() before the close.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
    ::unlink(path_.c_str());
  }
}

TcpSocketListener::TcpSocketListener(const std::string& host,
                                     std::uint16_t port)
    : host_(host) {
  ignore_sigpipe_once();
  AddrInfoGuard resolved;
  resolve_tcp(host_, port, /*listening=*/true, resolved);
  std::string last_error = "no addresses resolved";
  for (const addrinfo* ai = resolved.info; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = std::strerror(errno);
      continue;
    }
    const int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) < 0 || ::listen(fd, 64) < 0) {
      last_error = std::strerror(errno);
      ::close(fd);
      continue;
    }
    port_ = bound_port(fd);
    fd_.store(fd);
    return;
  }
  throw Error("tcp: cannot listen on '" + host_ + ":" +
              std::to_string(port) + "': " + last_error);
}

TcpSocketListener::~TcpSocketListener() { close(); }

std::unique_ptr<FdChannel> TcpSocketListener::accept() {
  while (true) {
    const int fd = fd_.load();
    if (fd < 0) return nullptr;
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn >= 0) {
      // Event lines are small and latency-sensitive; never batch them.
      const int one = 1;
      (void)::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto channel = std::make_unique<FdChannel>(conn);
      tag_accepted_channel(*channel, endpoint());
      return channel;
    }
    if (errno == EINTR) continue;
    return nullptr;
  }
}

void TcpSocketListener::close() {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

std::string TcpSocketListener::endpoint() const {
  return host_ + ":" + std::to_string(port_);
}

std::unique_ptr<FdChannel> connect_unix_socket(const std::string& path) {
  ignore_sigpipe_once();
  check_connect_refusal(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0)
    throw Error(std::string("unix socket: ") + std::strerror(errno));
  const sockaddr_un addr = make_address(path);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw Error("unix socket: cannot connect to '" + path + "': " + reason);
  }
  auto channel = std::make_unique<FdChannel>(fd);
  tag_connected_channel(*channel, path);
  return channel;
}

std::unique_ptr<FdChannel> connect_tcp(const std::string& host,
                                       std::uint16_t port) {
  ignore_sigpipe_once();
  if (port == 0) throw Error("tcp: cannot connect to port 0");
  const std::string endpoint = host + ":" + std::to_string(port);
  check_connect_refusal(endpoint);
  AddrInfoGuard resolved;
  resolve_tcp(host, port, /*listening=*/false, resolved);
  std::string last_error = "no addresses resolved";
  for (const addrinfo* ai = resolved.info; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = std::strerror(errno);
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      const int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto channel = std::make_unique<FdChannel>(fd);
      tag_connected_channel(*channel, endpoint);
      return channel;
    }
    last_error = std::strerror(errno);
    ::close(fd);
  }
  throw Error("tcp: cannot connect to '" + host + ":" +
              std::to_string(port) + "': " + last_error);
}

std::unique_ptr<FdChannel> connect_endpoint(const std::string& spec) {
  if (const auto tcp = parse_host_port(spec))
    return connect_tcp(tcp->first, tcp->second);
  return connect_unix_socket(spec);
}

std::optional<std::pair<std::string, std::uint16_t>> parse_host_port(
    std::string_view spec, bool allow_port_zero) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 == spec.size())
    return std::nullopt;
  const std::string_view port_text = spec.substr(colon + 1);
  unsigned port = 0;
  const auto [end, ec] = std::from_chars(
      port_text.data(), port_text.data() + port_text.size(), port);
  if (ec != std::errc{} || end != port_text.data() + port_text.size() ||
      (port == 0 && !allow_port_zero) || port > 65535)
    return std::nullopt;
  return std::make_pair(std::string(spec.substr(0, colon)),
                        static_cast<std::uint16_t>(port));
}

}  // namespace iddq::support
