#include "serve/server.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/error.hpp"

namespace cosmicdance::serve {
namespace {

/// Write the whole buffer, riding out partial sends.  MSG_NOSIGNAL turns a
/// dead peer into an error return instead of SIGPIPE.
bool send_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Resolve host:port for bind (passive=true) or connect.  Throws IoError
/// when resolution fails; the caller owns the returned list.
addrinfo* resolve(const std::string& host, std::uint16_t port, bool passive) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV | (passive ? AI_PASSIVE : 0);
  const std::string service = std::to_string(port);
  addrinfo* result = nullptr;
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               service.c_str(), &hints, &result);
  if (rc != 0) {
    throw IoError("cannot resolve " + host + ":" + service + ": " +
                  ::gai_strerror(rc));
  }
  return result;
}

std::uint16_t bound_port(int fd) {
  sockaddr_storage addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw IoError("getsockname failed: " + std::string(std::strerror(errno)));
  }
  if (addr.ss_family == AF_INET) {
    return ntohs(reinterpret_cast<const sockaddr_in*>(&addr)->sin_port);
  }
  if (addr.ss_family == AF_INET6) {
    return ntohs(reinterpret_cast<const sockaddr_in6*>(&addr)->sin6_port);
  }
  throw IoError("unexpected socket family from getsockname");
}

constexpr std::string_view kFramingErrorPayload =
    "{\"ok\":false,\"error\":\"framing error: length prefix exceeds the "
    "frame ceiling\"}";

}  // namespace

Server::Server(Service& service, std::string host, std::uint16_t port)
    : service_(service), host_(std::move(host)), requested_port_(port) {}

Server::~Server() { shutdown(); }

void Server::start() {
  addrinfo* addrs = resolve(host_, requested_port_, /*passive=*/true);
  int fd = -1;
  std::string last_error = "no addresses resolved";
  for (addrinfo* a = addrs; a != nullptr; a = a->ai_next) {
    fd = ::socket(a->ai_family, a->ai_socktype, a->ai_protocol);
    if (fd < 0) {
      last_error = std::strerror(errno);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, a->ai_addr, a->ai_addrlen) == 0 && ::listen(fd, 64) == 0) {
      break;
    }
    last_error = std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(addrs);
  if (fd < 0) {
    throw IoError("cannot listen on " + host_ + ":" +
                  std::to_string(requested_port_) + ": " + last_error);
  }
  listen_fd_.store(fd);
  port_ = bound_port(fd);
  const std::lock_guard<std::mutex> lock(mutex_);
  workers_.emplace_back([this] { connection_worker(); });
}

void Server::connection_worker() {
  for (;;) {
    const int listener = listen_fd_.load();
    if (listener < 0) return;  // shutdown() retired the listener
    const int fd = ::accept(listener, nullptr, nullptr);
    // shutdown() wakes a blocked accept with an error after retiring the
    // listener, which the check above then sees.  Every other failure is
    // retried: an interrupted call, a connection the peer dropped before
    // it was accepted, or one of the pending network errors Linux reports
    // through accept(2).
    if (fd < 0) continue;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) {
        ::close(fd);
        continue;
      }
      open_fds_.insert(fd);
      // Keep a worker waiting in accept(): when this one took the last idle
      // slot, start another, up to the cap.
      if (open_fds_.size() == workers_.size() &&
          workers_.size() < kConnectionWorkers) {
        workers_.emplace_back([this] { connection_worker(); });
      }
    }
    serve_connection(fd);
  }
}

void Server::serve_connection(int fd) {
  FrameReader reader;
  char buffer[4096];
  bool close_connection = false;
  while (!close_connection) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // peer closed, connection reset, or shutdown() unblocked us
    }
    reader.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    while (auto payload = reader.next()) {
      const HandleResult result = service_.handle(*payload);
      if (!send_all(fd, encode_frame(result.response))) {
        close_connection = true;
        break;
      }
      if (result.shutdown) {
        request_shutdown();
        close_connection = true;
        break;
      }
    }
    if (reader.error()) {
      // One clean error frame, then hang up: a byte-exact stream cannot be
      // resynchronised after a bad length prefix.
      send_all(fd, encode_frame(kFramingErrorPayload));
      close_connection = true;
    }
  }
  {
    // Forget the socket before closing it: once closed, its number can
    // come straight back from another worker's accept().
    const std::lock_guard<std::mutex> lock(mutex_);
    open_fds_.erase(fd);
  }
  ::close(fd);
}

void Server::request_shutdown() {
  std::lock_guard<std::mutex> lock(mutex_);
  shutdown_requested_ = true;
  cv_.notify_all();
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return shutdown_requested_ || stopping_; });
}

void Server::shutdown() {
  std::vector<std::thread> workers;
  int listener = -1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_requested_ = true;
    cv_.notify_all();
    // Only the first call finds work to do; later calls (concurrent or
    // from the destructor) have nothing left to retire or join.
    if (!stopping_) {
      stopping_ = true;
      // Unblock every worker stuck in recv().
      for (const int fd : open_fds_) ::shutdown(fd, SHUT_RDWR);
      workers = std::move(workers_);
      workers_.clear();
      listener = listen_fd_.exchange(-1);
    }
  }
  // Retiring the listener makes every blocked accept() fail, and each
  // worker then finds it retired and exits.  The descriptor is closed only
  // after the join, so no worker can call accept() on a number the process
  // has already reused.
  if (listener >= 0) ::shutdown(listener, SHUT_RDWR);
  for (std::thread& worker : workers) {
    if (worker.joinable()) worker.join();
  }
  if (listener >= 0) ::close(listener);
}

Client::Client(const std::string& host, std::uint16_t port) {
  addrinfo* addrs = resolve(host, port, /*passive=*/false);
  std::string last_error = "no addresses resolved";
  for (addrinfo* a = addrs; a != nullptr; a = a->ai_next) {
    fd_ = ::socket(a->ai_family, a->ai_socktype, a->ai_protocol);
    if (fd_ < 0) {
      last_error = std::strerror(errno);
      continue;
    }
    if (::connect(fd_, a->ai_addr, a->ai_addrlen) == 0) break;
    last_error = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
  }
  ::freeaddrinfo(addrs);
  if (fd_ < 0) {
    throw IoError("cannot connect to " + host + ":" + std::to_string(port) +
                  ": " + last_error);
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

std::string Client::request(std::string_view payload) {
  if (!send_all(fd_, encode_frame(payload))) {
    throw IoError("connection lost while sending request");
  }
  char buffer[4096];
  for (;;) {
    if (auto response = reader_.next()) return *response;
    if (reader_.error()) {
      throw IoError("framing violation in server response");
    }
    const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      throw IoError("connection closed before a response arrived");
    }
    reader_.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
  }
}

}  // namespace cosmicdance::serve
