// The cosmicdanced transport: a small POSIX TCP server speaking the
// length-prefixed JSON protocol (wire.hpp) from a bounded set of connection
// workers, and the matching blocking client.
//
// The server owns no query logic — every complete frame is handed to the
// Service (service.hpp) and the response framed back.  Connections are
// independent: each gets its own FrameReader, so partial writes and
// pipelined requests on one socket never affect another.  A framing error
// (oversized length prefix) gets one final error frame, then the connection
// closes — there is no way to resynchronise a byte-exact stream.
//
// Threads: connection workers loop accept → serve → close, one connection
// at a time, until shutdown.  start() launches one, and a worker that
// takes the last idle slot launches another, up to kConnectionWorkers;
// further connections wait in the listen backlog.  So the daemon never
// holds more than kConnectionWorkers threads and stacks however many
// connections it sees, and only as many workers (each with its own
// malloc arena) stay warm as its concurrency needs (DESIGN.md §15).
//
// Lifecycle: construct → start() binds/listens (port 0 picks an ephemeral
// port, readable via port()) → wait() blocks until a client sends the
// "shutdown" op or shutdown() is called → shutdown() closes the listener,
// unblocks every in-flight connection and joins all threads.  shutdown() is
// idempotent and also runs from the destructor.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.hpp"
#include "serve/wire.hpp"

namespace cosmicdance::serve {

class Server {
 public:
  /// Connections served at once.  The largest client count the repository
  /// drives is 9 (micro_serve's 8 clients plus its reloader); further
  /// connections queue in the listen backlog of 64.
  static constexpr std::size_t kConnectionWorkers = 16;

  /// `service` is non-owning and must outlive the server.  `port` 0 binds
  /// an ephemeral port.  Nothing is bound until start().
  Server(Service& service, std::string host, std::uint16_t port);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen and launch the first connection worker.  Throws IoError
  /// when the address cannot be bound.
  void start();

  /// The actual bound port (resolves port-0 binds).  Valid after start().
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Block until a client requests shutdown or shutdown() is called.
  void wait();

  /// Stop accepting, unblock every connection and join the workers.  Safe
  /// to call repeatedly and from the destructor; must not be called from a
  /// connection worker (it joins them).
  void shutdown();

 private:
  void connection_worker();
  void serve_connection(int fd);
  void request_shutdown();

  Service& service_;
  std::string host_;
  std::uint16_t requested_port_;
  std::uint16_t port_ = 0;
  /// Atomic: the workers read it while shutdown() retires it (the exchange
  /// also makes the close-once idempotent across callers).
  std::atomic<int> listen_fd_{-1};

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool shutdown_requested_ = false;
  std::set<int> open_fds_;              ///< live connection sockets
  std::vector<std::thread> workers_;    ///< joined by shutdown()
};

/// Minimal blocking client for tools and tests: one request frame out, one
/// response frame back.  Not thread-safe; use one per thread.
class Client {
 public:
  /// Connects immediately; throws IoError on failure.
  Client(const std::string& host, std::uint16_t port);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send one payload and block for the matching response payload.  Throws
  /// IoError on connection loss or a framing violation from the server.
  [[nodiscard]] std::string request(std::string_view payload);

 private:
  int fd_ = -1;
  FrameReader reader_;
};

}  // namespace cosmicdance::serve
