// Minimal POSIX UDP socket wrapper (IPv4), enough for the cluster
// substrate: bind, sendto, recvfrom-with-timeout, and a readiness wait that
// another thread can interrupt (the NetSystem event loop). Throws
// std::system_error on setup failures; data-path errors are returned, not
// thrown (a dropped datagram is a normal event for this transport).
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace hds::net {

struct UdpEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  friend bool operator==(const UdpEndpoint&, const UdpEndpoint&) = default;
};

// Interrupts UdpSocket::wait from any thread (an eventfd). Notifications
// coalesce: any number of notify() calls before the waiter runs wake it once.
class Waker {
 public:
  Waker();  // throws std::system_error
  ~Waker();

  Waker(const Waker&) = delete;
  Waker& operator=(const Waker&) = delete;

  void notify();

 private:
  friend class UdpSocket;
  int fd_ = -1;
};

class UdpSocket {
 public:
  UdpSocket() = default;
  ~UdpSocket();

  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  // Binds to `ep` (port 0 = ephemeral; local_port() reports the outcome)
  // and arms a receive timeout so recv() polls rather than blocks forever.
  void open(const UdpEndpoint& ep, int recv_timeout_ms = 100);
  void close();
  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  [[nodiscard]] std::uint16_t local_port() const { return local_port_; }

  // True when the full datagram was handed to the kernel. Oversized or
  // transient failures return false (counted by the caller as wire loss).
  bool send_to(const UdpEndpoint& ep, const std::uint8_t* data, std::size_t len);

  // One datagram, or nullopt on timeout / transient error. `buf` is resized
  // to the received length (max 64 KiB).
  std::optional<std::size_t> recv(std::vector<std::uint8_t>& buf);

  // Same, also reporting the sender — for request/response services (the
  // admin channel) that must address a reply.
  std::optional<std::size_t> recv_from(std::vector<std::uint8_t>& buf, UdpEndpoint& from);

  // Non-blocking: one pending datagram, or nullopt when none is queued.
  // `buf` is grown to 64 KiB once and never shrunk; the datagram occupies
  // its first (returned) bytes.
  std::optional<std::size_t> try_recv(std::vector<std::uint8_t>& buf);

  // Blocks until a datagram is readable, `waker` is notified, or `deadline`
  // passes (time_point::max() waits without a deadline), at nanosecond
  // resolution. Consumes the notification; returns whether a datagram is
  // readable.
  bool wait(Waker& waker, std::chrono::steady_clock::time_point deadline);

 private:
  int fd_ = -1;
  std::uint16_t local_port_ = 0;
};

}  // namespace hds::net
