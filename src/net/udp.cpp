#include "net/udp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <system_error>

namespace hds::net {

namespace {

sockaddr_in to_sockaddr(const UdpEndpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  if (inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
    throw std::system_error(EINVAL, std::generic_category(),
                            "UdpSocket: bad IPv4 address " + ep.host);
  }
  return addr;
}

[[noreturn]] void fail(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

Waker::Waker() : fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (fd_ < 0) fail("Waker: eventfd");
}

Waker::~Waker() { ::close(fd_); }

void Waker::notify() {
  const std::uint64_t one = 1;
  // Can only fail when the counter would overflow, i.e. a wakeup is pending.
  (void)!::write(fd_, &one, sizeof one);
}

UdpSocket::~UdpSocket() { close(); }

void UdpSocket::open(const UdpEndpoint& ep, int recv_timeout_ms) {
  if (fd_ >= 0) throw std::logic_error("UdpSocket: already open");
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) fail("UdpSocket: socket");
  // A burst of n^2 reply broadcasts can outrun a default-sized buffer;
  // ask for headroom (the kernel may clamp; best effort).
  const int rcvbuf = 1 << 21;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  timeval tv{};
  tv.tv_sec = recv_timeout_ms / 1000;
  tv.tv_usec = (recv_timeout_ms % 1000) * 1000;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  sockaddr_in addr = to_sockaddr(ep);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    close();
    throw std::system_error(err, std::generic_category(),
                            "UdpSocket: bind " + ep.host + ":" + std::to_string(ep.port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) fail("getsockname");
  local_port_ = ntohs(bound.sin_port);
}

void UdpSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool UdpSocket::send_to(const UdpEndpoint& ep, const std::uint8_t* data, std::size_t len) {
  if (fd_ < 0) return false;
  sockaddr_in addr = to_sockaddr(ep);
  const ssize_t n =
      ::sendto(fd_, data, len, 0, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  return n == static_cast<ssize_t>(len);
}

std::optional<std::size_t> UdpSocket::recv(std::vector<std::uint8_t>& buf) {
  if (fd_ < 0) return std::nullopt;
  buf.resize(64 * 1024);
  const ssize_t n = ::recvfrom(fd_, buf.data(), buf.size(), 0, nullptr, nullptr);
  if (n < 0) return std::nullopt;  // timeout or transient error: caller re-polls
  buf.resize(static_cast<std::size_t>(n));
  return static_cast<std::size_t>(n);
}

std::optional<std::size_t> UdpSocket::recv_from(std::vector<std::uint8_t>& buf, UdpEndpoint& from) {
  if (fd_ < 0) return std::nullopt;
  buf.resize(64 * 1024);
  sockaddr_in peer{};
  socklen_t peer_len = sizeof(peer);
  const ssize_t n =
      ::recvfrom(fd_, buf.data(), buf.size(), 0, reinterpret_cast<sockaddr*>(&peer), &peer_len);
  if (n < 0) return std::nullopt;
  buf.resize(static_cast<std::size_t>(n));
  char host[INET_ADDRSTRLEN] = {};
  if (inet_ntop(AF_INET, &peer.sin_addr, host, sizeof(host)) != nullptr) from.host = host;
  from.port = ntohs(peer.sin_port);
  return static_cast<std::size_t>(n);
}

std::optional<std::size_t> UdpSocket::try_recv(std::vector<std::uint8_t>& buf) {
  if (fd_ < 0) return std::nullopt;
  if (buf.size() < 64 * 1024) buf.resize(64 * 1024);
  const ssize_t n = ::recvfrom(fd_, buf.data(), buf.size(), MSG_DONTWAIT, nullptr, nullptr);
  if (n < 0) return std::nullopt;  // nothing queued, or a transient error
  return static_cast<std::size_t>(n);
}

bool UdpSocket::wait(Waker& waker, std::chrono::steady_clock::time_point deadline) {
  pollfd fds[2] = {{fd_, POLLIN, 0}, {waker.fd_, POLLIN, 0}};
  timespec ts{};
  timespec* timeout = nullptr;
  if (deadline != std::chrono::steady_clock::time_point::max()) {
    const auto ns = std::max<std::int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(
               deadline - std::chrono::steady_clock::now())
               .count());
    ts.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(ns % 1'000'000'000);
    timeout = &ts;
  }
  if (::ppoll(fds, 2, timeout, nullptr) <= 0) return false;  // deadline, or a signal
  if ((fds[1].revents & POLLIN) != 0) {
    std::uint64_t count = 0;
    (void)!::read(waker.fd_, &count, sizeof count);
  }
  return (fds[0].revents & POLLIN) != 0;
}

}  // namespace hds::net
