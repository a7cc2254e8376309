// TCP backend under hostile input: a corrupt frame, an oversized length
// header or a misaddressed envelope must degrade to the paper's fail-silent
// model — the offending inbound link closes, the rank keeps running, and
// frames from every other peer still arrive.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "net/codec.h"
#include "net/tcp_transport.h"
#include "runtime/task_packet.h"
#include "sim/simulator.h"

namespace splice {
namespace {

constexpr std::uint32_t kHelloMagic = 0x53504C43;  // "SPLC"

/// A loopback port nothing listens on right now (bound, read back, freed).
std::uint16_t free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  ::close(fd);
  return ntohs(addr.sin_port);
}

/// Raw peer: dial `port`, introduce as `rank` with the transport's hello.
int dial_as(std::uint16_t port, std::uint32_t rank) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  timeval tv{2, 0};  // the EOF check below must not hang on a live link
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const std::uint32_t hello[2] = {kHelloMagic, rank};
  EXPECT_EQ(::send(fd, hello, sizeof(hello), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(hello)));
  return fd;
}

void send_bytes(int fd, const std::vector<std::uint8_t>& bytes) {
  EXPECT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
}

std::vector<std::uint8_t> header(std::uint32_t body_length) {
  return {static_cast<std::uint8_t>(body_length),
          static_cast<std::uint8_t>(body_length >> 8),
          static_cast<std::uint8_t>(body_length >> 16),
          static_cast<std::uint8_t>(body_length >> 24)};
}

net::Envelope heartbeat(net::ProcId from, net::ProcId to, std::uint64_t seq) {
  net::Envelope env;
  env.kind = net::MsgKind::kHeartbeat;
  env.from = from;
  env.to = to;
  env.payload = runtime::HeartbeatMsg{seq};
  return env;
}

TEST(TcpTransport, HostileFramesCloseOnlyTheirOwnLink) {
  const std::vector<net::TcpPeer> peers = {{"127.0.0.1", free_port()},
                                           {"127.0.0.1", free_port()},
                                           {"127.0.0.1", free_port()}};
  sim::Simulator sim0;
  sim::Simulator sim1;
  auto receiver = net::make_tcp_transport(sim0, 0, peers);
  auto honest = net::make_tcp_transport(sim1, 1, peers);
  std::vector<net::Envelope> got;
  receiver->set_deliver(
      [&got](net::Envelope&& env) { got.push_back(std::move(env)); });
  honest->set_deliver([](net::Envelope&&) {});
  honest->set_unreachable(
      [](net::Envelope&&) { ADD_FAILURE() << "honest frame undeliverable"; });

  honest->submit(heartbeat(1, 0, 1), sim::SimTime(0));

  // Rank 2's links: a body the codec rejects (kind byte out of range) ...
  const int garbage = dial_as(peers[0].port, 2);
  std::vector<std::uint8_t> bad = header(6);
  bad.insert(bad.end(), {0xFF, 0x01, 0x02, 0x03, 0x04, 0x05});
  send_bytes(garbage, bad);
  // ... a header announcing a ~4 GiB body, followed by a trickle of bytes ...
  const int huge = dial_as(peers[0].port, 2);
  std::vector<std::uint8_t> oversized = header(0xFFFFFFF0U);
  oversized.insert(oversized.end(), 64, 0xAB);
  send_bytes(huge, oversized);
  // ... and a well-formed envelope addressed to another rank.
  const int stray = dial_as(peers[0].port, 2);
  std::vector<std::uint8_t> misaddressed;
  net::codec::encode_frame(heartbeat(2, 1, 9), misaddressed);
  send_bytes(stray, misaddressed);

  honest->submit(heartbeat(1, 0, 2), sim::SimTime(0));

  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((got.size() < 2 || receiver->wire().links_rejected < 3) &&
         std::chrono::steady_clock::now() < until) {
    receiver->poll();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(receiver->wire().links_rejected, 3U);

  // The rank survived and keeps serving its honest peer.
  honest->submit(heartbeat(1, 0, 3), sim::SimTime(0));
  while (got.size() < 3 && std::chrono::steady_clock::now() < until) {
    receiver->poll();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(got.size(), 3U);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].from, 1U);
    EXPECT_EQ(got[i].kind, net::MsgKind::kHeartbeat);
    EXPECT_EQ(std::get<runtime::HeartbeatMsg>(got[i].payload).sequence, i + 1);
  }

  // Each hostile peer sees its link closed: EOF, or a reset when unread
  // bytes were discarded — never data, never the receive timeout.
  for (const int fd : {garbage, huge, stray}) {
    std::uint8_t byte = 0;
    const ssize_t r = ::recv(fd, &byte, 1, 0);
    EXPECT_TRUE(r == 0 || (r < 0 && errno == ECONNRESET))
        << "recv=" << r << " errno=" << errno;
    ::close(fd);
  }
}

}  // namespace
}  // namespace splice
