// The shared event loop (util/event_loop.h) over AF_UNIX socketpairs:
// write back-pressure, half-close, the per-wake read cap, the Stop()
// drain and cross-thread Adopt. The serve and farm suites cover the
// protocols built on top of it.

#include "util/event_loop.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace farmer {
namespace {

using Loop = EventLoop<int>;

// One socketpair: `loop_side` goes to the loop, `peer` stays with the
// test (blocking, with a receive timeout so a hang fails instead of
// wedging the suite).
struct Pair {
  Pair() {
    int sv[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    loop_side = sv[0];
    peer = sv[1];
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(peer, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~Pair() {
    if (peer >= 0) ::close(peer);
  }
  Pair(const Pair&) = delete;
  Pair& operator=(const Pair&) = delete;

  void SetLoopSendBuffer(int bytes) const {
    ::setsockopt(loop_side, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
  }

  bool Send(const std::string& bytes) const {
    return ::send(peer, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }

  // Everything until EOF (or a timeout / error, which ends it early).
  std::string RecvUntilEof() const {
    std::string out;
    char chunk[65536];
    ssize_t n;
    while ((n = ::recv(peer, chunk, sizeof(chunk), 0)) > 0) {
      out.append(chunk, static_cast<std::size_t>(n));
    }
    return out;
  }

  // Exactly `len` bytes, or fewer on EOF / timeout.
  std::string RecvExactly(std::size_t len) const {
    std::string out;
    char chunk[65536];
    while (out.size() < len) {
      const ssize_t n = ::recv(peer, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      out.append(chunk, static_cast<std::size_t>(n));
    }
    return out;
  }

  int loop_side = -1;  // Owned by the loop once adopted.
  int peer = -1;
};

// Polls `done` for up to five seconds.
template <typename Pred>
bool WaitFor(Pred done) {
  for (int i = 0; i < 5000; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

// Cuts every complete line off conn.rbuf.
std::vector<std::string> TakeLines(Loop::Conn& conn) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t nl; (nl = conn.rbuf.find('\n', start)) !=
                       std::string::npos;
       start = nl + 1) {
    lines.push_back(conn.rbuf.substr(start, nl - start));
  }
  conn.rbuf.erase(0, start);
  return lines;
}

TEST(EventLoopTest, PartialWriteFinishesAfterEpollOutAsOneStall) {
  obs::Counter stalls;
  obs::Counter bytes_out;
  EventLoopMetrics metrics;
  metrics.write_stalls = &stalls;
  metrics.bytes_out = &bytes_out;
  const std::string payload(std::size_t{1} << 20, 'x');
  Loop::Handler handler;
  handler.on_data = [&payload](Loop::Conn& conn) {
    for (const std::string& line : TakeLines(conn)) {
      if (line == "go") conn.Queue(payload);
    }
    return true;
  };
  Loop loop(handler, metrics);
  ASSERT_TRUE(loop.Start().ok());

  Pair pair;
  pair.SetLoopSendBuffer(4096);
  loop.Adopt(pair.loop_side);
  ASSERT_TRUE(pair.Send("go\n"));
  // The peer is not reading: the first sendmsg fills the socket and the
  // loop parks the rest behind EPOLLOUT.
  ASSERT_TRUE(WaitFor([&] { return stalls.value() == 1; }));
  EXPECT_LT(bytes_out.value(), payload.size());

  EXPECT_EQ(pair.RecvExactly(payload.size()), payload);
  EXPECT_TRUE(WaitFor([&] { return bytes_out.value() == payload.size(); }));
  // Still one stall: EPOLLOUT stays armed until the queue drains, and
  // every retry in between is the same stall.
  EXPECT_EQ(stalls.value(), 1u);
  loop.Stop();
}

TEST(EventLoopTest, HalfClosedPeerStillReceivesQueuedReplies) {
  // Each request line is answered with 256 KiB, far more than the
  // socket holds, so the peer's FIN arrives while replies are queued.
  const std::size_t reply_size = 256 * 1024;
  std::atomic<int> closed{0};
  Loop::Handler handler;
  handler.on_data = [reply_size](Loop::Conn& conn) {
    for (const std::string& line : TakeLines(conn)) {
      conn.Queue(std::string(reply_size, line.empty() ? '?' : line[0]));
    }
    return true;
  };
  handler.on_close = [&closed](Loop::Conn&) { closed.fetch_add(1); };
  Loop loop(handler);
  ASSERT_TRUE(loop.Start().ok());

  Pair pair;
  pair.SetLoopSendBuffer(4096);
  loop.Adopt(pair.loop_side);
  ASSERT_TRUE(pair.Send("a\nb\n"));
  ASSERT_EQ(::shutdown(pair.peer, SHUT_WR), 0);

  const std::string got = pair.RecvUntilEof();
  EXPECT_EQ(got, std::string(reply_size, 'a') + std::string(reply_size, 'b'));
  // EOF came from the loop closing its side once the queue drained.
  EXPECT_TRUE(WaitFor([&] { return closed.load() == 1; }));
  loop.Stop();
}

TEST(EventLoopTest, FireHoseIsCappedPerWakeWhileASiblingIsServed) {
  struct Call {
    int conn;
    std::size_t bytes;
    std::uint64_t wake;
  };
  std::vector<Call> calls;  // Loop thread only until Stop() joins it.
  std::uint64_t wakes = 0;
  std::atomic<std::size_t> hose_bytes{0};
  Pair hose;
  Pair sibling;
  Loop::Handler handler;
  handler.on_open = [&](Loop::Conn& conn) {
    conn.state = conn.fd == hose.loop_side ? 0 : 1;
  };
  handler.on_data = [&](Loop::Conn& conn) {
    calls.push_back({conn.state, conn.rbuf.size(), wakes});
    if (conn.state == 0) {
      hose_bytes.fetch_add(conn.rbuf.size());
      conn.rbuf.clear();
    } else {
      for (const std::string& line : TakeLines(conn)) {
        if (line == "ping") conn.Queue("pong\n");
      }
    }
    return true;
  };
  handler.on_tick = [&wakes] { ++wakes; };
  Loop loop(handler);

  // Fill the fire hose's socket well past one wake's read cap before
  // the loop sees it, and queue the sibling's request.
  const int big = 1 << 20;
  ::setsockopt(hose.peer, SOL_SOCKET, SO_SNDBUF, &big, sizeof(big));
  ASSERT_EQ(::fcntl(hose.peer, F_SETFL, O_NONBLOCK), 0);
  const std::string chunk(Loop::kReadChunk, 'h');
  std::size_t buffered = 0;
  while (buffered < std::size_t{1} << 20) {
    const ssize_t n = ::send(hose.peer, chunk.data(), chunk.size(), 0);
    if (n <= 0) break;
    buffered += static_cast<std::size_t>(n);
  }
  ASSERT_GT(buffered, Loop::kMaxReadPerWake);
  ASSERT_TRUE(sibling.Send("ping\n"));

  // Adopted before Start(), both join the table in the loop's first
  // iteration and turn readable in the same wait.
  loop.Adopt(hose.loop_side);
  loop.Adopt(sibling.loop_side);
  ASSERT_TRUE(loop.Start().ok());
  EXPECT_EQ(sibling.RecvExactly(5), "pong\n");
  ASSERT_TRUE(WaitFor([&] { return hose_bytes.load() == buffered; }));
  loop.Stop();

  const Call* first_hose = nullptr;
  const Call* first_sibling = nullptr;
  for (const Call& call : calls) {
    if (call.conn == 0) {
      EXPECT_LE(call.bytes, Loop::kMaxReadPerWake);
      if (first_hose == nullptr) first_hose = &call;
    } else if (first_sibling == nullptr) {
      first_sibling = &call;
    }
  }
  ASSERT_NE(first_hose, nullptr);
  ASSERT_NE(first_sibling, nullptr);
  EXPECT_EQ(first_hose->bytes, Loop::kMaxReadPerWake);
  EXPECT_EQ(first_sibling->wake, first_hose->wake);
}

TEST(EventLoopTest, StopFlushesAndClosesEveryConnection) {
  std::atomic<int> opened{0};
  std::atomic<int> closed{0};
  Loop::Handler handler;
  // Queued on open and never flushed by the data path: only Stop()'s
  // drain sends it.
  handler.on_open = [&opened](Loop::Conn& conn) {
    conn.Queue("bye\n");
    opened.fetch_add(1);
  };
  handler.on_data = [](Loop::Conn&) { return true; };
  handler.on_close = [&closed](Loop::Conn&) { closed.fetch_add(1); };
  Loop loop(handler);
  ASSERT_TRUE(loop.Start().ok());
  Pair pairs[3];
  for (Pair& pair : pairs) loop.Adopt(pair.loop_side);
  ASSERT_TRUE(WaitFor([&] { return opened.load() == 3; }));

  loop.Stop();
  EXPECT_EQ(closed.load(), 3);
  for (Pair& pair : pairs) EXPECT_EQ(pair.RecvUntilEof(), "bye\n");
  loop.Stop();  // Idempotent.
}

TEST(EventLoopTest, AdoptFromAForeignThread) {
  std::atomic<std::thread::id> loop_thread{};
  std::atomic<bool> one_thread{true};
  const auto on_loop = [&] {
    std::thread::id expected{};
    const std::thread::id self = std::this_thread::get_id();
    if (!loop_thread.compare_exchange_strong(expected, self) &&
        expected != self) {
      one_thread.store(false);
    }
  };
  Loop::Handler handler;
  handler.on_open = [&](Loop::Conn&) { on_loop(); };
  handler.on_data = [&](Loop::Conn& conn) {
    on_loop();
    for (const std::string& line : TakeLines(conn)) {
      conn.Queue(line + "\n");
    }
    return true;
  };
  Loop loop(handler);
  ASSERT_TRUE(loop.Start().ok());

  Pair pair;
  std::thread::id adopter;
  std::thread foreign([&] {
    adopter = std::this_thread::get_id();
    loop.Adopt(pair.loop_side);
  });
  foreign.join();
  ASSERT_TRUE(pair.Send("hello\n"));
  EXPECT_EQ(pair.RecvExactly(6), "hello\n");
  loop.Stop();

  EXPECT_TRUE(one_thread.load());
  EXPECT_NE(loop_thread.load(), std::thread::id{});
  EXPECT_NE(loop_thread.load(), adopter);
  EXPECT_NE(loop_thread.load(), std::this_thread::get_id());
}

}  // namespace
}  // namespace farmer
