#include "util/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdint>
#include <optional>

#include "obs/exposition.h"
#include "util/net.h"

namespace farmer {

// farmer-lint: begin(event-loop)
// This file runs on event-loop threads (Start, Stop and Adopt only
// spawn, wake and join) and must never block: no file I/O, no sleeps,
// no blocking sockets (tools/farmer_lint.py, rule `event-loop-blocking`).
// The sockets are non-blocking; recv and sendmsg return EAGAIN instead
// of parking the loop.

Status EventLoopBase::Start(int listen_fd) {
  listen_fd_ = listen_fd;
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  epoll_event ev{};
  ev.events = EPOLLIN;
  bool ok = epoll_fd_ >= 0 && wake_fd_ >= 0;
  for (const int fd : {wake_fd_, listen_fd_}) {
    ev.data.fd = fd;
    if (ok && fd >= 0) ok = ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0;
  }
  if (!ok) {
    const std::string err = net::ErrnoString(errno);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    epoll_fd_ = wake_fd_ = listen_fd_ = -1;
    return Status::IoError("epoll/eventfd: " + err);
  }
  stopping_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Run(); });
  return Status::Ok();
}

void EventLoopBase::Stop() {
  if (!thread_.joinable()) return;
  stopping_.store(true, std::memory_order_release);
  Wake();
  // Stop() runs on the owning thread, never on the loop it joins.
  // farmer-lint: allow(event-loop-blocking) -- joins from the owner
  thread_.join();
  ::close(wake_fd_);
  ::close(epoll_fd_);
  epoll_fd_ = wake_fd_ = listen_fd_ = -1;
}

void EventLoopBase::Adopt(int fd) {
  {
    MutexLock lock(inbox_mutex_);
    inbox_.push_back(fd);
  }
  Wake();
}

void EventLoopBase::Wake() {
  const std::uint64_t one = 1;
  // EAGAIN means the counter is already non-zero: the loop is waking.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoopBase::Run() {
  // First touch binds the checker to this thread.
  FARMER_DCHECK_CALLED_ON(checker_);
  std::array<epoll_event, kMaxEpollEvents> events;
  while (true) {
    const int n =
        ::epoll_wait(epoll_fd_, events.data(), kMaxEpollEvents, kTickMs);
    if (metrics_.wakeups != nullptr) metrics_.wakeups->Increment();
    // Times the work up to the next wait (the loop-stall signal); no
    // clock read without a consumer.
    std::optional<Stopwatch> busy;
    if (metrics_.loop_seconds != nullptr) busy.emplace();
    // Adopt first so handed-off fds are owned (and get closed on the
    // drain path below) even when the wake races Stop().
    std::vector<int> adopted;
    {
      MutexLock lock(inbox_mutex_);
      adopted.swap(inbox_);
    }
    for (const int fd : adopted) Register(fd);
    if (stopping_.load(std::memory_order_acquire)) break;
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[static_cast<std::size_t>(i)];
      const int fd = ev.data.fd;
      if (fd == wake_fd_) {
        std::uint64_t junk;
        while (::read(wake_fd_, &junk, sizeof(junk)) > 0) {
        }
      } else if (fd == listen_fd_) {
        // Until EAGAIN (or a transient failure the next wake retries).
        for (int c; (c = ::accept(listen_fd_, nullptr, nullptr)) >= 0;) {
          Register(c);
        }
      } else if (auto it = conns_.find(fd); it != conns_.end()) {
        LoopConn& conn = *it->second;
        bool alive = (ev.events & (EPOLLERR | EPOLLHUP)) == 0;
        if (alive && (ev.events & EPOLLOUT) != 0) alive = Write(conn);
        if (alive && (ev.events & EPOLLIN) != 0) alive = ReadReady(conn);
        if (!alive) CloseNow(fd);
        ReapClosed();
      }
    }
    OnTick();
    ReapClosed();
    if (busy) metrics_.loop_seconds->Observe(busy->ElapsedSeconds());
  }
  // Drain: one best-effort flush per connection (peers that are reading
  // get their queued bytes), then close.
  while (!conns_.empty()) {
    Write(*conns_.begin()->second);
    CloseNow(conns_.begin()->first);
  }
  closing_.clear();
}

void EventLoopBase::Register(int fd) {
  std::unique_ptr<LoopConn> owned = NewConn();
  LoopConn& conn = *owned;
  conn.fd = fd;
  conns_.emplace(fd, std::move(owned));
  OnOpen(conn);
  // Replies leave as whole coalesced buffers; Nagle would only delay
  // the last partial segment.
  net::SetTcpNoDelay(fd);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (!net::SetNonBlocking(fd) ||
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    CloseNow(fd);
  }
}

bool EventLoopBase::ReadReady(LoopConn& conn) {
  char chunk[kReadChunk];
  std::size_t got = 0;
  bool peer_closed = false;
  while (got < kMaxReadPerWake) {
    const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn.rbuf.append(chunk, static_cast<std::size_t>(n));
      got += static_cast<std::size_t>(n);
    } else if (n == 0) {
      peer_closed = true;
      break;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else if (errno != EINTR) {
      return false;
    }
  }
  if (got > 0 && metrics_.bytes_in != nullptr) metrics_.bytes_in->Add(got);
  if (!OnData(conn)) {
    // A protocol error: replies queued before it still get one chance.
    Write(conn);
    return false;
  }
  if (!Write(conn)) return false;
  if (peer_closed) {
    // Half-closed peer (shutdown(SHUT_WR)): deliver what is still
    // queued, then close once it drains.
    if (!conn.HasPending()) return false;
    conn.want_close = true;
  }
  return true;
}

void EventLoopBase::Flush(LoopConn& conn) {
  if (!Write(conn)) Close(conn);
}

void EventLoopBase::Close(LoopConn& conn) {
  FARMER_DCHECK_CALLED_ON(checker_);
  closing_.push_back(conn.fd);
}

bool EventLoopBase::Write(LoopConn& conn) {
  FARMER_DCHECK_CALLED_ON(checker_);
  while (conn.HasPending()) {
    iovec iov[kMaxIov];
    int cnt = 0;
    for (std::size_t i = conn.out_head; i < conn.outq.size() && cnt < kMaxIov;
         ++i) {
      const std::string& s = conn.outq[i];
      const std::size_t off = (i == conn.out_head) ? conn.out_off : 0;
      iov[cnt].iov_base = const_cast<char*>(s.data() + off);
      iov[cnt].iov_len = s.size() - off;
      ++cnt;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(cnt);
    const ssize_t n = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    if (metrics_.bytes_out != nullptr) {
      metrics_.bytes_out->Add(static_cast<std::uint64_t>(n));
    }
    conn.stall.Restart();
    // Retire fully sent buffers; the last one may be partly sent.
    conn.out_off += static_cast<std::size_t>(n);
    while (conn.HasPending() &&
           conn.out_off >= conn.outq[conn.out_head].size()) {
      conn.out_off -= conn.outq[conn.out_head].size();
      ++conn.out_head;
    }
  }
  if (!conn.HasPending()) {
    conn.outq.clear();
    conn.out_head = 0;
    conn.out_off = 0;
    SetWriteInterest(conn, false);
    return !conn.want_close;
  }
  // Socket full: reclaim the fully-sent prefix once it grows, then wait
  // for EPOLLOUT.
  if (conn.out_head >= 64) {
    conn.outq.erase(conn.outq.begin(),
                    conn.outq.begin() +
                        static_cast<std::ptrdiff_t>(conn.out_head));
    conn.out_head = 0;
  }
  // Count stall transitions (not every full-socket retry): the moment a
  // connection first blocks on the peer's receive window.
  if (!conn.out_armed && metrics_.write_stalls != nullptr) {
    metrics_.write_stalls->Increment();
  }
  SetWriteInterest(conn, true);
  return true;
}

void EventLoopBase::SetWriteInterest(LoopConn& conn, bool want) {
  if (conn.out_armed == want) return;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  ev.data.fd = conn.fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) == 0) {
    conn.out_armed = want;
  }
}

void EventLoopBase::CloseNow(int fd) {
  FARMER_DCHECK_CALLED_ON(checker_);
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  // Out of the table before on_close runs, so a ForEach there skips it.
  const std::unique_ptr<LoopConn> conn = std::move(it->second);
  conns_.erase(it);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  OnClose(*conn);
}

void EventLoopBase::ReapClosed() {
  // By index: an on_close callback may condemn further connections.
  for (std::size_t i = 0; i < closing_.size(); ++i) CloseNow(closing_[i]);
  closing_.clear();
}

void AnswerScrape(LoopConn& conn, const std::function<std::string()>& render) {
  // Answer only once the request head is fully buffered, so the response
  // never races the peer's own send; headers are ignored.
  if (conn.rbuf.find("\r\n\r\n") == std::string::npos &&
      conn.rbuf.find("\n\n") == std::string::npos) {
    if (conn.rbuf.size() <= kMaxScrapeHeadBytes) return;
    conn.Queue(net::HttpResponse("431 Request Header Fields Too Large",
                                 "text/plain", "request too large\n"));
  } else {
    // Request line "GET <path>[?query] <version>": detection already
    // matched "GET ", so only the path matters.
    const std::size_t path_end = conn.rbuf.find_first_of(" ?\r\n", 4);
    if (conn.rbuf.compare(4, path_end - 4, "/metrics") != 0) {
      conn.Queue(net::HttpResponse("404 Not Found", "text/plain",
                                   "try GET /metrics\n"));
    } else if (!render) {
      conn.Queue(net::HttpResponse("503 Service Unavailable", "text/plain",
                                   "no metrics registry attached\n"));
    } else {
      conn.Queue(net::HttpResponse("200 OK", obs::kExpositionContentType,
                                   render()));
    }
  }
  // One response per connection, HTTP/1.0 style: drop any pipelined
  // bytes and close after the flush.
  conn.rbuf.clear();
  conn.want_close = true;
}

// farmer-lint: end(event-loop)

}  // namespace farmer
