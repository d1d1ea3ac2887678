#ifndef FARMER_UTIL_EVENT_LOOP_H_
#define FARMER_UTIL_EVENT_LOOP_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"
#include "util/sync.h"
#include "util/timer.h"

namespace farmer {

/// The single-owner epoll event loop the query server's shards and the
/// farm coordinator both run on. The loop owns the transport; a server
/// supplies only its protocol and policy, as callbacks.
///
/// One loop is one thread, one level-triggered epoll set, one eventfd
/// wake and a connection table confined to that thread (ThreadChecker),
/// so no per-connection state needs a lock. Sockets are non-blocking.
/// Reads are capped per wake so one fire-hosing peer cannot starve its
/// siblings; replies are queued and leave in vectored sends, with
/// EPOLLOUT armed only while the socket is full; a half-closed peer
/// still gets what is queued for it. Sockets arrive through Adopt()
/// (the serve acceptor thread, after admission control) or through a
/// listener the loop accepts on itself (the coordinator).

/// Loop-level series, each updated when non-null.
struct EventLoopMetrics {
  obs::Counter* wakeups = nullptr;
  obs::Histogram* loop_seconds = nullptr;  // Work between two waits.
  obs::Counter* bytes_in = nullptr;
  obs::Counter* bytes_out = nullptr;
  /// Transitions into "socket full, waiting for EPOLLOUT".
  obs::Counter* write_stalls = nullptr;
};

/// The transport half of a connection-table entry.
struct LoopConn {
  virtual ~LoopConn() = default;

  bool HasPending() const { return out_head < outq.size(); }

  /// Queues bytes without a syscall; the loop sends them after the data
  /// callback returns, or on EventLoopBase::Flush().
  void Queue(std::string bytes) {
    if (!HasPending()) stall.Restart();
    outq.push_back(std::move(bytes));
  }

  int fd = -1;
  std::string rbuf;  // Received, not yet consumed by the handler.
  /// outq[out_head..] are unsent; out_off bytes of outq[out_head] are
  /// already gone.
  std::vector<std::string> outq;
  std::size_t out_head = 0;
  std::size_t out_off = 0;
  bool out_armed = false;   // EPOLLOUT currently requested.
  bool want_close = false;  // Close once outq drains.
  Stopwatch stall;          // Since the last send progress.
};

class EventLoopBase {
 public:
  /// The wait timeout: the tick period of a quiet loop.
  static constexpr int kTickMs = 50;
  static constexpr int kMaxEpollEvents = 128;
  /// recv() chunk size and the per-connection read cap per wake.
  static constexpr std::size_t kReadChunk = 16384;
  static constexpr std::size_t kMaxReadPerWake = 256 * 1024;
  /// Queued buffers per sendmsg (well under IOV_MAX).
  static constexpr int kMaxIov = 64;

  EventLoopBase(const EventLoopBase&) = delete;
  EventLoopBase& operator=(const EventLoopBase&) = delete;

  /// Creates the epoll set and the wake eventfd and starts the thread.
  /// With `listen_fd` >= 0 (non-blocking, still owned by the caller) the
  /// loop also accepts connections on it.
  Status Start(int listen_fd = -1);

  /// One best-effort flush per connection, close, join. Idempotent.
  void Stop();

  /// Hands an accepted socket to the loop, which makes it non-blocking
  /// and owns it. Thread-safe; before Start() it waits in the inbox.
  void Adopt(int fd);

  /// Makes the loop run on_tick soon, from any thread. It must not race
  /// Stop(): the caller stops calling it before the loop is stopped.
  void Wake();

  // Loop thread only. Both close `conn` once the current callback
  // returns: Flush() when the socket is dead or the queue drained with
  // want_close set, Close() unconditionally.
  void Flush(LoopConn& conn);
  void Close(LoopConn& conn);

 protected:
  explicit EventLoopBase(const EventLoopMetrics& metrics)
      : metrics_(metrics) {}
  virtual ~EventLoopBase() = default;

  virtual std::unique_ptr<LoopConn> NewConn() = 0;
  virtual void OnOpen(LoopConn& conn) = 0;
  virtual bool OnData(LoopConn& conn) = 0;
  virtual void OnTick() = 0;
  virtual void OnClose(LoopConn& conn) = 0;

  /// Binds to the loop thread; the table is confined to it.
  ThreadChecker checker_;
  std::unordered_map<int, std::unique_ptr<LoopConn>> conns_;

 private:
  void Run();
  void Register(int fd);
  bool ReadReady(LoopConn& conn);
  bool Write(LoopConn& conn);  // False = close the connection.
  void SetWriteInterest(LoopConn& conn, bool want);
  void CloseNow(int fd);
  void ReapClosed();

  const EventLoopMetrics metrics_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int listen_fd_ = -1;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  Mutex inbox_mutex_;
  std::vector<int> inbox_ FARMER_GUARDED_BY(inbox_mutex_);
  std::vector<int> closing_;  // Condemned by Flush()/Close().
};

/// An event loop whose connections carry the handler's `State`. The
/// callbacks run on the loop thread:
///   on_open   a connection entered the table (optional);
///   on_data   bytes were appended to conn.rbuf, or the peer half-closed:
///             consume what is complete and Queue() replies. false
///             closes the connection after one best-effort flush;
///   on_tick   after every wake, at least every kTickMs (optional);
///   on_close  the connection left the table, fd closed (optional).
template <typename State>
class EventLoop final : public EventLoopBase {
 public:
  struct Conn : LoopConn {
    State state{};
  };
  struct Handler {
    std::function<void(Conn&)> on_open;
    std::function<bool(Conn&)> on_data;
    std::function<void()> on_tick;
    std::function<void(Conn&)> on_close;
  };

  explicit EventLoop(Handler handler, const EventLoopMetrics& metrics = {})
      : EventLoopBase(metrics), handler_(std::move(handler)) {}
  // The thread calls the overrides below: it must end before they do.
  ~EventLoop() override { Stop(); }

  /// Loop thread only; Close() is safe inside.
  void ForEach(const std::function<void(Conn&)>& fn) {
    FARMER_DCHECK_CALLED_ON(checker_);
    for (auto& entry : conns_) fn(Cast(*entry.second));
  }

 private:
  // Every LoopConn in the table came from NewConn().
  static Conn& Cast(LoopConn& conn) { return static_cast<Conn&>(conn); }

  std::unique_ptr<LoopConn> NewConn() override {
    return std::make_unique<Conn>();
  }
  void OnOpen(LoopConn& conn) override {
    if (handler_.on_open) handler_.on_open(Cast(conn));
  }
  bool OnData(LoopConn& conn) override { return handler_.on_data(Cast(conn)); }
  void OnTick() override {
    if (handler_.on_tick) handler_.on_tick();
  }
  void OnClose(LoopConn& conn) override {
    if (handler_.on_close) handler_.on_close(Cast(conn));
  }

  const Handler handler_;
};

/// Request heads larger than this get a 431.
inline constexpr std::size_t kMaxScrapeHeadBytes = std::size_t{1} << 16;

/// The plain-HTTP metrics scrape of every listener (serve port, serve
/// metrics port, farm port). Once conn.rbuf holds a whole "GET " request
/// head, queues one HTTP/1.0 response and sets want_close: 200 with
/// render()'s exposition for /metrics, 404 for another path, 503 when
/// `render` is empty (no registry). An incomplete head past
/// kMaxScrapeHeadBytes gets a 431; a shorter one waits for more bytes.
void AnswerScrape(LoopConn& conn, const std::function<std::string()>& render);

}  // namespace farmer

#endif  // FARMER_UTIL_EVENT_LOOP_H_
