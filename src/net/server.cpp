#include "net/server.hpp"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "net/poller.hpp"
#include "net/socket.hpp"

namespace resex::net {

namespace detail {

/// Cross-thread route into one shard's loop: completed responses and
/// (in handoff mode) freshly accepted fds. The loop drains it every
/// iteration; posters arm at most one wake per drain cycle. `closed` is
/// set by the loop thread at teardown while `poller` is still alive, so
/// a late completion can never touch a destroyed poller.
struct Mailbox {
  struct Completion {
    std::uint64_t connId = 0;
    std::uint64_t requestId = 0;
    bool isError = false;
    QueryResponse response;
    ErrorCode code = ErrorCode::kBadFrame;
    std::string message;
  };

  std::mutex mutex;
  std::vector<Completion> completions;
  std::vector<int> handoffFds;
  Poller* poller = nullptr;
  bool closed = false;
  bool wakeArmed = false;

  void post(Completion completion) {
    std::lock_guard lock(mutex);
    if (closed) return;
    completions.push_back(std::move(completion));
    if (!wakeArmed) {
      wakeArmed = true;
      poller->wake();
    }
  }
};

}  // namespace detail

void ResponseTicket::respond(QueryResponse response) {
  if (done_.exchange(true, std::memory_order_acq_rel)) return;
  detail::Mailbox::Completion completion;
  completion.connId = connId_;
  completion.requestId = requestId_;
  completion.response = std::move(response);
  mailbox_->post(std::move(completion));
}

void ResponseTicket::fail(ErrorCode code, std::string message) {
  if (done_.exchange(true, std::memory_order_acq_rel)) return;
  detail::Mailbox::Completion completion;
  completion.connId = connId_;
  completion.requestId = requestId_;
  completion.isError = true;
  completion.code = code;
  completion.message = std::move(message);
  mailbox_->post(std::move(completion));
}

struct Server::Connection {
  explicit Connection(const FrameLimits& limits) : reader(limits) {}

  int fd = -1;
  std::uint64_t id = 0;
  FrameReader reader;
  /// Encoded-but-unsent frames; front may be partially written
  /// (outboxHead bytes already on the wire). Flushed with writev so one
  /// syscall carries many batches.
  std::deque<std::string> outbox;
  std::size_t outboxHead = 0;
  std::size_t outboxBytes = 0;
  /// Decoded QUERY frames whose response has not drained yet.
  std::size_t inFlight = 0;
  std::uint32_t interest = 0;  ///< events currently registered
  bool readPaused = false;
  bool closeAfterFlush = false;
  std::uint64_t touchedEpoch = 0;  ///< drain-batch dedup marker
};

struct Server::Shard {
  Shard(std::size_t idx, bool forcePoll) : index(idx), poller(forcePoll) {}

  const std::size_t index;
  Poller poller;
  int listenFd = -1;
  std::shared_ptr<detail::Mailbox> mailbox;
  std::unordered_map<int, std::unique_ptr<Connection>> conns;  ///< by fd
  std::unordered_map<std::uint64_t, Connection*> connById;
  std::uint64_t drainEpoch = 0;
  std::size_t handoffNext = 0;  ///< round-robin cursor (accepting shard only)

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> closedConns{0};
  std::atomic<std::uint64_t> frames{0};
  std::atomic<std::uint64_t> responses{0};
  std::atomic<std::uint64_t> errorFrames{0};
  std::atomic<std::uint64_t> protoErrors{0};
  std::atomic<std::uint64_t> pauses{0};
};

Server::Server(ServerConfig config, Handler handler)
    : config_(std::move(config)), handler_(std::move(handler)) {
  if (!handler_) throw std::invalid_argument("net::Server: null handler");
}

Server::~Server() { stop(); }

void Server::start() {
  if (started_) return;
  shardCount_ = std::max<std::size_t>(1, config_.shards);
  shards_.reserve(shardCount_);
  for (std::size_t i = 0; i < shardCount_; ++i) {
    shards_.push_back(std::make_unique<Shard>(i, config_.forcePollBackend));
    shards_[i]->mailbox = std::make_shared<detail::Mailbox>();
    shards_[i]->mailbox->poller = &shards_[i]->poller;
  }

  // Listener layout: one SO_REUSEPORT listener per shard when the kernel
  // grants it (accept distribution in the kernel), otherwise a single
  // listener on shard 0 that round-robins accepted fds to the others.
  bool reusePortOk = false;
  const int first =
      makeListener(config_.host, config_.port, shardCount_ > 1, reusePortOk);
  port_ = boundPort(first);
  shards_[0]->listenFd = first;
  reusePort_ = reusePortOk && shardCount_ > 1;
  if (reusePort_) {
    for (std::size_t i = 1; i < shardCount_; ++i) {
      bool ok = false;
      try {
        shards_[i]->listenFd = makeListener(config_.host, port_, true, ok);
      } catch (const std::runtime_error&) {
        ok = false;
      }
      if (!ok) {
        // Kernel refused a sibling listener: collapse to handoff mode.
        for (std::size_t j = 1; j <= i; ++j) {
          if (shards_[j]->listenFd >= 0) ::close(shards_[j]->listenFd);
          shards_[j]->listenFd = -1;
        }
        reusePort_ = false;
        break;
      }
    }
  }
  for (const auto& shard : shards_)
    if (shard->listenFd >= 0) shard->poller.add(shard->listenFd, kReadable);

  running_.store(true, std::memory_order_release);
  started_ = true;
  threads_.reserve(shardCount_);
  for (const auto& shard : shards_)
    threads_.emplace_back([this, raw = shard.get()] { loop(*raw); });
}

void Server::stop() {
  if (!started_) return;
  running_.store(false, std::memory_order_release);
  for (const auto& shard : shards_) shard->poller.wake();
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
}

ServerStats Server::stats() const {
  ServerStats out;
  for (const auto& shard : shards_) {
    out.connectionsAccepted += shard->accepted.load(std::memory_order_relaxed);
    out.connectionsClosed += shard->closedConns.load(std::memory_order_relaxed);
    out.framesReceived += shard->frames.load(std::memory_order_relaxed);
    out.responsesSent += shard->responses.load(std::memory_order_relaxed);
    out.errorFramesSent += shard->errorFrames.load(std::memory_order_relaxed);
    out.protocolErrors += shard->protoErrors.load(std::memory_order_relaxed);
    out.readPauses += shard->pauses.load(std::memory_order_relaxed);
  }
  return out;
}

void Server::loop(Shard& shard) {
  std::vector<PollEvent> events;
  while (running_.load(std::memory_order_acquire)) {
    shard.poller.wait(events, -1);
    for (const PollEvent& ev : events) {
      if (ev.fd == shard.poller.wakeFd()) continue;  // mailbox drained below
      if (ev.fd == shard.listenFd) {
        acceptLoop(shard);
        continue;
      }
      const auto it = shard.conns.find(ev.fd);
      if (it == shard.conns.end()) continue;  // closed earlier this batch
      Connection& conn = *it->second;
      if (ev.events & kError) {
        closeConnection(shard, conn);
        continue;
      }
      bool alive = true;
      if (ev.events & kWritable) alive = flushOutbox(shard, conn);
      if (alive && (ev.events & kReadable)) alive = handleReadable(shard, conn);
      if (alive) updateInterest(shard, conn);
    }
    drainMailbox(shard);
  }

  // Teardown on the loop thread: every conn and the listener close here,
  // then the mailbox seals so late completions are dropped, never routed
  // at a dead poller.
  for (auto& [fd, conn] : shard.conns) {
    shard.poller.remove(fd);
    ::close(fd);
    shard.closedConns.fetch_add(1, std::memory_order_relaxed);
  }
  shard.conns.clear();
  shard.connById.clear();
  if (shard.listenFd >= 0) {
    shard.poller.remove(shard.listenFd);
    ::close(shard.listenFd);
    shard.listenFd = -1;
  }
  {
    std::lock_guard lock(shard.mailbox->mutex);
    shard.mailbox->closed = true;
    for (const int fd : shard.mailbox->handoffFds) ::close(fd);
    shard.mailbox->handoffFds.clear();
    shard.mailbox->completions.clear();
    shard.mailbox->poller = nullptr;
  }
}

void Server::acceptLoop(Shard& shard) {
  while (true) {
    const int fd = acceptOne(shard.listenFd);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN, or a transient (ECONNABORTED, EMFILE): retry later
    }
    if (!reusePort_ && shardCount_ > 1) {
      const std::size_t target = shard.handoffNext++ % shardCount_;
      if (target != shard.index) {
        detail::Mailbox& mailbox = *shards_[target]->mailbox;
        std::lock_guard lock(mailbox.mutex);
        if (mailbox.closed) {
          ::close(fd);
        } else {
          mailbox.handoffFds.push_back(fd);
          if (!mailbox.wakeArmed) {
            mailbox.wakeArmed = true;
            mailbox.poller->wake();
          }
        }
        continue;
      }
    }
    adoptConnection(shard, fd);
  }
}

void Server::adoptConnection(Shard& shard, int fd) {
  auto conn = std::make_unique<Connection>(config_.limits);
  conn->fd = fd;
  conn->id = nextConnId_.fetch_add(1, std::memory_order_relaxed);
  conn->interest = kReadable;
  Connection* raw = conn.get();
  shard.connById.emplace(raw->id, raw);
  shard.conns.emplace(fd, std::move(conn));
  shard.poller.add(fd, kReadable);
  shard.accepted.fetch_add(1, std::memory_order_relaxed);
}

bool Server::handleReadable(Shard& shard, Connection& conn) {
  char buf[65536];
  // Bounded rounds per event keep one chatty connection from starving
  // the shard; level-triggered polling re-reports leftover bytes.
  for (int round = 0; round < 16; ++round) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n > 0) {
      conn.reader.feed(buf, static_cast<std::size_t>(n));
      if (!processFrames(shard, conn)) return false;
      if (conn.readPaused || conn.closeAfterFlush) break;
      if (static_cast<std::size_t>(n) < sizeof buf) break;  // drained
      continue;
    }
    if (n == 0) {  // orderly peer close
      closeConnection(shard, conn);
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    closeConnection(shard, conn);
    return false;
  }
  return flushOutbox(shard, conn);
}

bool Server::processFrames(Shard& shard, Connection& conn) {
  while (!conn.closeAfterFlush) {
    const std::optional<ParsedFrame> frame = conn.reader.next();
    if (!frame) break;
    shard.frames.fetch_add(1, std::memory_order_relaxed);
    if (frame->type != FrameType::kQuery) {
      protocolError(shard, conn, frame->requestId, ErrorCode::kUnknownType,
                    "unexpected frame type");
      break;
    }
    std::optional<QueryRequest> query = decodeQueryBody(frame->body, config_.limits);
    if (!query) {
      protocolError(shard, conn, frame->requestId, ErrorCode::kBadFrame,
                    "undecodable query body");
      break;
    }
    ++conn.inFlight;
    std::shared_ptr<ResponseTicket> ticket(
        new ResponseTicket(shard.mailbox, conn.id, frame->requestId));
    const bool acceptMore = handler_(std::move(*query), ticket);
    if (!acceptMore && !conn.readPaused) {
      conn.readPaused = true;
      shard.pauses.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (conn.reader.poisoned() && !conn.closeAfterFlush)
    protocolError(shard, conn, 0, ErrorCode::kBadFrame,
                  "frame length out of bounds");
  if (!conn.readPaused && !conn.closeAfterFlush &&
      (conn.inFlight >= config_.maxInFlightPerConnection ||
       conn.outboxBytes >= config_.maxOutboxBytes)) {
    conn.readPaused = true;
    shard.pauses.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

void Server::protocolError(Shard& shard, Connection& conn, std::uint64_t requestId,
                           ErrorCode code, std::string_view message) {
  shard.protoErrors.fetch_add(1, std::memory_order_relaxed);
  shard.errorFrames.fetch_add(1, std::memory_order_relaxed);
  conn.outbox.emplace_back();
  const std::size_t before = conn.outbox.back().size();
  encodeErrorFrame(requestId, code, message, conn.outbox.back());
  conn.outboxBytes += conn.outbox.back().size() - before;
  conn.closeAfterFlush = true;
}

bool Server::flushOutbox(Shard& shard, Connection& conn) {
  while (!conn.outbox.empty()) {
    struct iovec iov[16];
    int count = 0;
    std::size_t offset = conn.outboxHead;
    for (auto it = conn.outbox.begin(); it != conn.outbox.end() && count < 16;
         ++it) {
      iov[count].iov_base = it->data() + offset;
      iov[count].iov_len = it->size() - offset;
      offset = 0;
      ++count;
    }
    const ssize_t n = ::writev(conn.fd, iov, count);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      closeConnection(shard, conn);
      return false;
    }
    conn.outboxBytes -= static_cast<std::size_t>(n);
    std::size_t written = static_cast<std::size_t>(n);
    while (written > 0) {
      std::string& front = conn.outbox.front();
      const std::size_t avail = front.size() - conn.outboxHead;
      if (written >= avail) {
        written -= avail;
        conn.outbox.pop_front();
        conn.outboxHead = 0;
      } else {
        conn.outboxHead += written;
        written = 0;
      }
    }
  }
  if (conn.outbox.empty() && conn.closeAfterFlush) {
    closeConnection(shard, conn);
    return false;
  }
  // Re-evaluate the read pause against the post-flush outbox on every
  // successful flush. The kWritable path may be the only thing that ever
  // drains this connection again (inFlight can already be zero, so no
  // future mailbox drain will touch it) — deciding resume anywhere else
  // risks parking the connection read-paused forever.
  maybeResumeReading(conn);
  return true;
}

void Server::drainMailbox(Shard& shard) {
  std::vector<detail::Mailbox::Completion> completions;
  std::vector<int> handoff;
  {
    std::lock_guard lock(shard.mailbox->mutex);
    shard.mailbox->wakeArmed = false;
    if (shard.mailbox->completions.empty() && shard.mailbox->handoffFds.empty())
      return;
    completions.swap(shard.mailbox->completions);
    handoff.swap(shard.mailbox->handoffFds);
  }
  for (const int fd : handoff) adoptConnection(shard, fd);

  ++shard.drainEpoch;
  std::vector<Connection*> touched;
  for (detail::Mailbox::Completion& completion : completions) {
    const auto it = shard.connById.find(completion.connId);
    if (it == shard.connById.end()) continue;  // connection already gone
    Connection& conn = *it->second;
    if (conn.inFlight > 0) --conn.inFlight;
    if (conn.closeAfterFlush) continue;  // draining toward close; drop
    if (conn.touchedEpoch != shard.drainEpoch) {
      conn.touchedEpoch = shard.drainEpoch;
      conn.outbox.emplace_back();  // one batch string per conn per drain
      touched.push_back(&conn);
    }
    std::string& batch = conn.outbox.back();
    const std::size_t before = batch.size();
    if (completion.isError) {
      encodeErrorFrame(completion.requestId, completion.code, completion.message,
                       batch);
      shard.errorFrames.fetch_add(1, std::memory_order_relaxed);
    } else {
      encodeResultFrame(completion.requestId, completion.response, batch);
      shard.responses.fetch_add(1, std::memory_order_relaxed);
    }
    conn.outboxBytes += batch.size() - before;
  }
  for (Connection* conn : touched) {
    // flushOutbox re-evaluates the read pause with post-flush outboxBytes
    // (and the inFlight decrements applied above) before interest updates.
    if (flushOutbox(shard, *conn)) updateInterest(shard, *conn);
  }
}

void Server::closeConnection(Shard& shard, Connection& conn) {
  shard.poller.remove(conn.fd);
  ::close(conn.fd);
  shard.connById.erase(conn.id);
  shard.closedConns.fetch_add(1, std::memory_order_relaxed);
  shard.conns.erase(conn.fd);  // destroys conn; must be last
}

void Server::updateInterest(Shard& shard, Connection& conn) {
  std::uint32_t want = 0;
  if (!conn.readPaused && !conn.closeAfterFlush) want |= kReadable;
  if (!conn.outbox.empty()) want |= kWritable;
  if (want != conn.interest) {
    shard.poller.mod(conn.fd, want);
    conn.interest = want;
  }
}

void Server::maybeResumeReading(Connection& conn) {
  // Hysteresis: resume at half the pause thresholds so a connection
  // hovering at the limit does not flap interest every frame.
  if (!conn.readPaused || conn.closeAfterFlush) return;
  if (conn.inFlight <= config_.maxInFlightPerConnection / 2 &&
      conn.outboxBytes <= config_.maxOutboxBytes / 2)
    conn.readPaused = false;
}

}  // namespace resex::net
