#include "harness.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/timerfd.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <sstream>

namespace e2e {

namespace server = embellish::server;

int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

Usage SelfUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_us = (static_cast<int64_t>(ru.ru_utime.tv_sec) +
              static_cast<int64_t>(ru.ru_stime.tv_sec)) *
                 1000000 +
             ru.ru_utime.tv_usec + ru.ru_stime.tv_usec;
  u.maxrss_kb = ru.ru_maxrss;
  return u;
}

uint64_t ThreadId() { return static_cast<uint64_t>(syscall(SYS_gettid)); }

std::string FormatKeyValues(const KeyValues& kv) {
  std::string out;
  for (const auto& [k, v] : kv) {
    if (!out.empty()) out += ' ';
    out += k + "=" + v;
  }
  return out;
}

KeyValues ParseKeyValues(const std::string& line) {
  KeyValues kv;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    size_t eq = token.find('=');
    if (eq == std::string::npos) continue;
    kv[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return kv;
}

double GetNum(const KeyValues& kv, const std::string& key) {
  auto it = kv.find(key);
  return it == kv.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
}

// --- Control channel ---------------------------------------------------------

namespace {

bool WriteFully(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

// Reads until a newline; false on EOF/error/timeout (timeout_ms < 0: none).
bool ReadLineFd(int fd, std::string* buffer, std::string* line,
                int timeout_ms) {
  const int64_t deadline =
      timeout_ms < 0 ? -1 : NowNs() + int64_t{timeout_ms} * 1000000;
  for (;;) {
    size_t nl = buffer->find('\n');
    if (nl != std::string::npos) {
      *line = buffer->substr(0, nl);
      buffer->erase(0, nl + 1);
      return true;
    }
    int wait_ms = -1;
    if (deadline >= 0) {
      int64_t left = deadline - NowNs();
      if (left <= 0) return false;
      wait_ms = static_cast<int>(left / 1000000) + 1;
    }
    pollfd pfd{fd, POLLIN, 0};
    int rc = poll(&pfd, 1, wait_ms);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return false;
    char chunk[65536];
    ssize_t n = read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer->append(chunk, static_cast<size_t>(n));
  }
}

constexpr int kMaxChildren = 64;
pid_t g_pids[kMaxChildren];
std::atomic<int> g_pid_count{0};
std::vector<Child*>* g_children = nullptr;

void OnFatalSignal(int sig) {
  // Async-signal-safe: kill, waitpid and _exit only.
  int n = g_pid_count.load();
  for (int i = 0; i < n; ++i) {
    if (g_pids[i] > 0) kill(g_pids[i], SIGKILL);
  }
  for (int i = 0; i < n; ++i) {
    if (g_pids[i] > 0) waitpid(g_pids[i], nullptr, 0);
  }
  _exit(128 + sig);
}

}  // namespace

bool ControlChannel::ReadLine(std::string* line) {
  return ReadLineFd(in_fd_, &buffer_, line, -1);
}

void ControlChannel::WriteLine(const std::string& line) {
  WriteFully(out_fd_, line + "\n");
}

Result<Child*> SpawnChild(const std::string& name,
                          const std::function<int(ControlChannel&)>& body) {
  if (g_children == nullptr) g_children = new std::vector<Child*>();
  if (g_pid_count.load() >= kMaxChildren) {
    return Status::Internal("too many children");
  }
  int cmd[2];
  int reply[2];
  if (pipe2(cmd, O_CLOEXEC) != 0 || pipe2(reply, O_CLOEXEC) != 0) {
    return Status::IoError(std::string("pipe: ") + std::strerror(errno));
  }
  const pid_t parent = getpid();
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t pid = fork();
  if (pid < 0) {
    return Status::IoError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(1);
    signal(SIGINT, SIG_DFL);
    signal(SIGTERM, SIG_DFL);
    signal(SIGHUP, SIG_DFL);
    signal(SIGPIPE, SIG_IGN);
    // Siblings belong to the parent; never signal them from here.
    for (Child* c : *g_children) {
      close(c->cmd_fd);
      close(c->reply_fd);
    }
    g_pid_count.store(0);
    close(cmd[1]);
    close(reply[0]);
    ControlChannel channel(cmd[0], reply[1]);
    int code = body(channel);
    _exit(code);
  }
  close(cmd[0]);
  close(reply[1]);
  auto* child = new Child;
  child->pid = pid;
  child->cmd_fd = cmd[1];
  child->reply_fd = reply[0];
  child->name = name;
  g_pids[g_pid_count.load()] = pid;
  g_pid_count.fetch_add(1);
  g_children->push_back(child);
  return child;
}

Result<std::string> Command(Child* child, const std::string& line,
                            int timeout_ms) {
  if (child->pid <= 0) return Status::Unavailable(child->name + " is gone");
  if (!WriteFully(child->cmd_fd, line + "\n")) {
    return Status::IoError(child->name + ": control write failed");
  }
  std::string reply;
  if (!ReadLineFd(child->reply_fd, &child->buffer, &reply, timeout_ms)) {
    return Status::IoError(child->name + ": no reply to '" + line + "'");
  }
  return reply;
}

Result<std::string> AwaitLine(Child* child, int timeout_ms) {
  std::string line;
  if (!ReadLineFd(child->reply_fd, &child->buffer, &line, timeout_ms)) {
    return Status::IoError(child->name + ": no line");
  }
  return line;
}

void ReapChildren() {
  if (g_children == nullptr) return;
  for (Child* c : *g_children) {
    if (c->pid > 0) kill(c->pid, SIGKILL);
  }
  for (Child* c : *g_children) {
    if (c->pid > 0) {
      while (waitpid(c->pid, nullptr, 0) < 0 && errno == EINTR) {
      }
      c->pid = -1;
      close(c->cmd_fd);
      close(c->reply_fd);
    }
  }
  for (int i = 0; i < g_pid_count.load(); ++i) g_pids[i] = -1;
}

void InstallSignalHandlers() {
  struct sigaction sa {};
  sa.sa_handler = OnFatalSignal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGHUP, &sa, nullptr);
  signal(SIGPIPE, SIG_IGN);
}

// --- Load generator ----------------------------------------------------------

struct LoadGen::Conn {
  int fd = -1;
  server::FrameReader reader{server::kMaxTransportFrameBytes};
  server::FrameWriter writer;
  bool want_write = false;
  struct InFlight {
    size_t query;
    size_t frame;
    int64_t send_ns;
  };
  std::deque<InFlight> inflight;
};

Result<std::unique_ptr<LoadGen>> LoadGen::Connect(uint16_t port,
                                                  size_t conns) {
  std::unique_ptr<LoadGen> gen(new LoadGen());
  gen->epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  gen->timer_fd_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (gen->epoll_fd_ < 0 || gen->timer_fd_ < 0) {
    return Status::IoError("epoll/timerfd creation failed");
  }
  epoll_event tev{};
  tev.events = EPOLLIN;
  tev.data.u64 = UINT64_MAX;
  epoll_ctl(gen->epoll_fd_, EPOLL_CTL_ADD, gen->timer_fd_, &tev);
  for (size_t c = 0; c < conns; ++c) {
    EMB_ASSIGN_OR_RETURN(int fd,
                         server::ConnectWithDeadline("127.0.0.1", port, 5000));
    EMB_RETURN_NOT_OK(server::SetNonBlocking(fd));
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    epoll_ctl(gen->epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    gen->conns_.push_back(std::move(conn));
  }
  return gen;
}

LoadGen::~LoadGen() {
  for (auto& c : conns_) {
    if (c->fd >= 0) close(c->fd);
  }
  if (timer_fd_ >= 0) close(timer_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

Result<std::vector<QueryTiming>> LoadGen::OpenLoop(
    const std::vector<PlannedQuery>& queries, const ResponseFn& on_response,
    int64_t deadline_ns) {
  return Drive(queries, on_response, /*open_loop=*/true, 0, deadline_ns);
}

Result<std::vector<QueryTiming>> LoadGen::ClosedLoop(
    const std::vector<PlannedQuery>& queries, const ResponseFn& on_response,
    int64_t stop_ns, int64_t deadline_ns) {
  return Drive(queries, on_response, /*open_loop=*/false, stop_ns,
               deadline_ns);
}

Result<std::vector<QueryTiming>> LoadGen::Drive(
    const std::vector<PlannedQuery>& queries, const ResponseFn& on_response,
    bool open_loop, int64_t stop_ns, int64_t deadline_ns) {
  const size_t n = queries.size();
  std::vector<QueryTiming> timings(n);
  std::vector<size_t> frames_left(n);
  for (size_t q = 0; q < n; ++q) {
    frames_left[q] = queries[q].frames.size();
    timings[q].due_ns = queries[q].due_ns;
    if (queries[q].conn >= conns_.size()) {
      return Status::InvalidArgument("query addresses a missing connection");
    }
  }
  // Closed loop: each connection walks its own queries in order.
  std::vector<std::vector<size_t>> per_conn(conns_.size());
  std::vector<size_t> cursor(conns_.size(), 0);
  if (!open_loop) {
    for (size_t q = 0; q < n; ++q) per_conn[queries[q].conn].push_back(q);
  }

  size_t sent = 0;
  size_t completed = 0;
  Status failure = Status::OK();

  auto update_interest = [&](size_t c) {
    Conn& conn = *conns_[c];
    bool want = !conn.writer.empty();
    if (want == conn.want_write) return;
    conn.want_write = want;
    epoll_event ev{};
    ev.events = want ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
    ev.data.u64 = c;
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  };
  auto send = [&](size_t q) {
    const PlannedQuery& pq = queries[q];
    Conn& conn = *conns_[pq.conn];
    const int64_t t = NowNs();
    timings[q].sent_ns = t;
    if (!open_loop) timings[q].due_ns = t;
    for (size_t f = 0; f < pq.frames.size(); ++f) {
      conn.writer.Enqueue(*pq.frames[f]);
      conn.inflight.push_back({q, f, t});
      counters_.frames_sent += 1;
      counters_.bytes_sent += pq.frames[f]->size();
    }
    ++sent;
    auto flushed = conn.writer.Flush(conn.fd);
    if (!flushed.ok()) failure = flushed.status();
    update_interest(pq.conn);
  };
  auto send_next_closed = [&](size_t c) {
    if (cursor[c] < per_conn[c].size() && NowNs() < stop_ns) {
      send(per_conn[c][cursor[c]++]);
    }
  };

  size_t next_due = 0;  // open loop: next query to send
  if (!open_loop) {
    for (size_t c = 0; c < conns_.size(); ++c) send_next_closed(c);
  }
  epoll_event events[64];
  for (;;) {
    if (!failure.ok()) return failure;
    if (open_loop) {
      const int64_t now = NowNs();
      while (next_due < n && queries[next_due].due_ns <= now) send(next_due++);
      if (next_due < n) {
        itimerspec its{};
        int64_t due = queries[next_due].due_ns;
        its.it_value.tv_sec = due / 1000000000;
        its.it_value.tv_nsec = due % 1000000000;
        timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &its, nullptr);
      }
      if (next_due == n && completed == n) break;
    } else if (completed == sent) {
      bool more = false;
      for (size_t c = 0; c < conns_.size(); ++c) {
        if (cursor[c] < per_conn[c].size() && NowNs() < stop_ns) more = true;
      }
      if (!more) break;
      for (size_t c = 0; c < conns_.size(); ++c) {
        if (conns_[c]->inflight.empty()) send_next_closed(c);
      }
      continue;
    }
    if (NowNs() > deadline_ns) {
      return Status::Unavailable("load phase did not complete in time");
    }
    int ready = epoll_wait(epoll_fd_, events, 64, 200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("epoll_wait: ") +
                             std::strerror(errno));
    }
    for (int i = 0; i < ready; ++i) {
      if (events[i].data.u64 == UINT64_MAX) {
        uint64_t expirations;
        while (read(timer_fd_, &expirations, sizeof(expirations)) > 0) {
        }
        continue;
      }
      const size_t c = static_cast<size_t>(events[i].data.u64);
      Conn& conn = *conns_[c];
      if (events[i].events & EPOLLOUT) {
        auto flushed = conn.writer.Flush(conn.fd);
        if (!flushed.ok()) return flushed.status();
        update_interest(c);
      }
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        auto pumped = conn.reader.Pump(conn.fd);
        if (!pumped.ok()) return pumped.status();
        std::vector<uint8_t> frame;
        for (;;) {
          auto next = conn.reader.Next(&frame);
          if (!next.ok()) return next.status();
          if (!*next) break;
          const int64_t t = NowNs();
          if (conn.inflight.empty()) {
            return Status::Corruption("response with no request in flight");
          }
          Conn::InFlight in = conn.inflight.front();
          conn.inflight.pop_front();
          counters_.frames_received += 1;
          counters_.bytes_received += frame.size();
          on_response(in.query, in.frame, std::move(frame), in.send_ns, t);
          frame = {};
          if (--frames_left[in.query] == 0) {
            timings[in.query].done_ns = t;
            ++completed;
            if (!open_loop) send_next_closed(c);
          }
        }
        if (!*pumped) return Status::Unavailable("server closed a connection");
      }
    }
  }
  return timings;
}

// --- Spans -------------------------------------------------------------------

void SpanLog::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

uint64_t FrameKey(const std::vector<uint8_t>& frame) {
  if (frame.size() < server::kFrameHeaderBytes) return 0;
  uint64_t sid = 0;
  for (int i = 8; i < 16; ++i) sid = (sid << 8) | frame[i];
  uint64_t sum = 0;
  for (int i = 20; i < 24; ++i) sum = (sum << 8) | frame[i];
  return (sid * 0x9E3779B97F4A7C15ull) ^ sum;
}

std::string EncodeSpans(const std::vector<Span>& spans) {
  std::string out = "n=" + std::to_string(spans.size());
  char buf[160];
  for (const Span& s : spans) {
    std::snprintf(buf, sizeof(buf), " %u,%llu,%llu,%lld,%lld,%llu", s.kind,
                  static_cast<unsigned long long>(s.key),
                  static_cast<unsigned long long>(s.tid),
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns),
                  static_cast<unsigned long long>(s.count));
    out += buf;
  }
  return out;
}

std::vector<Span> DecodeSpans(const std::string& line) {
  std::vector<Span> spans;
  std::istringstream in(line);
  std::string token;
  in >> token;  // n=
  while (in >> token) {
    Span s;
    unsigned kind = 0;
    unsigned long long key = 0, tid = 0, count = 0;
    long long start = 0, end = 0;
    if (std::sscanf(token.c_str(), "%u,%llu,%llu,%lld,%lld,%llu", &kind, &key,
                    &tid, &start, &end, &count) == 6) {
      s.kind = kind;
      s.key = key;
      s.tid = tid;
      s.start_ns = start;
      s.end_ns = end;
      s.count = count;
      spans.push_back(s);
    }
  }
  return spans;
}

Result<std::vector<uint8_t>> TracedTransport::RoundTrip(
    const std::vector<uint8_t>& request) {
  const bool on = log_->enabled();
  const int64_t start = NowNs();
  auto result = inner_->RoundTrip(request);
  if (on) log_->Add({kTransportTrip, 0, ThreadId(), start, NowNs(), 0});
  return result;
}

void TracedTransport::SubmitRoundTrip(const std::vector<uint8_t>& request,
                                      RoundTripCompletion done) {
  if (!log_->enabled()) {
    inner_->SubmitRoundTrip(request, std::move(done));
    return;
  }
  const int64_t start = NowNs();
  const uint64_t tid = ThreadId();
  SpanLog* log = log_;
  inner_->SubmitRoundTrip(
      request, [log, start, tid, done = std::move(done)](
                   Result<std::vector<uint8_t>> response) {
        log->Add({kTransportTrip, 0, tid, start, NowNs(), 0});
        done(std::move(response));
      });
}

server::AsyncFrontEnd::BatchHandler TracedHandler(
    server::AsyncFrontEnd::BatchHandler inner, SpanLog* log) {
  return [inner = std::move(inner),
          log](const std::vector<std::vector<uint8_t>>& requests) {
    if (!log->enabled()) return inner(requests);
    const int64_t start = NowNs();
    auto responses = inner(requests);
    const int64_t end = NowNs();
    const uint64_t tid = ThreadId();
    log->Add({kHandlerCall, 0, tid, start, end, requests.size()});
    for (const auto& request : requests) {
      log->Add({kHandlerFrame, FrameKey(request), tid, start, end, 0});
    }
    return responses;
  };
}

}  // namespace e2e
