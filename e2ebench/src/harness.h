// Process, traffic and tracing plumbing of the end-to-end benchmark.
//
//   Child       a forked server-side process with a line-oriented control
//               channel (two pipes). It dies with the benchmark on every
//               path: PR_SET_PDEATHSIG covers the parent being killed, the
//               control channel's EOF covers a parent that exited, and
//               ReapChildren() covers every orderly or failed exit.
//   LoadGen     one thread driving up to nproc loopback connections with
//               epoll + a CLOCK_MONOTONIC timerfd: open-loop (each query
//               sent when due) or closed-loop (each connection sends its
//               next query when the previous one completes).
//   SpanLog     in-memory spans, written out only when the run ends.
//   TracedTransport / TracedHandler
//               decorators that record spans around the program's public
//               ShardTransport and AsyncFrontEnd::BatchHandler calls.

#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "embellish.h"

namespace e2e {

using embellish::Result;
using embellish::Status;

/// \brief CLOCK_MONOTONIC in nanoseconds (shared by every process).
int64_t NowNs();

/// \brief Thread CPU time in nanoseconds.
int64_t ThreadCpuNs();

/// \brief Process CPU (user + sys, all threads) in microseconds and peak
///        resident set in KiB, from getrusage(RUSAGE_SELF).
struct Usage {
  int64_t cpu_us = 0;
  int64_t maxrss_kb = 0;
};
Usage SelfUsage();

/// \brief Key=value lines: the control channel's message format.
using KeyValues = std::map<std::string, std::string>;
std::string FormatKeyValues(const KeyValues& kv);
KeyValues ParseKeyValues(const std::string& line);
double GetNum(const KeyValues& kv, const std::string& key);

// --- Child processes ---------------------------------------------------------

/// \brief The child side of a control channel.
class ControlChannel {
 public:
  ControlChannel(int in_fd, int out_fd) : in_fd_(in_fd), out_fd_(out_fd) {}
  /// \brief Next command line; false on EOF (the parent is gone).
  bool ReadLine(std::string* line);
  void WriteLine(const std::string& line);

 private:
  int in_fd_;
  int out_fd_;
  std::string buffer_;
};

/// \brief A forked server-side process. `body` runs in the child with its
///        control channel and its return value is the child's exit code.
///        Fork only while the calling process has no other threads.
struct Child {
  pid_t pid = -1;
  int cmd_fd = -1;    // parent writes commands
  int reply_fd = -1;  // parent reads replies
  std::string name;
  std::string buffer;
};

Result<Child*> SpawnChild(const std::string& name,
                          const std::function<int(ControlChannel&)>& body);

/// \brief Sends one command line and reads one reply line (timeout-bound).
Result<std::string> Command(Child* child, const std::string& line,
                            int timeout_ms = 60000);

/// \brief Reads one unprompted line from the child (e.g. "ready").
Result<std::string> AwaitLine(Child* child, int timeout_ms);

/// \brief Kills (SIGKILL) and waits for every spawned child. Idempotent.
void ReapChildren();

/// \brief Installs SIGINT/SIGTERM/SIGHUP handlers that kill the children
///        and exit non-zero.
void InstallSignalHandlers();

// --- Load generator ----------------------------------------------------------

/// \brief One logical query: frames pipelined on one connection.
struct PlannedQuery {
  std::vector<const std::vector<uint8_t>*> frames;
  int64_t due_ns = 0;  ///< open loop: absolute due time
  size_t conn = 0;     ///< connection index
};

/// \brief Per-query outcome.
struct QueryTiming {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;  ///< first frame handed to the socket
  int64_t done_ns = 0;  ///< last response frame read
};

/// \brief Called for every response frame on the load generator thread.
using ResponseFn =
    std::function<void(size_t query, size_t frame, std::vector<uint8_t> bytes,
                       int64_t send_ns, int64_t recv_ns)>;

struct LoadCounters {
  uint64_t frames_sent = 0;
  uint64_t frames_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
};

class LoadGen {
 public:
  static Result<std::unique_ptr<LoadGen>> Connect(uint16_t port, size_t conns);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  size_t conns() const { return conns_.size(); }

  /// \brief Sends each query at its due time; returns when all completed.
  Result<std::vector<QueryTiming>> OpenLoop(
      const std::vector<PlannedQuery>& queries, const ResponseFn& on_response,
      int64_t deadline_ns);

  /// \brief Each connection keeps one query outstanding, taking the next
  ///        query of `queries` (in order) until `stop_ns`, then drains.
  ///        Returns the timings of the queries that were sent.
  Result<std::vector<QueryTiming>> ClosedLoop(
      const std::vector<PlannedQuery>& queries, const ResponseFn& on_response,
      int64_t stop_ns, int64_t deadline_ns);

  const LoadCounters& counters() const { return counters_; }

 private:
  struct Conn;
  LoadGen() = default;
  // Shared engine of OpenLoop and ClosedLoop.
  Result<std::vector<QueryTiming>> Drive(
      const std::vector<PlannedQuery>& queries, const ResponseFn& on_response,
      bool open_loop, int64_t stop_ns, int64_t deadline_ns);

  std::vector<std::unique_ptr<Conn>> conns_;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  LoadCounters counters_;
};

// --- Spans -------------------------------------------------------------------

struct Span {
  uint32_t kind = 0;   ///< SpanKind
  uint64_t key = 0;    ///< request identity (session id ^ checksum) or 0
  uint64_t tid = 0;    ///< recording thread
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t count = 0;  ///< e.g. frames in a handler batch
};

enum SpanKind : uint32_t {
  kHandlerCall = 1,   ///< one BatchHandler invocation (count = frames)
  kHandlerFrame = 2,  ///< one frame inside a handler call (key set)
  kTransportTrip = 3, ///< one shard round trip, submit to completion
};

/// \brief Thread-safe in-memory span log, enabled at run time.
class SpanLog {
 public:
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }
  void Add(const Span& span);
  std::vector<Span> Take();

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// \brief Identity of a request frame: session id ^ frame checksum.
uint64_t FrameKey(const std::vector<uint8_t>& frame);

/// \brief Serializes spans as one control-channel line and back.
std::string EncodeSpans(const std::vector<Span>& spans);
std::vector<Span> DecodeSpans(const std::string& line);

/// \brief ShardTransport decorator recording one span per round trip. It
///        forwards SupportsAsyncSubmit/SubmitRoundTrip, so the traced
///        deployment keeps the same async fan-out path.
class TracedTransport : public embellish::server::ShardTransport {
 public:
  TracedTransport(embellish::server::ShardTransport* inner, SpanLog* log)
      : inner_(inner), log_(log) {}
  Result<std::vector<uint8_t>> RoundTrip(
      const std::vector<uint8_t>& request) override;
  bool SupportsAsyncSubmit() const override {
    return inner_->SupportsAsyncSubmit();
  }
  void SubmitRoundTrip(const std::vector<uint8_t>& request,
                       RoundTripCompletion done) override;

 private:
  embellish::server::ShardTransport* inner_;
  SpanLog* log_;
};

/// \brief Wraps a batch handler (the lambda ServeAsync installs) with a
///        call span and one frame span per request.
embellish::server::AsyncFrontEnd::BatchHandler TracedHandler(
    embellish::server::AsyncFrontEnd::BatchHandler inner, SpanLog* log);

/// \brief This thread's id as a small integer.
uint64_t ThreadId();

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_H_
