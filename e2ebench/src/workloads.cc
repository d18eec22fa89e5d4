#include "workloads.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "harness.h"

namespace e2e {
namespace {

namespace core = embellish::core;
namespace corpus = embellish::corpus;
namespace crypto = embellish::crypto;
namespace index = embellish::index;
namespace server = embellish::server;
namespace wordnet = embellish::wordnet;
using embellish::Rng;
using embellish::ThreadPool;
using index::ScoredDoc;
using wordnet::TermId;

constexpr size_t kTopK = 10;

// ---- Workload shapes ---------------------------------------------------------

enum class Kind { kPrivateSearch, kPirLists, kLiveIndex };

// Everything a workload's inputs are made of. The seed picks the concrete
// lexicon, corpus, sessions, term sets and arrival times; the shape is
// fixed per workload so runs with different seeds measure the same thing.
struct Shape {
  Kind kind = Kind::kPrivateSearch;
  size_t terms = 30000;        // lexicon size
  size_t docs = 10000;         // corpus documents
  size_t bucket_size = 4;      // BktSz
  size_t key_bits = 256;       // Benaloh and PIR moduli
  size_t sessions = 512;
  size_t sets_per_session = 3;  // each session re-issues sets from its pool
  size_t terms_per_set = 2;     // genuine terms per query
  double term_zipf = 0.8;      // genuine terms over the df-ranked vocabulary
  double set_zipf = 1.0;       // a session's choice among its sets
  double stop_df = 0.02;       // stop words: terms in more of the documents
  double open_qps = 120;       // open-loop arrival rate
  double pr_share = 1.0;       // live_index: PR reads; the rest are top-k
  size_t slices = 4;           // private_search: slice processes
  size_t shards = 2;           // live_index: initial in-process shards
  size_t deltas = 4;           // live_index: document deltas per run
  size_t delta_docs = 100;     // live_index: documents per delta
  size_t closed_pool = 0;      // pir_lists: fresh queries kept for closed loop
};

Shape ShapeFor(const std::string& name, bool* ok) {
  Shape s;
  *ok = true;
  if (name == "private_search") {
    s.kind = Kind::kPrivateSearch;
    s.open_qps = 120;
  } else if (name == "pir_lists") {
    s.kind = Kind::kPirLists;
    s.docs = 1500;
    s.sessions = 128;
    s.open_qps = 90;
    s.closed_pool = 600;
  } else if (name == "live_index") {
    s.kind = Kind::kLiveIndex;
    s.sessions = 64;
    s.pr_share = 0.1;
    s.open_qps = 120;
  } else {
    *ok = false;
  }
  return s;
}

uint64_t Mix(uint64_t seed, uint64_t tag) {
  uint64_t z = seed ^ (tag * 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---- Substrate -----------------------------------------------------------------

struct Substrate {
  std::unique_ptr<wordnet::WordNetDatabase> lexicon;
  std::shared_ptr<core::BucketOrganization> buckets;
  std::unique_ptr<corpus::Corpus> corpus;
  std::unique_ptr<index::InvertedIndex> index;  // null on live_index
  std::vector<TermId> vocab;  // genuine-term vocabulary, df descending
  std::unordered_set<TermId> stopwords;
};

std::vector<corpus::Document> RemoveStopwords(
    const std::vector<corpus::Document>& docs,
    const std::unordered_set<TermId>& stopwords) {
  std::vector<corpus::Document> out = docs;
  for (corpus::Document& d : out) {
    d.tokens.erase(std::remove_if(d.tokens.begin(), d.tokens.end(),
                                  [&](TermId t) { return stopwords.count(t) > 0; }),
                   d.tokens.end());
  }
  return out;
}

corpus::SyntheticCorpusOptions CorpusOptions(const Shape& shape, size_t docs,
                                             uint64_t seed) {
  corpus::SyntheticCorpusOptions co;
  co.num_docs = docs;
  co.mean_doc_tokens = 150;
  co.num_topics = 64;
  co.terms_per_topic = std::min<size_t>(1500, shape.terms / 4);
  co.seed = seed;
  return co;
}

bool BuildSubstrate(const Shape& shape, uint64_t seed, bool build_index,
                    Substrate* out, std::string* error) {
  wordnet::SyntheticWordNetOptions wo;
  wo.target_term_count = shape.terms;
  wo.seed = Mix(seed, 1);
  auto lex = wordnet::GenerateSyntheticWordNet(wo);
  if (!lex.ok()) {
    *error = "lexicon: " + lex.status().ToString();
    return false;
  }
  out->lexicon =
      std::make_unique<wordnet::WordNetDatabase>(std::move(lex).value());
  auto specificity = core::SpecificityMap::FromHypernymDepth(*out->lexicon);
  auto sequences = core::SequenceDictionary(*out->lexicon);
  core::BucketizerOptions bo;
  bo.bucket_size = shape.bucket_size;
  bo.segment_size = SIZE_MAX;  // clamped to N / BktSz
  auto buckets = core::FormBuckets(sequences, specificity, bo);
  if (!buckets.ok()) {
    *error = "buckets: " + buckets.status().ToString();
    return false;
  }
  out->buckets =
      std::make_shared<core::BucketOrganization>(std::move(buckets).value());
  auto corp = corpus::GenerateSyntheticCorpus(
      *out->lexicon, CorpusOptions(shape, shape.docs, Mix(seed, 2)));
  if (!corp.ok()) {
    *error = "corpus: " + corp.status().ToString();
    return false;
  }
  // Stop-word removal, as a text pipeline does before indexing: terms in
  // more than `stop_df` of the documents are dropped from every document
  // (and from live_index's deltas). What remains is the query vocabulary,
  // ranked by document frequency for the Zipf draws.
  std::unordered_map<TermId, size_t> df;
  for (const corpus::Document& doc : corp->documents()) {
    std::unordered_set<TermId> seen(doc.tokens.begin(), doc.tokens.end());
    for (TermId t : seen) ++df[t];
  }
  const size_t cap = static_cast<size_t>(shape.stop_df * shape.docs);
  for (const auto& [t, f] : df) {
    if (f > cap) out->stopwords.insert(t);
  }
  out->corpus = std::make_unique<corpus::Corpus>(
      RemoveStopwords(corp->documents(), out->stopwords));
  if (build_index) {
    auto built = index::BuildIndex(*out->corpus, {});
    if (!built.ok()) {
      *error = "index: " + built.status().ToString();
      return false;
    }
    out->index =
        std::make_unique<index::InvertedIndex>(std::move(built->index));
  }
  std::vector<std::pair<size_t, TermId>> ranked;
  for (const auto& [t, f] : df) {
    if (f <= cap && out->buckets->Locate(t).ok()) ranked.push_back({f, t});
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  for (const auto& r : ranked) out->vocab.push_back(r.second);
  if (out->vocab.size() < 100) {
    *error = "query vocabulary too small";
    return false;
  }
  return true;
}

// ---- Traffic ---------------------------------------------------------------------

struct SessionPlan {
  uint64_t id = 0;
  uint64_t key_seed = 0;
  std::vector<std::vector<TermId>> sets;  // sorted, distinct terms
};

std::vector<SessionPlan> PlanSessions(const Shape& shape,
                                      const std::vector<TermId>& vocab,
                                      uint64_t seed) {
  Rng rng(Mix(seed, 3));
  corpus::ZipfSampler terms(vocab.size(), shape.term_zipf);
  std::vector<SessionPlan> sessions(shape.sessions);
  for (size_t s = 0; s < sessions.size(); ++s) {
    sessions[s].id = 1000 + s;
    sessions[s].key_seed = Mix(seed, 0x10000 + s);
    for (size_t j = 0; j < shape.sets_per_session; ++j) {
      std::vector<TermId> set;
      while (set.size() < shape.terms_per_set) {
        TermId t = vocab[terms.Sample(&rng)];
        if (std::find(set.begin(), set.end(), t) == set.end()) set.push_back(t);
      }
      std::sort(set.begin(), set.end());
      sessions[s].sets.push_back(std::move(set));
    }
  }
  return sessions;
}

struct Draw {
  uint32_t session = 0;
  uint32_t set = 0;
  bool topk = false;
};

class DrawStream {
 public:
  DrawStream(const Shape& shape, uint64_t seed)
      : shape_(shape), rng_(seed), sets_(shape.sets_per_session, shape.set_zipf) {}
  Draw Next() {
    Draw d;
    d.session = static_cast<uint32_t>(rng_.Uniform(shape_.sessions));
    d.set = static_cast<uint32_t>(sets_.Sample(&rng_));
    d.topk = rng_.NextDouble() >= shape_.pr_share;
    return d;
  }
  double Exponential(double rate) {
    double u = rng_.NextDouble();
    return -std::log(1.0 - u) / rate;
  }

 private:
  const Shape& shape_;
  Rng rng_;
  corpus::ZipfSampler sets_;
};

// ---- Requests and responses -------------------------------------------------------

enum class ReqKind { kHello, kPr, kPir, kTopK };

struct Request {
  ReqKind kind = ReqKind::kPr;
  uint32_t session = 0;
  uint32_t set = 0;
  TermId term = 0;  // PIR target
  std::vector<uint8_t> frame;
  // Distinct response bytes seen for this request (usually one).
  std::vector<std::vector<uint8_t>> responses;
  std::vector<uint64_t> response_hashes;
};

uint64_t Hash64(const std::vector<uint8_t>& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (uint8_t b : bytes) h = (h ^ b) * 1099511628211ull;
  return h;
}

struct PrSession {
  std::unique_ptr<crypto::BenalohKeyPair> keys;
  std::unique_ptr<core::PrivateRetrievalClient> client;
  std::vector<uint8_t> hello;
};

// One logical query of a phase: its request ids, in send order.
struct QueryPlan {
  std::vector<size_t> requests;
  size_t conn = 0;
  int64_t due_ns = 0;
  bool pr = true;  // private query (PR or PIR) vs plaintext top-k
};

struct PhaseResult {
  std::vector<QueryTiming> timings;
  std::vector<char> failed;
  std::vector<char> sent;
  // Per frame: loadgen send/receive times and the request key (traced pass).
  struct FrameRecord {
    uint64_t key;
    int64_t send_ns;
    int64_t recv_ns;
  };
  std::vector<FrameRecord> frames;
};

bool IsFailure(const std::vector<uint8_t>& response) {
  if (response.size() < server::kFrameHeaderBytes) return true;
  auto kind = static_cast<server::FrameKind>(response[5]);
  return kind == server::FrameKind::kError ||
         kind == server::FrameKind::kDegradedResult;
}

// ---- Server-side processes --------------------------------------------------------

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AddServerKv(const server::ServerStats& s, KeyValues* kv) {
  (*kv)["frames"] = Num(s.frames);
  (*kv)["hellos"] = Num(s.hellos);
  (*kv)["queries"] = Num(s.queries);
  (*kv)["pir_queries"] = Num(s.pir_queries);
  (*kv)["topk_queries"] = Num(s.topk_queries);
  (*kv)["errors"] = Num(s.errors);
  (*kv)["shed"] = Num(s.shed);
  (*kv)["cache_hits"] = Num(s.cache_hits);
  (*kv)["cache_misses"] = Num(s.cache_misses);
  (*kv)["uplink_bytes"] = Num(s.uplink_bytes);
  (*kv)["downlink_bytes"] = Num(s.downlink_bytes);
  (*kv)["server_cpu_ms"] = Num(s.server_cpu_ms);
  (*kv)["server_io_ms"] = Num(s.server_io_ms);
  (*kv)["epoch_swaps"] = Num(s.epoch_swaps);
  (*kv)["answer_path_builds"] = Num(s.answer_path_builds);
  (*kv)["topk_shards_visited"] = Num(s.topk_shards_visited);
  (*kv)["topk_shards_skipped"] = Num(s.topk_shards_skipped);
  (*kv)["pir_batch_sweeps"] = Num(s.pir_batch_sweeps);
  (*kv)["pir_batched_queries"] = Num(s.pir_batched_queries);
}

void AddFrontKv(const server::AsyncFrontEndStats& s, KeyValues* kv) {
  (*kv)["fe_frames_in"] = Num(s.frames_in);
  (*kv)["fe_responses_out"] = Num(s.responses_out);
  (*kv)["fe_shed"] = Num(s.shed);
}

void AddUsageKv(KeyValues* kv) {
  Usage u = SelfUsage();
  (*kv)["cpu_us"] = Num(static_cast<double>(u.cpu_us));
  (*kv)["maxrss_kb"] = Num(static_cast<double>(u.maxrss_kb));
}

// Serves control commands until the parent goes away. `stats` fills the
// reply to "stats"; `extra` handles workload-specific commands.
[[noreturn]] void ControlLoop(
    ControlChannel& channel, SpanLog* log,
    const std::function<void(KeyValues*)>& stats,
    const std::function<bool(const std::string&, std::string*)>& extra) {
  std::string line;
  while (channel.ReadLine(&line)) {
    std::string reply;
    if (line == "usage") {
      KeyValues kv;
      AddUsageKv(&kv);
      reply = FormatKeyValues(kv);
    } else if (line == "stats") {
      KeyValues kv;
      stats(&kv);
      AddUsageKv(&kv);
      reply = FormatKeyValues(kv);
    } else if (line == "trace on" && log != nullptr) {
      log->set_enabled(true);
      reply = "ok";
    } else if (line == "trace off" && log != nullptr) {
      log->set_enabled(false);
      reply = "ok";
    } else if (line == "spans" && log != nullptr) {
      reply = EncodeSpans(log->Take());
    } else if (!extra || !extra(line, &reply)) {
      reply = "error unknown command";
    }
    channel.WriteLine(reply);
  }
  // The parent is gone: leave without running destructors of serving
  // threads that may still be blocked in I/O.
  _exit(0);
}

struct Deployment {
  uint16_t port = 0;
  std::vector<Child*> servers;  // every server-side process
  Child* front = nullptr;       // the process hosting the AsyncFrontEnd
};

// The traced deployment's front end: the handler ServeAsync installs,
// wrapped with spans.
Result<std::unique_ptr<server::AsyncFrontEnd>> TracedFrontEnd(
    int listen_fd, server::EventLoop* loop,
    server::AsyncFrontEnd::BatchHandler handler, SpanLog* log) {
  return server::AsyncFrontEnd::Create(listen_fd, loop,
                                       TracedHandler(std::move(handler), log));
}

// private_search: `slices` slice processes + one front-end process running
// AsyncFrontEnd + ShardCoordinator on one EventLoop over MultiplexedTransports
// (the examples/async_server deployment).
bool DeployPrivateSearch(const Shape& shape, const Substrate& sub, bool trace,
                         Deployment* dep, std::string* error) {
  std::vector<uint16_t> slice_ports(shape.slices);
  for (size_t s = 0; s < shape.slices; ++s) {
    auto listen_fd = server::ListenOnLoopback(&slice_ports[s]);
    if (!listen_fd.ok()) {
      *error = listen_fd.status().ToString();
      return false;
    }
    const int fd = *listen_fd;
    const index::InvertedIndex* idx = sub.index.get();
    const core::BucketOrganization* buckets = sub.buckets.get();
    const size_t count = shape.slices;
    auto child = SpawnChild("slice" + std::to_string(s), [=](ControlChannel& ch) {
      index::IndexCatalogOptions copts;
      copts.sharding.shard_count = count;
      auto catalog = index::IndexCatalog::Freeze(idx, buckets, nullptr, copts);
      if (!catalog.ok()) return 2;
      server::EmbellishServerOptions options;
      options.shard_slice = s;
      options.shard_slice_count = count;
      server::EmbellishServer slice(catalog->get(), options);
      server::ShardEndpoint endpoint(&slice, s);
      // ControlLoop never returns (the process exits), so this thread is
      // never joined or destroyed.
      std::thread serve([&] { (void)server::ServeShardConnections(fd, &endpoint); });
      ch.WriteLine("ready");
      ControlLoop(ch, nullptr, [&](KeyValues* kv) { AddServerKv(slice.stats(), kv); },
                  nullptr);
    });
    close(fd);
    if (!child.ok()) {
      *error = child.status().ToString();
      return false;
    }
    dep->servers.push_back(*child);
  }
  auto listen_fd = server::ListenOnLoopback(&dep->port);
  if (!listen_fd.ok()) {
    *error = listen_fd.status().ToString();
    return false;
  }
  const int fd = *listen_fd;
  auto child = SpawnChild("frontend", [=](ControlChannel& ch) {
    auto loop = server::EventLoop::Create();
    if (!loop.ok() || !(*loop)->Start().ok()) return 2;
    SpanLog log;
    std::vector<std::unique_ptr<server::MultiplexedTransport>> transports;
    std::vector<std::unique_ptr<TracedTransport>> traced;
    std::vector<server::ShardTransport*> raw;
    for (uint16_t port : slice_ports) {
      auto t = server::MultiplexedTransport::Connect("127.0.0.1", port,
                                                     loop->get());
      if (!t.ok()) return 3;
      transports.push_back(std::move(*t));
      if (trace) {
        traced.push_back(
            std::make_unique<TracedTransport>(transports.back().get(), &log));
        raw.push_back(traced.back().get());
      } else {
        raw.push_back(transports.back().get());
      }
    }
    server::ShardCoordinatorOptions copts;
    copts.allow_partial_results = true;  // as examples/async_server deploys it
    server::ShardCoordinator coordinator(raw, copts);
    if (!coordinator.Handshake().ok()) return 4;
    auto started =
        trace ? TracedFrontEnd(
                    fd, loop->get(),
                    [&coordinator](const std::vector<std::vector<uint8_t>>& r) {
                      return coordinator.HandleBatch(r);
                    },
                    &log)
              : coordinator.ServeAsync(fd, loop->get());
    if (!started.ok()) return 5;
    server::AsyncFrontEnd* front = started->get();
    ch.WriteLine("ready");
    ControlLoop(
        ch, &log,
        [&](KeyValues* kv) {
          auto cs = coordinator.stats();
          (*kv)["co_frames"] = Num(cs.frames);
          (*kv)["co_queries"] = Num(cs.queries);
          (*kv)["co_errors"] = Num(cs.errors);
          (*kv)["co_blocking_io_trips"] = Num(cs.blocking_io_trips);
          (*kv)["co_async_io_trips"] = Num(cs.async_io_trips);
          (*kv)["co_shard_trips"] = Num(cs.shard_trips);
          (*kv)["co_shard_failures"] = Num(cs.shard_failures);
          (*kv)["co_degraded"] = Num(cs.degraded_answers);
          AddFrontKv(front->stats(), kv);
        },
        nullptr);
  });
  close(fd);
  if (!child.ok()) {
    *error = child.status().ToString();
    return false;
  }
  dep->front = *child;
  dep->servers.push_back(*child);
  return true;
}

// One scheduled index mutation of live_index.
struct IndexOp {
  bool reshard = false;
  size_t shards = 0;                  // reshard target
  std::vector<corpus::Document> docs;  // delta
};

// pir_lists and live_index: one process, EmbellishServer behind its async
// front end. live_index serves a mutable catalog and applies `ops` on a
// writer thread when told to start.
bool DeploySingle(const Shape& shape, const Substrate& sub, bool trace,
                  const std::vector<IndexOp>* ops, Deployment* dep,
                  std::string* error) {
  auto listen_fd = server::ListenOnLoopback(&dep->port);
  if (!listen_fd.ok()) {
    *error = listen_fd.status().ToString();
    return false;
  }
  const int fd = *listen_fd;
  auto child = SpawnChild("server", [&, fd](ControlChannel& ch) {
    const size_t threads = std::max(1u, std::thread::hardware_concurrency());
    ThreadPool pool(threads);
    std::unique_ptr<index::IndexCatalog> catalog;
    index::IndexCatalogOptions copts;
    if (shape.kind == Kind::kLiveIndex) {
      copts.sharding.shard_count = shape.shards;
      auto created =
          index::IndexCatalog::Create(*sub.corpus, sub.buckets, copts, &pool);
      if (!created.ok()) return 2;
      catalog = std::move(*created);
    } else {
      auto frozen = index::IndexCatalog::Freeze(sub.index.get(),
                                                sub.buckets.get(), nullptr, copts);
      if (!frozen.ok()) return 2;
      catalog = std::move(*frozen);
    }
    server::EmbellishServer srv(catalog.get(), {}, &pool);
    auto loop = server::EventLoop::Create();
    if (!loop.ok() || !(*loop)->Start().ok()) return 3;
    SpanLog log;
    auto started =
        trace ? TracedFrontEnd(
                    fd, loop->get(),
                    [&srv](const std::vector<std::vector<uint8_t>>& r) {
                      return srv.HandleBatch(r);
                    },
                    &log)
              : srv.ServeAsync(fd, loop->get());
    if (!started.ok()) return 5;
    server::AsyncFrontEnd* front = started->get();
    // live_index writer: op k is issued at start + (k + 1) * period and
    // timed until Acquire() sees its epoch.
    std::atomic<size_t> ops_done{0};
    std::vector<double> install_ms(ops != nullptr ? ops->size() : 0, 0.0);
    std::thread writer;
    auto extra = [&](const std::string& line, std::string* reply) {
      if (line.rfind("writes ", 0) == 0 && ops != nullptr) {
        long long start = 0, period = 0;
        std::sscanf(line.c_str(), "writes %lld %lld", &start, &period);
        writer = std::thread([&, start, period] {
          for (size_t k = 0; k < ops->size(); ++k) {
            const int64_t at = start + static_cast<int64_t>(k + 1) * period;
            while (NowNs() < at) {
              std::this_thread::sleep_for(std::chrono::microseconds(
                  std::max<int64_t>(1, (at - NowNs()) / 1000)));
            }
            const uint64_t before = catalog->Acquire()->epoch();
            const int64_t t0 = NowNs();
            const IndexOp& op = (*ops)[k];
            if (op.reshard) {
              index::ShardingOptions sharding;
              sharding.shard_count = op.shards;
              catalog->ReshardAsync(sharding);
            } else {
              catalog->ApplyDeltaAsync(op.docs);
            }
            while (catalog->Acquire()->epoch() == before) {
              std::this_thread::sleep_for(std::chrono::microseconds(50));
            }
            install_ms[k] = static_cast<double>(NowNs() - t0) / 1e6;
            ops_done.fetch_add(1);
          }
        });
        *reply = "ok";
        return true;
      }
      if (line == "writes_done" && ops != nullptr) {
        const int64_t deadline = NowNs() + int64_t{50} * 1000000000;
        while (ops_done.load() < ops->size() && NowNs() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (writer.joinable() && ops_done.load() == ops->size()) writer.join();
        catalog->WaitForBuilds();
        KeyValues kv;
        kv["done"] = Num(static_cast<double>(ops_done.load()));
        double delta_ms = 0, reshard_ms = 0;
        size_t n_delta = 0, n_reshard = 0;
        for (size_t k = 0; k < ops->size(); ++k) {
          if ((*ops)[k].reshard) {
            reshard_ms += install_ms[k];
            ++n_reshard;
          } else {
            delta_ms += install_ms[k];
            ++n_delta;
          }
        }
        kv["delta_install_ms"] = Num(n_delta ? delta_ms / n_delta : 0);
        kv["reshard_install_ms"] = Num(n_reshard ? reshard_ms / n_reshard : 0);
        kv["status_ok"] = catalog->last_async_status().ok() ? "1" : "0";
        *reply = FormatKeyValues(kv);
        return true;
      }
      return false;
    };
    ch.WriteLine("ready");
    ControlLoop(
        ch, &log,
        [&](KeyValues* kv) {
          AddServerKv(srv.stats(), kv);
          AddFrontKv(front->stats(), kv);
        },
        extra);
  });
  close(fd);
  if (!child.ok()) {
    *error = child.status().ToString();
    return false;
  }
  dep->front = *child;
  dep->servers.push_back(*child);
  return true;
}

bool WaitReady(const Deployment& dep, std::string* error) {
  for (Child* c : dep.servers) {
    auto line = AwaitLine(c, 120000);
    if (!line.ok() || *line != "ready") {
      *error = c->name + " failed to start";
      return false;
    }
  }
  return true;
}

Result<KeyValues> Query(Child* c, const std::string& cmd) {
  EMB_ASSIGN_OR_RETURN(std::string line, Command(c, cmd));
  return ParseKeyValues(line);
}

// Sum of one numeric field over processes.
double SumField(const std::vector<KeyValues>& kvs, const std::string& key) {
  double total = 0;
  for (const auto& kv : kvs) total += GetNum(kv, key);
  return total;
}

Result<double> ServerCpuMs(const Deployment& dep) {
  double total = 0;
  for (Child* c : dep.servers) {
    EMB_ASSIGN_OR_RETURN(KeyValues kv, Query(c, "usage"));
    total += GetNum(kv, "cpu_us") / 1000.0;
  }
  return total;
}

// ---- Brute-force reference ----------------------------------------------------------

using Sums = std::unordered_map<corpus::DocId, uint64_t>;

Sums BruteSums(const index::InvertedIndex& idx, const std::vector<TermId>& terms) {
  Sums sums;
  for (TermId t : terms) {
    const auto* list = idx.postings(t);
    if (list == nullptr) continue;
    for (const index::Posting& p : *list) sums[p.doc] += p.impact;
  }
  return sums;
}

std::vector<ScoredDoc> BruteRanking(const Sums& sums, size_t k) {
  std::vector<ScoredDoc> out;
  for (const auto& [doc, score] : sums) {
    if (score > 0) out.push_back({doc, score});
  }
  std::sort(out.begin(), out.end(), [](const ScoredDoc& a, const ScoredDoc& b) {
    return a.score != b.score ? a.score > b.score : a.doc < b.doc;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

// Runs fn(i) for i in [0, n) on up to nproc threads.
void ParallelItems(size_t n, const std::function<void(size_t)>& fn) {
  const size_t threads =
      std::min<size_t>(std::max(1u, std::thread::hardware_concurrency()), n);
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  }
  for (auto& th : pool) th.join();
}

// ---- Statistics ------------------------------------------------------------------------

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = p * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// ---- The run ------------------------------------------------------------------------------

class Run {
 public:
  Run(const RunArgs& args, const Shape& shape, RunResult* result)
      : args_(args), shape_(shape), result_(result) {}

  bool Execute(std::string* error);

 private:
  void Note(const std::string& line) { result_->notes.push_back(line); }
  void Check(bool ok, const std::string& what) {
    Note(std::string("# check: ") + what + " [" + (ok ? "PASS" : "FAIL") + "]");
    if (!ok) result_->correct = false;
  }
  void AddMetric(const std::string& name, double value, const std::string& unit) {
    result_->metrics.push_back({name, value, unit});
  }

  bool Prepare(std::string* error);
  size_t AddRequest(Request r) {
    requests_.push_back(std::move(r));
    return requests_.size() - 1;
  }
  size_t PrRequest(uint32_t session, uint32_t set);
  size_t TopKRequest(uint32_t session, uint32_t set);
  QueryPlan PlanQuery(const Draw& d, size_t conn);
  bool RunPhase(std::vector<QueryPlan>& plan, bool open_loop, int64_t stop_ns,
                bool record_frames, PhaseResult* out, std::string* error);
  void ClientPhase(const std::vector<const std::vector<QueryPlan>*>& traffic,
                   double budget_s);
  void Checks(const std::vector<KeyValues>& stats);
  void TraceMetrics(const PhaseResult& traced, const std::vector<Span>& spans,
                    const std::vector<KeyValues>& stats, double untraced_p50,
                    double traced_p50);

  const RunArgs args_;
  const Shape shape_;
  RunResult* result_;

  Substrate sub_;
  std::vector<SessionPlan> sessions_;
  std::vector<PrSession> pr_sessions_;
  std::vector<std::unique_ptr<crypto::PirClient>> pir_clients_;
  std::deque<Request> requests_;
  std::map<std::pair<uint32_t, uint32_t>, size_t> pr_ids_, topk_ids_;
  std::unique_ptr<DrawStream> draws_;
  Rng pir_rng_{1};
  std::vector<IndexOp> ops_;
  Deployment dep_;
  std::unique_ptr<LoadGen> gen_;
  size_t attempted_ = 0, failed_ = 0, pr_frames_sent_ = 0;
  double lag_mean_ms_ = 0, lag_max_ms_ = 0;
  // Client phase results.
  double client_ms_ = 0, formulate_ms_ = 0, decode_ms_ = 0;
  double encrypt_us_ = 0, decrypt_us_ = 0, pir_decode_us_ = 0;
  // Check results.
  double candidates_per_query_ = 0;
  std::vector<std::shared_ptr<const index::IndexEpoch>> states_;
  std::unique_ptr<index::IndexCatalog> checker_catalog_;
};

size_t Run::PrRequest(uint32_t session, uint32_t set) {
  auto key = std::make_pair(session, set);
  auto it = pr_ids_.find(key);
  if (it != pr_ids_.end()) return it->second;
  Request r;
  r.kind = ReqKind::kPr;
  r.session = session;
  r.set = set;
  size_t id = AddRequest(std::move(r));
  pr_ids_[key] = id;
  return id;
}

size_t Run::TopKRequest(uint32_t session, uint32_t set) {
  auto key = std::make_pair(session, set);
  auto it = topk_ids_.find(key);
  if (it != topk_ids_.end()) return it->second;
  Request r;
  r.kind = ReqKind::kTopK;
  r.session = session;
  r.set = set;
  r.frame = server::EncodeFrame(
      server::FrameKind::kTopKQuery, sessions_[session].id,
      server::EncodeTopKQuery(kTopK, sessions_[session].sets[set]));
  size_t id = AddRequest(std::move(r));
  topk_ids_[key] = id;
  return id;
}

// PIR frames carry fresh randomness per execution, so they are built here,
// one per distinct genuine term. PR frames are encoded later (in parallel),
// once per (session, set): the session re-sends the same bytes.
QueryPlan Run::PlanQuery(const Draw& d, size_t conn) {
  QueryPlan q;
  q.conn = conn;
  if (shape_.kind == Kind::kPirLists) {
    for (TermId t : sessions_[d.session].sets[d.set]) {
      Request r;
      r.kind = ReqKind::kPir;
      r.session = d.session;
      r.set = d.set;
      r.term = t;
      auto slot = sub_.buckets->Locate(t);
      auto query = pir_clients_[d.session]->BuildQuery(
          slot->slot, sub_.buckets->bucket(slot->bucket).size(), &pir_rng_);
      r.frame = server::EncodeFrame(
          server::FrameKind::kPirQuery, sessions_[d.session].id,
          server::EncodePirQuery(slot->bucket, *query));
      q.requests.push_back(AddRequest(std::move(r)));
    }
  } else if (d.topk) {
    q.pr = false;
    q.requests.push_back(TopKRequest(d.session, d.set));
  } else {
    q.requests.push_back(PrRequest(d.session, d.set));
  }
  return q;
}

bool Run::Prepare(std::string* error) {
  sessions_ = PlanSessions(shape_, sub_.vocab, args_.seed);
  draws_ = std::make_unique<DrawStream>(shape_, Mix(args_.seed, 4));
  pir_rng_ = Rng(Mix(args_.seed, 5));
  crypto::BenalohKeyOptions ko;
  ko.key_bits = shape_.key_bits;
  if (shape_.kind == Kind::kPirLists) {
    pir_clients_.resize(sessions_.size());
    ParallelItems(sessions_.size(), [&](size_t s) {
      Rng rng(sessions_[s].key_seed);
      auto c = crypto::PirClient::Create(shape_.key_bits, &rng);
      if (c.ok()) pir_clients_[s] = std::make_unique<crypto::PirClient>(std::move(*c));
    });
    for (auto& c : pir_clients_) {
      if (c == nullptr) {
        *error = "PIR key generation failed";
        return false;
      }
    }
  } else {
    pr_sessions_.resize(sessions_.size());
    std::atomic<bool> ok{true};
    ParallelItems(sessions_.size(), [&](size_t s) {
      Rng rng(sessions_[s].key_seed);
      auto keys = crypto::BenalohKeyPair::Generate(ko, &rng);
      if (!keys.ok()) {
        ok = false;
        return;
      }
      PrSession& ps = pr_sessions_[s];
      ps.keys = std::make_unique<crypto::BenalohKeyPair>(std::move(*keys));
      ps.client = std::make_unique<core::PrivateRetrievalClient>(
          sub_.buckets.get(), &ps.keys->public_key(), &ps.keys->private_key());
      ps.hello = server::EncodeFrame(server::FrameKind::kHello,
                                     sessions_[s].id,
                                     server::EncodeHello(ps.keys->public_key()));
    });
    if (!ok) {
      *error = "Benaloh key generation failed";
      return false;
    }
  }
  return true;
}

bool Run::RunPhase(std::vector<QueryPlan>& plan, bool open_loop,
                   int64_t stop_ns, bool record_frames, PhaseResult* out,
                   std::string* error) {
  std::vector<PlannedQuery> planned(plan.size());
  for (size_t q = 0; q < plan.size(); ++q) {
    for (size_t id : plan[q].requests) {
      planned[q].frames.push_back(&requests_[id].frame);
    }
    planned[q].conn = plan[q].conn;
    planned[q].due_ns = plan[q].due_ns;
  }
  out->failed.assign(plan.size(), 0);
  auto on_response = [&](size_t q, size_t f, std::vector<uint8_t> bytes,
                         int64_t send_ns, int64_t recv_ns) {
    Request& r = requests_[plan[q].requests[f]];
    if (record_frames) out->frames.push_back({FrameKey(r.frame), send_ns, recv_ns});
    if (IsFailure(bytes)) out->failed[q] = 1;
    uint64_t h = Hash64(bytes);
    if (std::find(r.response_hashes.begin(), r.response_hashes.end(), h) ==
        r.response_hashes.end()) {
      r.response_hashes.push_back(h);
      r.responses.push_back(std::move(bytes));
    }
  };
  const int64_t deadline =
      (open_loop && !plan.empty() ? plan.back().due_ns : stop_ns) +
      int64_t{120} * 1000000000;
  auto timings = open_loop ? gen_->OpenLoop(planned, on_response, deadline)
                           : gen_->ClosedLoop(planned, on_response, stop_ns,
                                              deadline);
  if (!timings.ok()) {
    *error = "load phase: " + timings.status().ToString();
    return false;
  }
  out->timings = std::move(*timings);
  out->sent.assign(plan.size(), 0);
  for (size_t q = 0; q < plan.size(); ++q) {
    if (out->timings[q].sent_ns == 0) continue;
    out->sent[q] = 1;
    for (size_t id : plan[q].requests) {
      if (requests_[id].kind == ReqKind::kPr) ++pr_frames_sent_;
    }
  }
  return true;
}

// Formulates every PR request that has no frame yet (once per session and
// set: the session re-sends the same bytes).
void EncodePrFrames(std::deque<Request>* requests,
                    std::vector<PrSession>* pr_sessions,
                    const std::vector<SessionPlan>& sessions, uint64_t seed) {
  std::vector<Request*> todo;
  for (Request& r : *requests) {
    if (r.kind == ReqKind::kPr && r.frame.empty()) todo.push_back(&r);
  }
  ParallelItems(todo.size(), [&](size_t i) {
    Request& r = *todo[i];
    PrSession& ps = (*pr_sessions)[r.session];
    Rng rng(Mix(seed, (uint64_t{r.session} << 8) + r.set + 0x200000));
    auto query = ps.client->FormulateQuery(sessions[r.session].sets[r.set],
                                           &rng, nullptr);
    if (!query.ok()) return;  // an empty frame fails the run's checks
    r.frame = server::EncodeFrame(server::FrameKind::kQuery,
                                  sessions[r.session].id,
                                  core::EncodeQuery(*query,
                                                    ps.keys->public_key()));
  });
}

bool Run::Execute(std::string* error) {
  const bool live = shape_.kind == Kind::kLiveIndex;
  const bool pir = shape_.kind == Kind::kPirLists;
  const double open_s = 0.45 * args_.seconds;
  const double closed_s = 0.2 * args_.seconds;
  const double client_s = 0.35 * args_.seconds;
  const size_t conns = std::max(1u, std::thread::hardware_concurrency());

  // ---- Set-up: substrate, server processes, sessions ----
  if (!BuildSubstrate(shape_, args_.seed, !live, &sub_, error)) return false;
  if (live) {
    auto extra = corpus::GenerateSyntheticCorpus(
        *sub_.lexicon, CorpusOptions(shape_, shape_.deltas * shape_.delta_docs,
                                     Mix(args_.seed, 6)));
    if (!extra.ok()) {
      *error = "delta corpus: " + extra.status().ToString();
      return false;
    }
    // Schedule: D D R(2x shards) D D R(shards) ..., deltas first.
    const std::vector<corpus::Document> delta_docs =
        RemoveStopwords(extra->documents(), sub_.stopwords);
    size_t next_doc = 0;
    for (size_t d = 0; d < shape_.deltas; ++d) {
      IndexOp op;
      for (size_t i = 0; i < shape_.delta_docs; ++i) {
        op.docs.push_back(delta_docs[next_doc++]);
      }
      ops_.push_back(std::move(op));
      if (d % 2 == 1) {
        IndexOp reshard;
        reshard.reshard = true;
        reshard.shards = (d / 2) % 2 == 0 ? 2 * shape_.shards : shape_.shards;
        ops_.push_back(std::move(reshard));
      }
    }
  }
  bool deployed = shape_.kind == Kind::kPrivateSearch
                      ? DeployPrivateSearch(shape_, sub_, args_.trace, &dep_, error)
                      : DeploySingle(shape_, sub_, args_.trace,
                                     live ? &ops_ : nullptr, &dep_, error);
  if (!deployed || !WaitReady(dep_, error)) return false;

  // Frame preparation (keys, formulation, PIR queries) is the load
  // generator's own work and is excluded from setup_s.
  const int64_t prep_start = NowNs();
  if (!Prepare(error)) return false;
  const size_t n_open =
      static_cast<size_t>(std::llround(shape_.open_qps * open_s));
  const size_t n_closed =
      pir ? shape_.closed_pool
          : static_cast<size_t>(100000.0 * closed_s);
  auto plan_open = [&](size_t n) {
    std::vector<QueryPlan> plan;
    double t = 0;
    for (size_t i = 0; i < n; ++i) {
      Draw d = draws_->Next();
      QueryPlan q = PlanQuery(d, d.session % conns);
      t += draws_->Exponential(shape_.open_qps);
      q.due_ns = static_cast<int64_t>(t * 1e9);  // offset; made absolute later
      plan.push_back(std::move(q));
    }
    return plan;
  };
  std::vector<QueryPlan> open_a = plan_open(n_open);
  std::vector<QueryPlan> open_b = args_.trace ? plan_open(n_open)
                                              : std::vector<QueryPlan>{};
  std::vector<QueryPlan> closed;
  for (size_t i = 0; i < n_closed; ++i) {
    closed.push_back(PlanQuery(draws_->Next(), i % conns));
  }
  // Warm-up: every distinct PR / top-k request once (fills the response
  // caches as far as they hold), and one fresh PIR execution per bucket
  // the run addresses (builds the lazy per-bucket PIR matrices).
  std::vector<QueryPlan> warm;
  if (pir) {
    std::set<size_t> buckets;
    std::vector<size_t> ids;
    for (size_t id = 0; id < requests_.size(); ++id) {
      if (requests_[id].kind != ReqKind::kPir) continue;
      auto slot = sub_.buckets->Locate(requests_[id].term);
      if (buckets.insert(slot->bucket).second) ids.push_back(id);
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      const Request& like = requests_[ids[i]];
      QueryPlan q;
      q.conn = i % conns;
      // One fresh execution for the bucket of `like.term`.
      Request r;
      r.kind = ReqKind::kPir;
      r.session = like.session;
      r.set = like.set;
      r.term = like.term;
      auto slot = sub_.buckets->Locate(r.term);
      auto query = pir_clients_[r.session]->BuildQuery(
          slot->slot, sub_.buckets->bucket(slot->bucket).size(), &pir_rng_);
      r.frame = server::EncodeFrame(
          server::FrameKind::kPirQuery, sessions_[r.session].id,
          server::EncodePirQuery(slot->bucket, *query));
      q.requests.push_back(AddRequest(std::move(r)));
      warm.push_back(std::move(q));
    }
  } else {
    size_t i = 0;
    for (size_t id = 0; id < requests_.size(); ++id) {
      QueryPlan q;
      q.conn = i++ % conns;
      q.pr = requests_[id].kind == ReqKind::kPr;
      q.requests.push_back(id);
      warm.push_back(std::move(q));
    }
    EncodePrFrames(&requests_, &pr_sessions_, sessions_, args_.seed);
  }
  std::vector<QueryPlan> hellos;
  for (size_t s = 0; s < pr_sessions_.size(); ++s) {
    Request r;
    r.kind = ReqKind::kHello;
    r.session = static_cast<uint32_t>(s);
    r.frame = pr_sessions_[s].hello;
    QueryPlan q;
    q.conn = s % conns;
    q.requests.push_back(AddRequest(std::move(r)));
    hellos.push_back(std::move(q));
  }
  const int64_t prep_ns = NowNs() - prep_start;
  for (const Request& r : requests_) {
    if (r.frame.empty()) {
      *error = "query formulation failed";
      return false;
    }
  }

  auto gen = LoadGen::Connect(dep_.port, conns);
  if (!gen.ok()) {
    *error = "connect: " + gen.status().ToString();
    return false;
  }
  gen_ = std::move(*gen);
  const int64_t forever = NowNs() + int64_t{3600} * 1000000000;
  PhaseResult hello_result, warm_result;
  if (!RunPhase(hellos, false, forever, false, &hello_result, error)) return false;
  for (char f : hello_result.failed) {
    if (f) {
      *error = "session registration failed";
      return false;
    }
  }
  if (!RunPhase(warm, false, forever, false, &warm_result, error)) return false;
  int64_t first_answer = INT64_MAX;
  for (const auto& t : warm_result.timings) {
    if (t.done_ns != 0) first_answer = std::min(first_answer, t.done_ns);
  }
  const double setup_s =
      static_cast<double>(first_answer - args_.start_ns - prep_ns) / 1e9;
  attempted_ = failed_ = 0;
  for (size_t q = 0; q < warm.size(); ++q) {
    ++attempted_;
    if (warm_result.failed[q]) ++failed_;
  }

  // ---- Timed phases ----
  auto cpu0 = ServerCpuMs(dep_);
  if (!cpu0.ok()) {
    *error = cpu0.status().ToString();
    return false;
  }
  auto run_open = [&](std::vector<QueryPlan>& plan, bool writes,
                      bool record, PhaseResult* out) {
    const int64_t t0 = NowNs() + 20000000;
    for (auto& q : plan) q.due_ns += t0;
    if (writes) {
      const int64_t span = plan.empty() ? 0 : plan.back().due_ns - t0;
      const int64_t period = span / static_cast<int64_t>(ops_.size() + 1);
      auto ok = Command(dep_.front, "writes " + std::to_string(t0) + " " +
                                        std::to_string(period));
      if (!ok.ok() || *ok != "ok") {
        *error = "live writes did not start";
        return false;
      }
    }
    if (!RunPhase(plan, true, 0, record, out, error)) return false;
    for (size_t q = 0; q < plan.size(); ++q) {
      ++attempted_;
      if (out->failed[q]) ++failed_;
    }
    return true;
  };
  auto latencies = [](const PhaseResult& r, double* lag_mean, double* lag_max) {
    std::vector<double> lat, lag;
    for (const auto& t : r.timings) {
      lat.push_back(static_cast<double>(t.done_ns - t.due_ns) / 1e6);
      lag.push_back(static_cast<double>(t.sent_ns - t.due_ns) / 1e6);
    }
    if (lag_mean != nullptr) *lag_mean = Mean(lag);
    if (lag_max != nullptr) {
      *lag_max = lag.empty() ? 0 : *std::max_element(lag.begin(), lag.end());
    }
    return lat;
  };

  PhaseResult open_result, traced_result, closed_result;
  if (!run_open(open_a, live, false, &open_result)) return false;
  std::vector<double> lat = latencies(open_result, &lag_mean_ms_, &lag_max_ms_);
  const double p50 = Percentile(lat, 0.5);
  const double p99 = Percentile(lat, 0.99);
  KeyValues writes_kv;
  if (live) {
    auto done = Query(dep_.front, "writes_done");
    if (!done.ok()) {
      *error = done.status().ToString();
      return false;
    }
    writes_kv = *done;
  }
  double traced_p50 = 0;
  if (args_.trace) {
    if (!Command(dep_.front, "trace on").ok()) {
      *error = "trace on failed";
      return false;
    }
    if (!run_open(open_b, false, true, &traced_result)) return false;
    (void)Command(dep_.front, "trace off");
    traced_p50 = Percentile(latencies(traced_result, &lag_mean_ms_, &lag_max_ms_), 0.5);
  }

  const int64_t closed_start = NowNs();
  if (!RunPhase(closed, false, closed_start + static_cast<int64_t>(closed_s * 1e9),
                false, &closed_result, error)) {
    return false;
  }
  size_t closed_done = 0;
  int64_t closed_end = closed_start;
  for (size_t q = 0; q < closed.size(); ++q) {
    if (!closed_result.sent[q]) continue;
    ++attempted_;
    if (closed_result.failed[q]) ++failed_;
    ++closed_done;
    closed_end = std::max(closed_end, closed_result.timings[q].done_ns);
  }
  // Completions per second in each fifth of the phase; the median keeps a
  // short stall of the machine from deciding the figure.
  constexpr size_t kWindows = 5;
  std::vector<double> window_done(kWindows, 0);
  const double window_ns =
      static_cast<double>(closed_end - closed_start) / kWindows;
  for (size_t q = 0; q < closed.size(); ++q) {
    if (!closed_result.sent[q]) continue;
    size_t w = static_cast<size_t>(
        static_cast<double>(closed_result.timings[q].done_ns - closed_start) /
        window_ns);
    window_done[std::min(w, kWindows - 1)] += 1;
  }
  for (double& w : window_done) w /= window_ns / 1e9;
  const double capacity = Percentile(window_done, 0.5);
  auto cpu1 = ServerCpuMs(dep_);
  if (!cpu1.ok()) {
    *error = cpu1.status().ToString();
    return false;
  }
  size_t timed_answered = 0;
  for (char f : open_result.failed) timed_answered += f ? 0 : 1;
  for (char f : traced_result.failed) timed_answered += f ? 0 : 1;
  for (size_t q = 0; q < closed.size(); ++q) {
    if (closed_result.sent[q] && !closed_result.failed[q]) ++timed_answered;
  }
  const double server_cpu_ms =
      (*cpu1 - *cpu0) / static_cast<double>(std::max<size_t>(1, timed_answered));

  // Traffic per private query, over the open-loop phase.
  double up = 0, down = 0, private_n = 0;
  for (size_t q = 0; q < open_a.size(); ++q) {
    if (!open_a[q].pr || open_result.failed[q]) continue;
    private_n += 1;
    for (size_t id : open_a[q].requests) {
      up += static_cast<double>(requests_[id].frame.size());
      down += static_cast<double>(requests_[id].responses.front().size());
    }
  }

  ClientPhase({&open_a, &closed}, client_s);

  // ---- Server-side counts, then tear the deployment down ----
  std::vector<KeyValues> stats;
  for (Child* c : dep_.servers) {
    auto kv = Query(c, "stats");
    if (!kv.ok()) {
      *error = kv.status().ToString();
      return false;
    }
    stats.push_back(*kv);
  }
  std::vector<Span> spans;
  if (args_.trace) {
    auto line = Command(dep_.front, "spans");
    if (!line.ok()) {
      *error = line.status().ToString();
      return false;
    }
    spans = DecodeSpans(*line);
  }
  const double rss_mb = SumField(stats, "maxrss_kb") / 1024.0;
  ReapChildren();

  // ---- Checks, outside the timed window ----
  Note("# open loop: " + std::to_string(open_a.size()) + " queries at " +
       Num(shape_.open_qps) + " q/s; generator lag mean " + Num(lag_mean_ms_) +
       " ms, max " + Num(lag_max_ms_) + " ms");
  Note("# closed loop: " + std::to_string(closed_done) + " queries on " +
       std::to_string(conns) + " connections");
  Checks(stats);
  if (live) {
    Check(GetNum(writes_kv, "done") == static_cast<double>(ops_.size()) &&
              GetNum(writes_kv, "status_ok") == 1,
          "live_index: every scheduled delta and reshard installed");
    Check(SumField(stats, "epoch_swaps") == static_cast<double>(ops_.size()),
          "live_index: epoch_swaps == " + std::to_string(ops_.size()) +
              " scheduled installs");
    Check(SumField(stats, "answer_path_builds") == 0,
          "live_index: answer_path_builds == 0");
  }
  Check(private_n > 0, "open loop answered private queries");

  if (!args_.trace) {
    AddMetric("setup_s", setup_s, "s");
    AddMetric("p50_ms", p50, "ms");
    AddMetric("p99_ms", p99, "ms");
    AddMetric("capacity_qps", capacity, "queries/s");
    AddMetric("client_ms", client_ms_, "ms");
    AddMetric("server_cpu_ms", server_cpu_ms, "ms");
    AddMetric("uplink_bytes", up / std::max(1.0, private_n), "bytes");
    AddMetric("downlink_bytes", down / std::max(1.0, private_n), "bytes");
    AddMetric("server_rss_mb", rss_mb, "MiB");
  } else {
    TraceMetrics(traced_result, spans, stats, p50, traced_p50);
    auto find = [&](const char* name) -> Metric* {
      for (Metric& m : result_->metrics) {
        if (m.name == name) return &m;
      }
      return nullptr;
    };
    if (Metric* m = find("index.delta_install_ms")) {
      m->value = GetNum(writes_kv, "delta_install_ms");
    }
    if (Metric* m = find("index.reshard_install_ms")) {
      m->value = GetNum(writes_kv, "reshard_install_ms");
    }
  }
  result_->attempted = attempted_;
  result_->failed = failed_;
  Note("# attempted " + std::to_string(attempted_) + " queries, failed " +
       std::to_string(failed_));
  return true;
}

void Run::ClientPhase(const std::vector<const std::vector<QueryPlan>*>& traffic,
                      double budget_s) {
  const int64_t stop = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  // The sample: the first kClientSample distinct private queries (session,
  // term set) the run answered, open loop first, in sending order. Each is
  // formulated afresh (same randomness on every pass) and its recorded
  // response decoded and post-filtered, pass after pass until the budget
  // is spent; a query's cost is its fastest pass, and client_ms is the
  // mean of those. CPU time only grows under interference (steal, a busy
  // sibling thread), so the minimum of passes that lie seconds apart keeps
  // a slow stretch of the machine from deciding the figure, while every
  // pass does the same work.
  constexpr size_t kClientSample = 128;
  constexpr size_t kMinPasses = 3;
  std::vector<const QueryPlan*> sample;
  std::set<std::pair<uint32_t, uint32_t>> seen;
  for (const std::vector<QueryPlan>* phase : traffic) {
    for (const QueryPlan& q : *phase) {
      bool answered = q.pr;
      for (size_t id : q.requests) answered = answered && !requests_[id].responses.empty();
      if (!answered || sample.size() == kClientSample) continue;
      const Request& r = requests_[q.requests[0]];
      if (seen.insert({r.session, r.set}).second) sample.push_back(&q);
    }
  }

  int64_t pir_decode_ns = 0;
  size_t gammas = 0;
  // Times one query; returns {formulate, decode} thread CPU nanoseconds.
  auto time_pir = [&](size_t i) -> std::pair<int64_t, int64_t> {
    const auto& q = sample[i]->requests;
    const uint32_t s = requests_[q[0]].session;
    const crypto::PirClient& pc = *pir_clients_[s];
    Rng rng(Mix(args_.seed, 0x200000 + i));
    std::unordered_map<TermId, std::vector<index::Posting>> lists;
    int64_t t0 = ThreadCpuNs();
    for (size_t id : q) {
      auto slot = sub_.buckets->Locate(requests_[id].term);
      auto query = pc.BuildQuery(slot->slot,
                                 sub_.buckets->bucket(slot->bucket).size(), &rng);
      auto frame = server::EncodeFrame(
          server::FrameKind::kPirQuery, sessions_[s].id,
          server::EncodePirQuery(slot->bucket, *query));
      (void)frame;
    }
    int64_t t1 = ThreadCpuNs();
    std::vector<TermId> terms;
    for (size_t id : q) {
      const Request& r = requests_[id];
      auto frame = server::DecodeFrame(r.responses.front());
      if (!frame.ok()) continue;
      auto resp = server::DecodePirResponse(frame->payload);
      if (!resp.ok()) continue;
      int64_t d0 = ThreadCpuNs();
      auto bits = pc.DecodeResponse(*resp);
      pir_decode_ns += ThreadCpuNs() - d0;
      gammas += resp->gamma.size();
      if (!bits.ok()) continue;
      auto list = core::PostingsFromColumnBits(*bits);
      if (list.ok()) lists[r.term] = std::move(*list);
      terms.push_back(r.term);
    }
    auto ranked = core::RankRetrievedLists(
        terms, kTopK, nullptr,
        [&](TermId t) -> Result<std::vector<index::Posting>> { return lists[t]; });
    (void)ranked;
    int64_t t2 = ThreadCpuNs();
    return {t1 - t0, t2 - t1};
  };
  auto time_pr = [&](size_t i) -> std::pair<int64_t, int64_t> {
    const Request& r = requests_[sample[i]->requests[0]];
    const PrSession& ps = pr_sessions_[r.session];
    Rng rng(Mix(args_.seed, 0x300000 + i));
    int64_t t0 = ThreadCpuNs();
    auto query = ps.client->FormulateQuery(sessions_[r.session].sets[r.set],
                                           &rng, nullptr);
    if (query.ok()) {
      auto frame = server::EncodeFrame(
          server::FrameKind::kQuery, sessions_[r.session].id,
          core::EncodeQuery(*query, ps.keys->public_key()));
      (void)frame;
    }
    int64_t t1 = ThreadCpuNs();
    auto frame = server::DecodeFrame(r.responses.front());
    if (frame.ok()) {
      auto result = core::DecodeResult(frame->payload, ps.keys->public_key());
      if (result.ok()) {
        auto top = ps.client->PostFilter(*result, kTopK, nullptr);
        (void)top;
      }
    }
    int64_t t2 = ThreadCpuNs();
    return {t1 - t0, t2 - t1};
  };

  const bool pir = shape_.kind == Kind::kPirLists;
  std::vector<int64_t> best(sample.size(), INT64_MAX);
  std::vector<std::pair<int64_t, int64_t>> best_split(sample.size());
  std::vector<double> pass_ms;
  size_t passes = 0;
  for (; !sample.empty() && (passes < kMinPasses || NowNs() < stop); ++passes) {
    int64_t pass_ns = 0;
    for (size_t i = 0; i < sample.size(); ++i) {
      auto split = pir ? time_pir(i) : time_pr(i);
      const int64_t total = split.first + split.second;
      if (total < best[i]) {
        best[i] = total;
        best_split[i] = split;
      }
      pass_ns += total;
    }
    pass_ms.push_back(static_cast<double>(pass_ns) / 1e6 /
                      static_cast<double>(sample.size()));
  }
  if (pir) {
    pir_decode_us_ =
        gammas ? static_cast<double>(pir_decode_ns) / 1e3 / static_cast<double>(gammas)
               : 0;
  } else if (args_.trace && !pr_sessions_.empty()) {
    // Per-operation Benaloh costs at the key width, on this run's keys
    // and this run's response ciphertexts.
    const PrSession& ps = pr_sessions_[0];
    Rng rng(Mix(args_.seed, 9));
    int64_t t0 = ThreadCpuNs();
    constexpr int kOps = 256;
    for (int i = 0; i < kOps; ++i) (void)ps.keys->public_key().Encrypt(i & 1, &rng);
    encrypt_us_ = static_cast<double>(ThreadCpuNs() - t0) / 1e3 / kOps;
    size_t decrypts = 0;
    int64_t spent = 0;
    for (const QueryPlan* q : sample) {
      const Request& r = requests_[q->requests[0]];
      const PrSession& owner = pr_sessions_[r.session];
      auto frame = server::DecodeFrame(r.responses.front());
      if (!frame.ok()) continue;
      auto result = core::DecodeResult(frame->payload, owner.keys->public_key());
      if (!result.ok()) continue;
      int64_t d0 = ThreadCpuNs();
      for (const auto& c : result->candidates) {
        (void)owner.keys->private_key().Decrypt(c.score);
      }
      spent += ThreadCpuNs() - d0;
      decrypts += result->candidates.size();
      if (decrypts >= kOps) break;
    }
    decrypt_us_ = decrypts ? static_cast<double>(spent) / 1e3 /
                                 static_cast<double>(decrypts)
                           : 0;
  }
  int64_t formulate_ns = 0, decode_ns = 0;
  for (const auto& split : best_split) {
    formulate_ns += split.first;
    decode_ns += split.second;
  }
  const double denom = static_cast<double>(std::max<size_t>(1, sample.size()));
  formulate_ms_ = static_cast<double>(formulate_ns) / 1e6 / denom;
  decode_ms_ = static_cast<double>(decode_ns) / 1e6 / denom;
  client_ms_ = formulate_ms_ + decode_ms_;
  std::string passes_note;
  for (double ms : pass_ms) {
    passes_note += ' ';
    passes_note += Num(ms);
  }
  Note("# client phase: " + std::to_string(sample.size()) +
       " distinct private queries, " + std::to_string(passes) +
       " passes (ms per query:" + passes_note + "), fastest pass per query " +
       Num(client_ms_) + " ms (single thread CPU)");
}

void Run::Checks(const std::vector<KeyValues>& stats) {
  const bool live = shape_.kind == Kind::kLiveIndex;
  // Reference states: the serving index, or every epoch live_index
  // installed, rebuilt from the same seeded deltas.
  std::vector<const index::InvertedIndex*> states;
  if (live) {
    index::IndexCatalogOptions copts;
    copts.sharding.shard_count = shape_.shards;
    auto catalog = index::IndexCatalog::Create(*sub_.corpus, sub_.buckets, copts);
    if (!catalog.ok()) {
      Check(false, "checker catalog: " + catalog.status().ToString());
      return;
    }
    checker_catalog_ = std::move(*catalog);
    states_.push_back(checker_catalog_->Acquire());
    for (const IndexOp& op : ops_) {
      if (op.reshard) continue;  // same postings, new partition
      auto next = checker_catalog_->ApplyDelta(op.docs);
      if (!next.ok()) {
        Check(false, "checker delta: " + next.status().ToString());
        return;
      }
      states_.push_back(*next);
    }
    for (const auto& e : states_) states.push_back(&e->index());
  } else {
    states.push_back(sub_.index.get());
  }

  struct Item {
    size_t request;
    size_t response;  // SIZE_MAX: the uplink check
  };
  std::vector<Item> items;
  for (size_t id = 0; id < requests_.size(); ++id) {
    const Request& r = requests_[id];
    if (r.kind == ReqKind::kHello) continue;
    if (r.kind == ReqKind::kPr) items.push_back({id, SIZE_MAX});
    for (size_t k = 0; k < r.responses.size(); ++k) {
      if (!IsFailure(r.responses[k])) items.push_back({id, k});
    }
  }
  std::vector<char> ok(items.size(), 0);
  std::vector<size_t> candidates(items.size(), 0);
  std::vector<std::vector<index::Posting>> pir_lists(requests_.size());
  std::vector<char> pir_ok(requests_.size(), 0);
  ParallelItems(items.size(), [&](size_t i) {
    const Request& r = requests_[items[i].request];
    const std::vector<TermId>& genuine = sessions_[r.session].sets[r.set];
    if (r.kind == ReqKind::kPr && items[i].response == SIZE_MAX) {
      // Embellishment: the uplink holds exactly the genuine terms' buckets,
      // with indicators decrypting to 1 on genuine terms and 0 on decoys.
      const PrSession& ps = pr_sessions_[r.session];
      auto frame = server::DecodeFrame(r.frame);
      if (!frame.ok()) return;
      auto query = core::DecodeQuery(frame->payload, ps.keys->public_key());
      if (!query.ok()) return;
      std::set<TermId> expected;
      for (TermId g : genuine) {
        auto slot = sub_.buckets->Locate(g);
        if (!slot.ok()) return;
        for (TermId t : sub_.buckets->bucket(slot->bucket)) expected.insert(t);
      }
      std::set<TermId> got;
      for (const auto& e : query->entries) {
        got.insert(e.term);
        auto m = ps.keys->private_key().Decrypt(e.indicator);
        const bool is_genuine =
            std::binary_search(genuine.begin(), genuine.end(), e.term);
        if (!m.ok() || *m != (is_genuine ? 1u : 0u)) return;
      }
      ok[i] = got == expected && query->entries.size() == expected.size();
      return;
    }
    const std::vector<uint8_t>& response = r.responses[items[i].response];
    auto frame = server::DecodeFrame(response);
    if (!frame.ok()) return;
    if (r.kind == ReqKind::kPr) {
      // Every candidate's decrypted score is the plaintext impact sum over
      // the genuine terms; every nonzero-sum document is a candidate; the
      // ranking is (score desc, doc asc).
      if (frame->kind != server::FrameKind::kResult) return;
      const PrSession& ps = pr_sessions_[r.session];
      auto result = core::DecodeResult(frame->payload, ps.keys->public_key());
      if (!result.ok()) return;
      candidates[i] = result->candidates.size();
      auto decoded = ps.client->PostFilter(*result, SIZE_MAX, nullptr);
      if (!decoded.ok()) return;
      for (const auto* state : states) {
        if (BruteRanking(BruteSums(*state, genuine), SIZE_MAX) == *decoded) {
          ok[i] = 1;
          return;
        }
      }
    } else if (r.kind == ReqKind::kTopK) {
      if (frame->kind != server::FrameKind::kTopKResult) return;
      auto docs = server::DecodeTopKResult(frame->payload);
      if (!docs.ok()) return;
      for (const auto* state : states) {
        if (BruteRanking(BruteSums(*state, genuine), kTopK) == *docs) {
          ok[i] = 1;
          return;
        }
      }
    } else if (r.kind == ReqKind::kPir) {
      if (frame->kind != server::FrameKind::kPirResult) return;
      auto resp = server::DecodePirResponse(frame->payload);
      if (!resp.ok()) return;
      auto bits = pir_clients_[r.session]->DecodeResponse(*resp);
      if (!bits.ok()) return;
      auto list = core::PostingsFromColumnBits(*bits);
      if (!list.ok()) return;
      const auto* expected = states[0]->postings(r.term);
      ok[i] = expected != nullptr ? *list == *expected : list->empty();
      pir_lists[items[i].request] = std::move(*list);
      pir_ok[items[i].request] = ok[i];
    }
  });
  size_t bad = 0, n_pr = 0, n_up = 0, n_topk = 0, n_pir = 0;
  double cand_sum = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    const Request& r = requests_[items[i].request];
    if (!ok[i]) {
      ++bad;
      if (bad <= 3) {
        Note("# mismatch: request " + std::to_string(items[i].request) +
             " kind " + std::to_string(static_cast<int>(r.kind)));
      }
    }
    if (r.kind == ReqKind::kPr && items[i].response == SIZE_MAX) {
      ++n_up;
    } else if (r.kind == ReqKind::kPr) {
      ++n_pr;
      cand_sum += static_cast<double>(candidates[i]);
    } else if (r.kind == ReqKind::kTopK) {
      ++n_topk;
    } else {
      ++n_pir;
    }
  }
  candidates_per_query_ = n_pr ? cand_sum / static_cast<double>(n_pr) : 0;
  Check(bad == 0, std::to_string(n_pr) + " PR answers, " + std::to_string(n_up) +
                      " embellished uplinks, " + std::to_string(n_topk) +
                      " top-k answers, " + std::to_string(n_pir) +
                      " PIR lists match the brute-force reference (" +
                      std::to_string(bad) + " mismatches)");

  // PIR: the ranking a query's retrieved lists produce.
  if (shape_.kind == Kind::kPirLists) {
    std::map<std::pair<uint32_t, uint32_t>, bool> seen;
    size_t ranked = 0, ranked_bad = 0;
    for (size_t id = 0; id < requests_.size(); ++id) {
      const Request& r = requests_[id];
      if (r.kind != ReqKind::kPir || !pir_ok[id]) continue;
      auto key = std::make_pair(r.session, r.set);
      if (seen.count(key)) continue;
      const auto& genuine = sessions_[r.session].sets[r.set];
      // Use this request's list for its term and the reference for the
      // others only when the others were also retrieved and verified.
      std::unordered_map<TermId, const std::vector<index::Posting>*> lists;
      for (size_t j = 0; j < requests_.size() && lists.size() < genuine.size(); ++j) {
        const Request& o = requests_[j];
        if (o.kind == ReqKind::kPir && pir_ok[j] && o.session == r.session &&
            o.set == r.set && !lists.count(o.term)) {
          lists[o.term] = &pir_lists[j];
        }
      }
      if (lists.size() != genuine.size()) continue;
      seen[key] = true;
      auto top = core::RankRetrievedLists(
          genuine, kTopK, nullptr,
          [&](TermId t) -> Result<std::vector<index::Posting>> { return *lists[t]; });
      ++ranked;
      if (!top.ok() || *top != BruteRanking(BruteSums(*states[0], genuine), kTopK)) {
        ++ranked_bad;
      }
    }
    Check(ranked > 0 && ranked_bad == 0,
          std::to_string(ranked) + " PIR rankings equal the brute-force top-" +
              std::to_string(kTopK));
  }

  // Independent totals: the load generator's counts against the servers'.
  const LoadCounters& lc = gen_->counters();
  const KeyValues* front = nullptr;
  for (size_t i = 0; i < dep_.servers.size(); ++i) {
    if (dep_.servers[i] == dep_.front) front = &stats[i];
  }
  Check(front != nullptr &&
            GetNum(*front, "fe_frames_in") == static_cast<double>(lc.frames_sent) &&
            GetNum(*front, "fe_responses_out") ==
                static_cast<double>(lc.frames_received),
        "front end frames in/out == load generator frames sent/received (" +
            std::to_string(lc.frames_sent) + ")");
  if (shape_.kind == Kind::kPrivateSearch) {
    Check(GetNum(*front, "co_frames") == static_cast<double>(lc.frames_sent),
          "coordinator frames == load generator frames sent");
    Check(GetNum(*front, "co_blocking_io_trips") == 0 &&
              GetNum(*front, "co_async_io_trips") > 0,
          "blocking_io_trips == 0");
    Check(SumField(stats, "queries") ==
              static_cast<double>(shape_.slices * pr_frames_sent_),
          "every slice answered every PR query (" +
              std::to_string(pr_frames_sent_) + " frames)");
    Check(SumField(stats, "hellos") ==
              static_cast<double>(shape_.slices * sessions_.size()),
          "every slice registered every session");
  } else {
    Check(GetNum(*front, "frames") == static_cast<double>(lc.frames_sent) &&
              GetNum(*front, "uplink_bytes") == static_cast<double>(lc.bytes_sent) &&
              GetNum(*front, "downlink_bytes") ==
                  static_cast<double>(lc.bytes_received),
          "server frames/uplink/downlink bytes == load generator counts (" +
              std::to_string(lc.bytes_sent) + " B up, " +
              std::to_string(lc.bytes_received) + " B down)");
  }
  Check(SumField(stats, "errors") + SumField(stats, "co_errors") ==
            static_cast<double>(failed_),
        "server error counts == failed operations (" + std::to_string(failed_) + ")");
}

// Self time of a span: its length minus the union of `children` inside it.
double SelfNs(const Span& parent, std::vector<std::pair<int64_t, int64_t>> children) {
  std::sort(children.begin(), children.end());
  int64_t covered = 0, cursor = parent.start_ns;
  for (auto [s, e] : children) {
    s = std::max(s, cursor);
    e = std::min(e, parent.end_ns);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return static_cast<double>(parent.end_ns - parent.start_ns - covered);
}

void Run::TraceMetrics(const PhaseResult& traced, const std::vector<Span>& spans,
                       const std::vector<KeyValues>& stats, double untraced_p50,
                       double traced_p50) {
  const bool pir = shape_.kind == Kind::kPirLists;
  const bool live = shape_.kind == Kind::kLiveIndex;
  const bool coordinated = shape_.kind == Kind::kPrivateSearch;

  // Front end: the load generator's per-frame span is the root; the
  // handler span that answered the frame is matched by request identity
  // and containment.
  std::unordered_map<uint64_t, std::vector<const Span*>> frame_spans;
  std::vector<const Span*> calls, trips;
  for (const Span& s : spans) {
    if (s.kind == kHandlerFrame) frame_spans[s.key].push_back(&s);
    if (s.kind == kHandlerCall) calls.push_back(&s);
    if (s.kind == kTransportTrip) trips.push_back(&s);
  }
  std::unordered_map<const Span*, bool> used;
  std::vector<double> trip_ms, self_ms, wait_ms;
  for (const auto& rec : traced.frames) {
    trip_ms.push_back(static_cast<double>(rec.recv_ns - rec.send_ns) / 1e6);
    auto it = frame_spans.find(rec.key);
    if (it == frame_spans.end()) continue;
    for (const Span* s : it->second) {
      if (used[s] || s->start_ns < rec.send_ns || s->end_ns > rec.recv_ns) continue;
      used[s] = true;
      wait_ms.push_back(static_cast<double>(s->start_ns - rec.send_ns) / 1e6);
      self_ms.push_back(static_cast<double>((rec.recv_ns - rec.send_ns) -
                                            (s->end_ns - s->start_ns)) /
                        1e6);
      break;
    }
  }
  Note("# trace: " + std::to_string(self_ms.size()) + " of " +
       std::to_string(trip_ms.size()) + " frames matched to handler spans, " +
       std::to_string(calls.size()) + " handler calls, " +
       std::to_string(trips.size()) + " shard trips");
  double frames_handled = 0, call_ns = 0, trip_ns = 0;
  std::vector<double> batch, handle_ms, coord_self_ms, trip_each_ms;
  for (const Span* c : calls) {
    batch.push_back(static_cast<double>(c->count));
    frames_handled += static_cast<double>(c->count);
    call_ns += static_cast<double>(c->end_ns - c->start_ns);
    handle_ms.push_back(static_cast<double>(c->end_ns - c->start_ns) / 1e6);
    std::vector<std::pair<int64_t, int64_t>> inside;
    for (const Span* t : trips) {
      if (t->tid == c->tid && t->start_ns >= c->start_ns && t->start_ns <= c->end_ns) {
        inside.push_back({t->start_ns, t->end_ns});
      }
    }
    coord_self_ms.push_back(SelfNs(*c, std::move(inside)) / 1e6);
  }
  for (const Span* t : trips) {
    trip_ns += static_cast<double>(t->end_ns - t->start_ns);
    trip_each_ms.push_back(static_cast<double>(t->end_ns - t->start_ns) / 1e6);
  }

  // Server counters (whole run).
  const double answered = static_cast<double>(std::max<size_t>(1, attempted_ - failed_));
  const double hits = SumField(stats, "cache_hits");
  const double misses = SumField(stats, "cache_misses");
  const double sweeps = SumField(stats, "pir_batch_sweeps");
  const double batched = SumField(stats, "pir_batched_queries");
  const double visited = SumField(stats, "topk_shards_visited");
  const double skipped = SumField(stats, "topk_shards_skipped");

  // In-process replays of the engine calls on this run's own inputs,
  // single-threaded, each within a fixed time budget.
  const index::InvertedIndex* serving =
      live ? &states_.back()->index() : sub_.index.get();
  double alg4_ms = 0, postings_per_query = 0;
  if (!pir) {
    core::PrivateRetrievalServer engine(serving, sub_.buckets.get(), nullptr);
    const int64_t stop = NowNs() + 1000000000;
    size_t n = 0;
    int64_t spent = 0;
    double postings = 0;
    for (const Request& r : requests_) {
      if (r.kind != ReqKind::kPr || NowNs() > stop) continue;
      const PrSession& ps = pr_sessions_[r.session];
      auto frame = server::DecodeFrame(r.frame);
      if (!frame.ok()) continue;
      auto query = core::DecodeQuery(frame->payload, ps.keys->public_key());
      if (!query.ok()) continue;
      for (const auto& e : query->entries) {
        postings += static_cast<double>(serving->ListLength(e.term));
      }
      const int64_t t0 = ThreadCpuNs();
      auto result = engine.Process(*query, ps.keys->public_key(), nullptr);
      spent += ThreadCpuNs() - t0;
      if (result.ok()) ++n;
    }
    alg4_ms = n ? static_cast<double>(spent) / 1e6 / static_cast<double>(n) : 0;
    postings_per_query = n ? postings / static_cast<double>(n) : 0;
  }
  double sweep_ms = 0, muls_per_query = 0, simd_fill = 0;
  if (pir) {
    core::PirRetrievalServer engine(sub_.index.get(), sub_.buckets.get(), nullptr);
    std::vector<server::PirQueryPayload> payloads;
    for (const Request& r : requests_) {
      if (r.kind != ReqKind::kPir) continue;
      auto frame = server::DecodeFrame(r.frame);
      if (!frame.ok()) continue;
      auto payload = server::DecodePirQuery(frame->payload);
      if (payload.ok()) payloads.push_back(std::move(*payload));
    }
    const size_t width = std::max<size_t>(
        1, static_cast<size_t>(std::llround(sweeps > 0 ? batched / sweeps : 1)));
    crypto::PirBatchStats st;
    int64_t spent = 0;
    const int64_t stop = NowNs() + 1500000000;
    for (size_t b = 0; b < payloads.size() && NowNs() < stop; b += width) {
      std::vector<core::PirBatchItem> items;
      for (size_t i = b; i < std::min(payloads.size(), b + width); ++i) {
        (void)engine.BucketMatrix(payloads[i].bucket);  // warm, untimed
        items.push_back({payloads[i].bucket, &payloads[i].query});
      }
      const int64_t t0 = ThreadCpuNs();
      auto answered_batch = engine.AnswerBatch(items, nullptr, &st);
      spent += ThreadCpuNs() - t0;
      (void)answered_batch;
    }
    sweep_ms = st.sweeps ? static_cast<double>(spent) / 1e6 / static_cast<double>(st.sweeps) : 0;
    muls_per_query = st.queries ? static_cast<double>(st.mont_muls) /
                                      static_cast<double>(st.queries)
                                : 0;
    simd_fill = st.simd_fill();
  }
  double topk_ms = 0;
  if (live) {
    const int64_t stop = NowNs() + 500000000;
    size_t n = 0;
    int64_t spent = 0;
    for (const Request& r : requests_) {
      if (r.kind != ReqKind::kTopK || NowNs() > stop) continue;
      const int64_t t0 = ThreadCpuNs();
      auto top = index::EvaluateTopKEpoch(*states_.back(),
                                          sessions_[r.session].sets[r.set], kTopK);
      spent += ThreadCpuNs() - t0;
      (void)top;
      ++n;
    }
    topk_ms = n ? static_cast<double>(spent) / 1e6 / static_cast<double>(n) : 0;
  }
  // Kernel costs at the key width on the dispatched tier.
  double mont_ns = 0, modexp_us = 0;
  {
    const embellish::bignum::BigInt& n =
        pir ? pir_clients_[0]->n() : pr_sessions_[0].keys->public_key().n();
    auto ctx = embellish::bignum::MontgomeryContext::Create(n);
    if (ctx.ok()) {
      embellish::bignum::MontgomeryContext::Scratch scratch(*ctx);
      const size_t k = ctx->limb_count();
      std::vector<uint64_t> a(k), b(k), out(k);
      ctx->ToMontgomeryInto(n - embellish::bignum::BigInt(3), a.data(), &scratch);
      ctx->ToMontgomeryInto(n - embellish::bignum::BigInt(5), b.data(), &scratch);
      constexpr int kMuls = 200000;
      int64_t t0 = ThreadCpuNs();
      for (int i = 0; i < kMuls; ++i) ctx->MontMulInto(a.data(), b.data(), a.data(), &scratch);
      mont_ns = static_cast<double>(ThreadCpuNs() - t0) / kMuls;
      const embellish::bignum::BigInt e = n - embellish::bignum::BigInt(2);
      constexpr int kExps = 1000;
      t0 = ThreadCpuNs();
      for (int i = 0; i < kExps; ++i) ctx->ModExpInto(b.data(), e, out.data(), &scratch);
      modexp_us = static_cast<double>(ThreadCpuNs() - t0) / 1e3 / kExps;
    }
  }

  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  AddMetric("client.formulate_ms", formulate_ms_, "ms");
  AddMetric("client.decode_ms", decode_ms_, "ms");
  AddMetric("client.benaloh_encrypt_us", encrypt_us_, "us");
  AddMetric("client.benaloh_decrypt_us", decrypt_us_, "us");
  AddMetric("client.pir_decode_us", pir_decode_us_, "us");
  AddMetric("client.candidates_per_query", candidates_per_query_, "count");
  AddMetric("frontend.trip_ms", Mean(trip_ms), "ms");
  AddMetric("frontend.self_ms", Mean(self_ms), "ms");
  AddMetric("frontend.wait_ms", Mean(wait_ms), "ms");
  AddMetric("frontend.batch_frames", Mean(batch), "count");
  AddMetric("coordinator.handle_ms", coordinated ? Mean(handle_ms) : 0, "ms");
  AddMetric("coordinator.self_ms", coordinated ? Mean(coord_self_ms) : 0, "ms");
  AddMetric("transport.trip_ms", Mean(trip_each_ms), "ms");
  AddMetric("transport.trips_per_query",
            ratio(static_cast<double>(trips.size()), frames_handled), "count");
  AddMetric("transport.overlap", ratio(trip_ns, call_ns), "ratio");
  AddMetric("server.answer_cpu_ms", SumField(stats, "server_cpu_ms") / answered, "ms");
  AddMetric("server.cache_hit_ratio", ratio(hits, hits + misses), "ratio");
  AddMetric("server.pir_queries_per_sweep", ratio(batched, sweeps), "count");
  AddMetric("core.alg4_ms", alg4_ms, "ms");
  AddMetric("core.postings_per_query", postings_per_query, "count");
  AddMetric("crypto.pir_sweep_ms", sweep_ms, "ms");
  AddMetric("crypto.pir_mont_muls_per_query", muls_per_query, "count");
  AddMetric("crypto.simd_fill", simd_fill, "ratio");
  AddMetric("bignum.mont_mul_ns", mont_ns, "ns");
  AddMetric("bignum.modexp_us", modexp_us, "us");
  AddMetric("index.topk_ms", topk_ms, "ms");
  AddMetric("index.topk_shards_skipped_ratio", ratio(skipped, visited + skipped), "ratio");
  AddMetric("index.delta_install_ms", 0, "ms");
  AddMetric("index.reshard_install_ms", 0, "ms");
  AddMetric("storage.modeled_io_ms", SumField(stats, "server_io_ms") / answered, "ms");
  AddMetric("loadgen.lag_ms", lag_mean_ms_, "ms");
  AddMetric("trace.overhead_pct",
            untraced_p50 > 0 ? 100.0 * (traced_p50 - untraced_p50) / untraced_p50 : 0,
            "%");
}

}  // namespace

bool RunWorkload(const RunArgs& args, RunResult* result, std::string* error) {
  bool known = false;
  Shape shape = ShapeFor(args.workload, &known);
  if (!known) {
    *error = "unknown workload '" + args.workload + "'";
    return false;
  }
  Run run(args, shape, result);
  const bool done = run.Execute(error);
  ReapChildren();
  return done;
}

}  // namespace e2e
