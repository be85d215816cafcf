// Sharded multi-client front: N independent admission shards behind one
// line-multiplexed stream.
//
// ShardRouter is the execution fabric: `shards` FIFO command queues,
// drained by `threads` worker threads under a static ownership map
// (worker w owns shards w, w+T, w+2T, ...).  A shard's tasks run in post
// order on exactly one thread, so everything a shard owns — controller,
// session, output buffer — is single-threaded state and every reply is a
// pure function of that shard's input sequence.  Changing the thread
// count only changes which worker runs a shard, never the order within
// one, which is why the mux front below is byte-identical at any
// --threads value (the ctest gate `server_mux_shard_equivalence` diffs
// 1 vs 8 threads; `server_metrics_shard_count_equivalence` 1 vs 4 shards).
//
// run_mux_server() is the wire front: input lines are
//
//   @<session> <command or payload line>
//
// Session ids are small non-negative integers; a session appears when
// first mentioned, owns one CommandSession (serve/server.hpp) pinned to
// shard  session mod shards,  and buffers its replies.  At EOF every
// session is finished (open payloads become framing errors) and the
// buffered replies are emitted grouped by session in ascending id order,
// each line prefixed `@<session> `.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/server.hpp"

namespace dpcp {

class ShardRouter {
 public:
  /// `shards` >= 1 FIFO queues, drained by min(threads, shards) workers.
  ShardRouter(int shards, int threads);
  /// Joins the workers; pending tasks are still executed first.
  ~ShardRouter();
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  int shards() const { return shards_; }
  int threads() const { return static_cast<int>(threads_.size()); }

  /// Enqueues `fn` on `shard`'s queue.  Tasks of one shard run in post
  /// order on the shard's owning worker; tasks of different shards run
  /// concurrently.  Single-producer: post() and drain() are meant to be
  /// called from one driving thread.
  void post(int shard, std::function<void()> fn);

  /// Blocks until every task posted so far has finished.
  void drain();

 private:
  struct Worker {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::function<void()>> queue;
    bool stop = false;
  };

  void worker_loop(Worker& w);

  const int shards_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::int64_t outstanding_ = 0;  // guarded by done_mu_
};

/// Options of the multiplexed front.
struct MuxOptions {
  /// Per-session serve knobs (every session gets the same ones).
  ServeOptions serve;
  int shards = 1;
  int threads = 1;
};

/// Runs one multiplexed session to EOF.  Returns 0, or 2 when
/// options.serve.strict and any session (or the mux layer itself)
/// emitted an error.
int run_mux_server(std::istream& in, std::ostream& out,
                   const MuxOptions& options);

}  // namespace dpcp
