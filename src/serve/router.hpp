// Sharded multi-client front: many independent admission sessions behind
// one line-multiplexed stream.
//
// run_mux_server() is the wire front: input lines are
//
//   @<session> <command or payload line>
//
// Session ids are small non-negative integers; a session appears when
// first mentioned, owns one CommandSession (serve/server.hpp) with its own
// controller, and buffers its replies.  Session sid belongs to shard
// sid mod shards.  The mux reads its input to EOF (or, under --strict, to
// the first framing error), appending each session's lines and then its
// finish() to its shard's work list.  The lists of the shards that hold a
// session are then drained on util/workers.hpp's run_workers(), one
// worker per list at a time, so the sessions of one shard run serially in
// input order and everything a session owns is single-threaded state.
// Every reply is a pure function of that session's input lines, which is
// why the output is byte-identical at any --shards/--threads value (the
// ctest gate `server_mux_shard_equivalence` diffs 1 vs 8 threads;
// `server_metrics_shard_count_equivalence` 1 vs 4 shards).  The buffered
// replies are emitted grouped by session in ascending id order, each line
// prefixed `@<session> `.
#pragma once

#include <iosfwd>

#include "serve/server.hpp"

namespace dpcp {

/// Options of the multiplexed front.
struct MuxOptions {
  /// Per-session serve knobs (every session gets the same ones).
  ServeOptions serve;
  /// Sessions are grouped into this many shards (>= 1).
  int shards = 1;
  /// At most this many workers drain the shards that hold a session.
  int threads = 1;
};

/// Runs one multiplexed session to EOF.  Returns 0, or 2 when
/// options.serve.strict and any session (or the mux layer itself)
/// emitted an error.
int run_mux_server(std::istream& in, std::ostream& out,
                   const MuxOptions& options);

}  // namespace dpcp
