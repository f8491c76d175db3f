// Core types of the SMR subsystem: client operations, proposal batches, and
// the wire bodies of the replicated-log protocol.
//
// The log separates *ordering* from *dissemination*. Consensus (the Fig. 8
// engine, one instance per log slot) only ever decides a batch identifier —
// a Value, which is all the paper's algorithm can carry — while batch bodies
// travel in the SMR messages below. A replica applies slot s once it knows
// both the committed identifier for s and the matching body.
//
// Epoch discipline (Multi-Paxos style, adapted to the broadcast-only Env):
// epoch e is owned by replica index e % n, so concurrently minted epochs
// are always distinct. A replica that has promised epoch e ignores appends,
// acks and proposals of lower epochs; commit counting is per-epoch. The
// HΩ detector only *triggers* epoch changes (it is the leader oracle);
// safety never depends on its output being right.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace hds::smr {

// One client operation. `client` is globally unique (the workload driver
// derives it from the replica index); `seq` makes the op idempotent — the
// state machine applies each (client, seq) at most once, which is what turns
// at-least-once delivery (re-forwarded ops, re-proposed batches) into
// exactly-once application.
struct SmrOp {
  std::uint64_t client = 0;
  std::int64_t seq = 0;
  std::int64_t key = 0;
  std::int64_t val = 0;
  // Payload padding: inert bytes sized by the workload's op_size knob, so
  // the wire cost of an op is honest without widening the KV model.
  std::vector<std::uint8_t> pad;
  friend bool operator==(const SmrOp&, const SmrOp&) = default;
};

// A proposal batch. `id` 0 is the reserved no-op filler (recovery decides it
// for holes); real ids pack (origin replica, origin-local sequence) so two
// replicas can never mint the same id.
struct SmrBatch {
  std::int64_t id = 0;
  std::vector<SmrOp> ops;
  friend bool operator==(const SmrBatch&, const SmrBatch&) = default;
};

inline constexpr std::int64_t kNoopBatchId = 0;

[[nodiscard]] inline std::int64_t make_batch_id(std::size_t origin_replica, std::int64_t seq) {
  return (static_cast<std::int64_t>(origin_replica) << 40) | seq;
}

// ------------------------------------------------------------- wire bodies

// One commit fact: slot s decided batch id. Commit knowledge travels as
// explicit (slot, id) records — never as a bare frontier number — because a
// committed id is unique per slot, so acting on a record is safe even when
// sender and receiver disagree about what is logged where (a bare frontier
// is not: after a competing recovery a replica can hold a different batch
// inside someone else's committed prefix). A commit record is semantically
// a batched Fig. 8 DECIDE.
struct SmrCommitRec {
  std::int64_t slot = 0;
  std::int64_t id = 0;
  friend bool operator==(const SmrCommitRec&, const SmrCommitRec&) = default;
};

// Fast path: the lease holder assigns `slot` to `batch` and broadcasts one
// APPEND. `commits` piggybacks the commit records minted since the leader's
// previous broadcast, which is how commit knowledge reaches followers
// without a dedicated message.
struct SmrAppendMsg {
  std::int64_t epoch = 0;
  std::int64_t slot = 0;
  SmrBatch batch;
  std::vector<SmrCommitRec> commits;
  friend bool operator==(const SmrAppendMsg&, const SmrAppendMsg&) = default;
};

// Periodic cumulative acknowledgement — one broadcast covers every slot
// logged so far, so ack cost amortizes over many batches. Doubles as the
// follower-to-leader op channel: `pending` carries client ops submitted at
// this replica that are not yet applied (re-included until they are; the
// state machine's dedup makes the repetition harmless).
struct SmrAckMsg {
  std::int64_t epoch = 0;
  std::uint64_t replica = 0;
  std::int64_t logged_through = 0;   // contiguous prefix committed or logged under `epoch`
  std::int64_t applied_through = 0;  // contiguous prefix applied
  std::int64_t commit_frontier = 0;  // sender's committed prefix (informational)
  std::vector<SmrCommitRec> commits;  // a recent window of commit records
  std::vector<SmrOp> pending;
  friend bool operator==(const SmrAckMsg&, const SmrAckMsg&) = default;
};

// Epoch change, phase 1: the would-be leader of `epoch` asks for promises.
// `from_slot` is the first slot it considers in doubt (its frontier + 1).
struct SmrNewEpochMsg {
  std::int64_t epoch = 0;
  std::int64_t from_slot = 0;
  std::uint64_t replica = 0;
  friend bool operator==(const SmrNewEpochMsg&, const SmrNewEpochMsg&) = default;
};

// One logged slot reported in a promise: the batch, the epoch it was logged
// under, and whether the promiser already knows it committed.
struct SmrLogRec {
  std::int64_t slot = 0;
  std::int64_t epoch = 0;
  bool committed = false;
  SmrBatch batch;
  friend bool operator==(const SmrLogRec&, const SmrLogRec&) = default;
};

// Epoch change, phase 2: a promise not to take part in lower epochs, plus
// the promiser's uncommitted suffix (bodies included, so the new leader
// learns batches it never saw).
struct SmrPromiseMsg {
  std::int64_t epoch = 0;
  std::uint64_t replica = 0;
  std::int64_t frontier = 0;  // promiser's committed prefix
  std::vector<SmrLogRec> entries;
  friend bool operator==(const SmrPromiseMsg&, const SmrPromiseMsg&) = default;
};

// Recovery proposal: the new leader's chosen batch for an in-doubt slot.
// Every replica that accepts it creates the slot's Fig. 8 instance with
// exactly this value as its proposal, so the instance's validity pins the
// decision to the chosen (safe) batch.
struct SmrProposeMsg {
  std::int64_t epoch = 0;
  std::int64_t slot = 0;
  SmrBatch batch;
  friend bool operator==(const SmrProposeMsg&, const SmrProposeMsg&) = default;
};

}  // namespace hds::smr
