// Package cluster shards one fault-injection campaign across many
// fhserved nodes. A coordinator is the campaign engine's executor: it
// partitions the outstanding pre-drawn injection descriptors into
// contiguous per-cell index ranges, leases each range to a registered
// worker, and hands the streamed-back results to the engine, which
// journals them and writes the bundle exactly as for a single-node run
// — so the bundle is byte-identical to an unsharded run, and a
// coordinator crash mid-campaign resumes from the journal like any
// interrupted run.
//
// The protocol is three HTTP endpoints layered on the existing daemon:
//
//	POST /v1/cluster/register   worker announces itself (idempotent)
//	POST /v1/cluster/heartbeat  periodic worker status
//	GET  /v1/cluster/workers    registry snapshot (ops/debug)
//
// on the coordinator, plus one on each worker:
//
//	POST /v1/cluster/run        execute a shard, streaming JSONL records
//
// A shard executes descriptors [From, To) of one benchmark×scheme cell
// with the campaign's full fault config: the worker draws the same
// descriptor stream from the same seed, so descriptor index i names
// the same injection everywhere and the merge is a trivial set-union
// keyed by (cell, index). Workers stream one record per completed
// injection; any received line renews the range's lease, and a lease
// whose stream dies or stalls past the TTL is re-leased to a
// surviving worker (duplicate records from re-lease races are
// idempotent — deterministic execution makes them byte-equal).
//
// Routing is one rule, kept on the coordinator's own record of what it
// leased to whom: a free worker slot gets the next range of a cell that
// worker already holds, failing that a range of a cell no worker holds,
// failing that the first pending range. Each worker prepares the cells
// it holds once, and keeps them warm in its fault.PreparedCache.
package cluster

import (
	"fmt"

	"faulthound/internal/fault"
)

// ShardRequest is the body of POST /v1/cluster/run: one contiguous
// descriptor range of one cell, with everything a worker needs to
// reproduce the exact injection stream.
type ShardRequest struct {
	// LeaseID names this lease for logs and debugging; the worker
	// echoes it back in error records.
	LeaseID string `json:"lease_id"`
	// RunID is the campaign's run ID (logging only).
	RunID string `json:"run_id"`
	// Bench and Scheme name the cell; Scheme is a canonical scheme
	// spec string.
	Bench  string `json:"bench"`
	Scheme string `json:"scheme"`
	// From and To bound the descriptor index range [From, To).
	From int `json:"from"`
	To   int `json:"to"`
	// Fault is the campaign's full fault configuration; the worker
	// draws the descriptor stream from it (seed included) so index i
	// is the same injection on every node.
	Fault fault.Config `json:"fault"`
}

// Validate rejects malformed shard requests before any work runs.
func (r ShardRequest) Validate() error {
	if r.Bench == "" || r.Scheme == "" {
		return fmt.Errorf("cluster: shard names no cell")
	}
	if r.From < 0 || r.To <= r.From || r.To > r.Fault.Injections {
		return fmt.Errorf("cluster: shard range [%d,%d) out of bounds for %d injections", r.From, r.To, r.Fault.Injections)
	}
	return r.Fault.Validate()
}

// Stream record kinds. "prep" and "result" carry campaign journal
// payloads; "ping" renews the lease during long golden preparations;
// "done" terminates a successful stream; "error" reports a worker-side
// failure (the range is re-leased elsewhere).
const (
	KindPrep   = "prep"
	KindResult = "result"
	KindPing   = "ping"
	KindDone   = "done"
	KindError  = "error"
)

// StreamRecord is one JSONL line of a shard's response stream. Prep
// and result records map 1:1 onto campaign.Record; the bench/scheme of
// the lease's cell are implied, and the coordinator merges the records
// through campaign.Work.Prep and Result.
type StreamRecord struct {
	Kind string `json:"kind"`
	// Index is the descriptor index of a result record.
	Index int `json:"index,omitempty"`
	// FPRate is the cell's fault-free false-positive rate (prep).
	FPRate float64 `json:"fp_rate,omitempty"`
	// Result is the completed injection (result).
	Result *fault.Result `json:"result,omitempty"`
	// Error describes a worker-side failure (error).
	Error string `json:"error,omitempty"`
}

// WorkerStatus is what a worker reports at registration and in every
// heartbeat: identity, capacity, the shards it is executing, and its
// prepared-golden-state cache tallies.
type WorkerStatus struct {
	// ID is the worker's stable identity — its advertised base URL,
	// which is also where the coordinator dials shards.
	ID string `json:"id"`
	// Addr is the worker's base URL ("http://host:port").
	Addr string `json:"addr"`
	// Slots is the number of shards the worker executes concurrently.
	Slots int `json:"slots"`
	// Inflight is the number of shards executing right now.
	Inflight int `json:"inflight"`
	// CacheHits and CacheMisses are the prepared cache's cumulative
	// tallies.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
}
