package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"faulthound/internal/campaign"
	"faulthound/internal/obs/metrics"
)

// Coordinator shards campaigns across registered workers. It plugs
// into the serving daemon as its campaign runner: the front door
// (submission, dedup, queueing, status, SSE, bundles) is unchanged,
// and only the execution step is replaced. The coordinator is the
// campaign engine's executor (campaign.Engine.Exec): it partitions the
// outstanding descriptor indices the engine hands it into leases and
// streams results back from workers into the engine's campaign.Work,
// which journals them. The engine keeps everything else — manifest,
// journal replay, resume and the bundle — so a sharded bundle is
// byte-identical to an unsharded one, and a coordinator crash resumes
// like any interrupted run.
type Coordinator struct {
	// Registry tracks the worker fleet. Required.
	Registry *Registry
	// Deprecated: inert. Every lease is routed by one rule (see
	// dispatch); nothing reads this field.
	Policy any
	// LeaseTTL is the maximum stream silence before a lease is
	// declared stalled and re-leased (workers ping every second during
	// golden preparation). Zero means DefaultLeaseTTL.
	LeaseTTL time.Duration
	// RangeSize is the maximum descriptors per lease. Zero means
	// DefaultRangeSize. Smaller ranges re-lease less work after a
	// worker death but cost more per-lease overhead.
	RangeSize int
	// MaxAttempts bounds how often one range is re-leased before the
	// job fails. Zero means DefaultMaxAttempts.
	MaxAttempts int
	// HTTP overrides the shard-dispatch transport (nil means a client
	// without timeouts — shard streams are long-lived; the lease TTL
	// handles stalls).
	HTTP *http.Client
	// Log receives lease lifecycle logs; nil discards them.
	Log *slog.Logger

	// Metrics series; nil fields are allowed (Register wires them).
	mLeases  *metrics.Value
	mExpired *metrics.Value
	mMerged  *metrics.Value
	mMerge   *metrics.Histogram
}

// RoundRobin is an inert stand-in for the routing policy that
// Coordinator.Policy used to select.
//
// Deprecated: every lease is routed by one rule (see dispatch).
type RoundRobin struct{}

// Defaults for Coordinator knobs.
const (
	DefaultLeaseTTL    = 30 * time.Second
	DefaultRangeSize   = 64
	DefaultMaxAttempts = 8
)

func (c *Coordinator) leaseTTL() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	return DefaultLeaseTTL
}

func (c *Coordinator) rangeSize() int {
	if c.RangeSize > 0 {
		return c.RangeSize
	}
	return DefaultRangeSize
}

func (c *Coordinator) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return DefaultMaxAttempts
}

func (c *Coordinator) client() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{}
}

func (c *Coordinator) log() *slog.Logger {
	if c.Log != nil {
		return c.Log
	}
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// RegisterMetrics wires the coordinator's series into a registry
// (documented in docs/CLUSTER.md and asserted by scripts/smoke_cluster.sh).
func (c *Coordinator) RegisterMetrics(reg *metrics.Registry) {
	c.mLeases = reg.Counter("fh_cluster_leases_granted_total", "Range leases granted to workers (including re-leases).")
	c.mExpired = reg.Counter("fh_cluster_leases_expired_total", "Leases lost to worker death or stream stall and re-leased.")
	c.mMerged = reg.Counter("fh_cluster_records_merged_total", "Worker-streamed result records merged into job journals.")
	c.mMerge = reg.Histogram("fh_cluster_merge_seconds",
		"Wall time from a sharded job's last lease to its written bundle.", metrics.ExpBuckets(0.001, 2, 14))
	if c.Registry != nil && c.Registry.alive == nil {
		c.Registry.alive = reg.Gauge("fh_cluster_workers_alive", "Workers registered and heartbeating within the expiry window.")
	}
}

// Handler returns the coordinator's registry endpoints, mounted next
// to the daemon's API:
//
//	POST /v1/cluster/register   worker announces itself
//	POST /v1/cluster/heartbeat  periodic status (404 for unknown IDs)
//	GET  /v1/cluster/workers    registry snapshot
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/register", func(w http.ResponseWriter, r *http.Request) {
		st, err := decodeStatus(w, r)
		if err != nil {
			return
		}
		c.Registry.Register(st)
		c.log().Info("worker registered", "worker", st.ID, "slots", st.Slots)
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("POST /v1/cluster/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		st, err := decodeStatus(w, r)
		if err != nil {
			return
		}
		if !c.Registry.Heartbeat(st) {
			writeJSON(w, http.StatusNotFound, map[string]any{"error": "unknown worker; re-register"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /v1/cluster/workers", func(w http.ResponseWriter, _ *http.Request) {
		type wireWorker struct {
			WorkerStatus
			Alive  bool `json:"alive"`
			Leases int  `json:"leases"`
		}
		var out []wireWorker
		for _, cand := range c.Registry.Snapshot() {
			out = append(out, wireWorker{cand.Status, cand.Alive, cand.Leases})
		}
		writeJSON(w, http.StatusOK, map[string]any{"workers": out})
	})
	return mux
}

func decodeStatus(w http.ResponseWriter, r *http.Request) (WorkerStatus, error) {
	var st WorkerStatus
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&st); err != nil {
		http.Error(w, "bad worker status: "+err.Error(), http.StatusBadRequest)
		return st, err
	}
	if st.ID == "" || st.Addr == "" {
		err := fmt.Errorf("cluster: worker status has no id/addr")
		http.Error(w, err.Error(), http.StatusBadRequest)
		return st, err
	}
	return st, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	b, _ := json.Marshal(v)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
}

// lease is one outstanding contiguous descriptor range of one cell.
type lease struct {
	cell     int // index into the campaign's cell list
	from, to int // descriptor range [from, to)
	attempts int
}

// leaseResult reports a finished lease goroutine back to the scheduler.
type leaseResult struct {
	l        *lease
	workerID string
	err      error // nil: range fully merged
	expired  bool  // worker death or stall (vs. worker-reported error)
	fatal    bool  // the merge itself failed: fail the campaign, re-lease nothing
}

// RunCampaign executes one campaign across the worker fleet. Its
// signature matches server.Runner, so cmd/fhserved wires it straight
// into the daemon's job loop. It installs the lease dispatcher as the
// engine's executor and runs (or, with resume, resumes) the campaign
// in dir through the engine.
func (c *Coordinator) RunCampaign(ctx context.Context, eng *campaign.Engine, dir string, resume bool) (*campaign.Outcome, error) {
	var lastLease time.Time
	eng.Exec = func(ctx context.Context, work *campaign.Work) error {
		defer func() { lastLease = time.Now() }()
		return c.dispatch(ctx, work)
	}
	out, err := eng.Run(ctx, dir, resume)
	if err != nil {
		return nil, err
	}
	if c.mMerge != nil {
		c.mMerge.Observe(time.Since(lastLease).Seconds())
	}
	return out, nil
}

// dispatch is the engine's executor: it runs the lease scheduler until
// every outstanding injection of work is merged or the context/attempt
// budget ends. Free worker slots get leases by the rule holdings.assign
// implements.
func (c *Coordinator) dispatch(ctx context.Context, work *campaign.Work) error {
	// Split the outstanding runs of each cell into contiguous leases of
	// at most RangeSize descriptors, cell-major — the order the local
	// pool executes tasks in.
	var pending []*lease
	size := c.rangeSize()
	for _, r := range work.Ranges() {
		for from := r.From; from < r.To; from += size {
			pending = append(pending, &lease{cell: r.Cell, from: from, to: min(from+size, r.To)})
		}
	}

	// Every lease goroutine runs under dctx and ends with exactly one
	// blocking send on resCh; cancelling dctx aborts their streams, so
	// the drain below always terminates.
	dctx, dcancel := context.WithCancel(ctx)
	defer dcancel()
	resCh := make(chan leaseResult)
	active := 0
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}

	held := make(holdings, len(work.Cells))
	for (len(pending) > 0 || active > 0) && firstErr == nil {
		// Grant as many leases as the fleet can take right now.
		var grants []grant
		grants, pending = held.assign(c.Registry.Snapshot(), pending)
		for _, g := range grants {
			c.Registry.AddLeases(g.w.ID, 1)
			if c.mLeases != nil {
				c.mLeases.Inc()
			}
			active++
			go c.runLease(dctx, work, g.l, g.w, resCh)
		}

		if active == 0 {
			// Nothing running and nothing grantable: the fleet is empty
			// or saturated-and-dead. Wait for a worker to (re)appear.
			select {
			case <-ctx.Done():
				fail(ctx.Err())
			case <-time.After(200 * time.Millisecond):
			}
			continue
		}

		select {
		case <-ctx.Done():
			// The journal keeps everything merged so far; the deferred
			// drain below collects the aborted leases.
			fail(ctx.Err())
		case r := <-resCh:
			active--
			c.Registry.AddLeases(r.workerID, -1)
			if r.err == nil {
				continue
			}
			if r.fatal {
				fail(r.err)
				continue
			}
			if r.expired {
				if c.mExpired != nil {
					c.mExpired.Inc()
				}
				c.Registry.MarkFailed(r.workerID)
			}
			// Re-lease the unmerged remainder. Streams are ordered, so
			// the merged part of the range is a prefix.
			rest := *r.l
			for rest.from < rest.to && work.Done(rest.cell, rest.from) {
				rest.from++
			}
			if rest.from >= rest.to {
				continue // lost the race to a duplicate lease; all merged
			}
			rest.attempts++
			cell := work.Cells[rest.cell]
			if rest.attempts >= c.maxAttempts() {
				fail(fmt.Errorf("cluster: range %s[%d,%d) failed %d times, last: %w",
					cell, rest.from, rest.to, rest.attempts, r.err))
				continue
			}
			c.log().Warn("re-leasing range", "cell", cell.String(),
				"from", rest.from, "to", rest.to, "attempt", rest.attempts, "err", r.err)
			pending = append(pending, &rest)
		}
	}

	// Cancel and collect whatever is still running (no-op on a clean
	// finish: active is already zero).
	dcancel()
	for active > 0 {
		r := <-resCh
		c.Registry.AddLeases(r.workerID, -1)
		active--
	}
	return firstErr
}

// holdings is the coordinator's record, for one run, of which workers
// it has leased each cell to. A worker prepares a cell on its first
// lease of it and keeps the preparation in its fault.PreparedCache, so
// the record says where each cell's golden state is warm, exactly and
// with no reporting delay.
type holdings []map[string]bool

// grant is one lease handed to one worker.
type grant struct {
	l *lease
	w WorkerStatus
}

// assign gives every free slot of every alive worker in cands (the
// registry snapshot, in ID order) a pending lease, chosen in this
// order:
//
//  1. the next pending lease of a cell already leased to that worker;
//  2. otherwise, the next lease of a cell no worker holds;
//  3. otherwise, the first pending lease.
//
// A worker thus prepares each cell it holds once, and only at the tail
// of a run does an idle worker take a cell someone else holds. It
// returns the grants and the leases still pending.
func (h holdings) assign(cands []Candidate, pending []*lease) ([]grant, []*lease) {
	var grants []grant
	for _, cand := range cands {
		if !cand.Alive {
			continue
		}
		id := cand.Status.ID
		for free := cand.Free(); free > 0 && len(pending) > 0; free-- {
			i := h.pick(id, pending)
			l := pending[i]
			pending = append(pending[:i], pending[i+1:]...)
			if h[l.cell] == nil {
				h[l.cell] = make(map[string]bool)
			}
			h[l.cell][id] = true
			grants = append(grants, grant{l, cand.Status})
		}
	}
	return grants, pending
}

// pick returns the index in pending of the lease assign gives worker
// id.
func (h holdings) pick(id string, pending []*lease) int {
	unheld := -1
	for i, l := range pending {
		if h[l.cell][id] {
			return i
		}
		if unheld < 0 && len(h[l.cell]) == 0 {
			unheld = i
		}
	}
	if unheld < 0 {
		return 0
	}
	return unheld
}

// runLease executes one lease against one worker: POST the shard,
// consume the record stream (any line renews the lease timer), and
// report the outcome to the scheduler.
func (c *Coordinator) runLease(ctx context.Context, work *campaign.Work, l *lease, w WorkerStatus, resCh chan<- leaseResult) {

	// The scheduler receives every result, draining until active==0
	// even on error/cancellation exits, so this send never orphans —
	// and it must be unconditional or that drain would deadlock.
	report := func(err error, expired bool) {
		resCh <- leaseResult{l: l, workerID: w.ID, err: err, expired: expired}
	}

	cl := work.Cells[l.cell]
	req := ShardRequest{
		LeaseID: fmt.Sprintf("%s/%s[%d,%d)#%d", work.Spec.RunID, cl, l.from, l.to, l.attempts),
		RunID:   work.Spec.RunID,
		Bench:   cl.Bench,
		Scheme:  cl.Scheme.String(),
		From:    l.from,
		To:      l.to,
		Fault:   work.Spec.Fault,
	}
	body, err := json.Marshal(req)
	if err != nil {
		report(err, false)
		return
	}
	leaseCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	hreq, err := http.NewRequestWithContext(leaseCtx, http.MethodPost, w.Addr+"/v1/cluster/run", bytes.NewReader(body))
	if err != nil {
		report(err, false)
		return
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.client().Do(hreq)
	if err != nil {
		report(fmt.Errorf("cluster: dialing worker %s: %w", w.ID, err), true)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		report(fmt.Errorf("cluster: worker %s rejected shard: HTTP %d: %s", w.ID, resp.StatusCode, bytes.TrimSpace(b)), false)
		return
	}

	// Reader goroutine feeds lines; the select loop below enforces the
	// lease TTL between lines. cancel() tears the body down, which
	// stops the reader.
	lineCh := make(chan []byte)
	readErr := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			line := make([]byte, len(sc.Bytes()))
			copy(line, sc.Bytes())
			select {
			case lineCh <- line:
			case <-leaseCtx.Done():
				return
			}
		}
		readErr <- sc.Err()
		close(lineCh)
	}()

	ttl := c.leaseTTL()
	timer := time.NewTimer(ttl)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			report(ctx.Err(), false)
			return
		case <-timer.C:
			cancel()
			report(fmt.Errorf("cluster: lease %s stalled on worker %s (no record within %s)", req.LeaseID, w.ID, ttl), true)
			return
		case line, ok := <-lineCh:
			if !ok {
				// EOF before "done": the worker died mid-stream.
				err := <-readErr
				if err == nil {
					err = io.ErrUnexpectedEOF
				}
				report(fmt.Errorf("cluster: lease %s stream from %s ended early: %w", req.LeaseID, w.ID, err), true)
				return
			}
			if !timer.Stop() {
				<-timer.C
			}
			timer.Reset(ttl)
			var rec StreamRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				cancel()
				report(fmt.Errorf("cluster: lease %s: bad stream line from %s: %w", req.LeaseID, w.ID, err), true)
				return
			}
			switch rec.Kind {
			case KindPing:
				// keepalive only
			case KindPrep, KindResult:
				if err := c.merge(work, l.cell, rec); err != nil {
					cancel()
					resCh <- leaseResult{l: l, workerID: w.ID, err: err, fatal: true}
					return
				}
			case KindDone:
				report(nil, false)
				return
			case KindError:
				report(fmt.Errorf("cluster: worker %s failed lease %s: %s", w.ID, req.LeaseID, rec.Error), false)
				return
			default:
				// Forward compatibility: ignore unknown kinds.
			}
		}
	}
}

// merge hands one streamed prep or result record to the engine's Work,
// which validates, dedupes and journals it.
func (c *Coordinator) merge(work *campaign.Work, cell int, rec StreamRecord) error {
	if rec.Kind == KindPrep {
		return work.Prep(cell, rec.FPRate)
	}
	if rec.Result == nil {
		return fmt.Errorf("cluster: worker streamed a result record without a result (index %d)", rec.Index)
	}
	added, err := work.Result(cell, rec.Index, *rec.Result)
	if added && c.mMerged != nil {
		c.mMerged.Inc()
	}
	return err
}
