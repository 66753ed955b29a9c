package server

import (
	"os"
	"path/filepath"
	"sync"
	"time"

	"faulthound/internal/campaign"
)

// Job states. A job is terminal in StateDone and StateFailed;
// StateInterrupted jobs hold a journal on disk and are requeued (as
// resumes) when the daemon restarts.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateInterrupted = "interrupted"
)

// Event is one line of a job's progress stream (JSONL, or SSE data
// payloads). Type is "state" for lifecycle transitions and "progress"
// for injection completions; terminal events carry the final state and
// any error.
type Event struct {
	Type  string `json:"type"` // "state" | "progress"
	State string `json:"state"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Error string `json:"error,omitempty"`
}

// JobStatus is the wire form of a job, returned by POST /v1/campaigns
// and GET /v1/campaigns/{id}.
type JobStatus struct {
	// ID is the canonical spec hash — identical submissions share it.
	ID    string `json:"id"`
	RunID string `json:"run_id"`
	State string `json:"state"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
	// Resumed counts journal-replayed injections of the current run.
	Resumed int `json:"resumed,omitempty"`
	// CacheHit marks a POST response served by dedup or the result
	// cache instead of a fresh execution.
	CacheHit bool   `json:"cache_hit,omitempty"`
	Error    string `json:"error,omitempty"`
	// Bundle is the URL path prefix of the artifact bundle once the
	// job is done.
	Bundle    string `json:"bundle,omitempty"`
	CreatedAt string `json:"created_at,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms,omitempty"`
}

// job is the server-side state of one campaign or optimize job. The
// two kinds share the queue, dedup, state, persistence, events and
// drain; they differ only in how a submission is normalized, in the
// execute step, and in the artifact set a finished job leaves.
type job struct {
	id   string // spec hash, or optimize request hash
	spec campaign.Spec
	// opt is an optimize job's normalized search request; nil for a
	// campaign.
	opt *OptimizeRequest
	dir string

	mu       sync.Mutex
	state    string
	resume   bool // continue from an on-disk journal
	done     int
	total    int
	resumed  int
	err      error
	created  time.Time
	started  time.Time
	finished time.Time
	subs     map[chan Event]struct{}
	// doneCh closes when the job reaches a terminal or interrupted
	// state, releasing event streams and waiters.
	doneCh chan struct{}
}

func newJob(id string, spec campaign.Spec, opt *OptimizeRequest, dir string) *job {
	total := len(spec.Cells()) * spec.Fault.Injections
	if opt != nil {
		total = opt.worstCase()
	}
	return &job{
		id:     id,
		spec:   spec,
		opt:    opt,
		dir:    dir,
		state:  StateQueued,
		total:  total,
		subs:   make(map[chan Event]struct{}),
		doneCh: make(chan struct{}),
	}
}

// complete reports whether the job directory holds every artifact a
// finished job of its kind writes.
func (j *job) complete() bool {
	files := []string{campaign.ManifestName, campaign.ResultsName, campaign.SummaryName, campaign.ReportName}
	if j.opt != nil {
		files = paretoFiles
	}
	for _, f := range files {
		if _, err := os.Stat(filepath.Join(j.dir, f)); err != nil {
			return false
		}
	}
	return true
}

// status snapshots the wire form.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *job) statusLocked() JobStatus {
	st := JobStatus{
		ID:      j.id,
		RunID:   j.spec.RunID,
		State:   j.state,
		Done:    j.done,
		Total:   j.total,
		Resumed: j.resumed,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.created.IsZero() {
		st.CreatedAt = j.created.UTC().Format(time.RFC3339)
	}
	if j.state == StateDone {
		st.Bundle = "/v1/campaigns/" + j.id + "/bundle/"
	}
	if !j.started.IsZero() {
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		st.ElapsedMS = end.Sub(j.started).Milliseconds()
	}
	return st
}

// event snapshots the stream form.
func (j *job) event(typ string) Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.eventLocked(typ)
}

func (j *job) eventLocked(typ string) Event {
	ev := Event{Type: typ, State: j.state, Done: j.done, Total: j.total}
	if j.err != nil {
		ev.Error = j.err.Error()
	}
	return ev
}

// subscribe registers a progress listener. The channel is buffered and
// lossy for progress events (a slow consumer drops ticks, never blocks
// the engine); the terminal state is always observable via doneCh plus
// a final snapshot.
func (j *job) subscribe() (ch chan Event, cancel func()) {
	ch = make(chan Event, 64)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	ch <- j.eventLocked("state")
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

// broadcastLocked fans ev to subscribers without blocking.
func (j *job) broadcastLocked(ev Event) {
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// setState transitions the job and notifies subscribers. Terminal (and
// interrupted) states close doneCh.
func (j *job) setState(state string, err error) {
	j.mu.Lock()
	j.state = state
	j.err = err
	switch state {
	case StateRunning:
		j.started = time.Now()
	case StateDone, StateFailed, StateInterrupted:
		j.finished = time.Now()
	}
	j.broadcastLocked(j.eventLocked("state"))
	terminal := state == StateDone || state == StateFailed || state == StateInterrupted
	var doneCh chan struct{}
	if terminal {
		doneCh = j.doneCh
	}
	j.mu.Unlock()
	if doneCh != nil {
		select {
		case <-doneCh:
		default:
			close(doneCh)
		}
	}
}

// progress records an engine progress callback.
func (j *job) progress(done, total int) {
	j.mu.Lock()
	j.done, j.total = done, total
	j.broadcastLocked(j.eventLocked("progress"))
	j.mu.Unlock()
}
