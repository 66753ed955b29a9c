package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// retryClient returns a client with instant backoff that records every
// sleep it would have taken.
func retryClient(url string, retries int) (*Client, *[]time.Duration) {
	var slept []time.Duration
	c := NewClient(url)
	c.Retries = retries
	c.sleep = func(_ context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	return c, &slept
}

// TestClientSubmitRetry submits against a daemon that fails twice
// (connection reset, then a 503) before accepting — the client must
// ride it out and return the job status from the third attempt.
func TestClientSubmitRetry(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			// Kill the connection without a response: the transport
			// surfaces EOF/reset, the classic mid-restart failure.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("recorder cannot hijack")
			}
			conn, _, _ := hj.Hijack()
			conn.Close()
		case 2:
			http.Error(w, "restarting", http.StatusServiceUnavailable)
		default:
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(JobStatus{ID: "job-1", State: StateQueued})
		}
	}))
	defer ts.Close()

	cl, slept := retryClient(ts.URL, 3)
	st, err := cl.Submit(context.Background(), testSpec(4))
	if err != nil {
		t.Fatalf("submit with retries failed: %v", err)
	}
	if st.ID != "job-1" {
		t.Fatalf("submit returned %+v", st)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
	if len(*slept) != 2 {
		t.Fatalf("client backed off %d times, want 2 (%v)", len(*slept), *slept)
	}
	// Jittered exponential: each delay is within [0.5x, 1.5x] of its
	// 200ms<<attempt base.
	for i, d := range *slept {
		base := 200 * time.Millisecond << i
		if d < base/2 || d > base*3/2 {
			t.Fatalf("backoff %d was %v, want within [%v, %v]", i, d, base/2, base*3/2)
		}
	}
}

// TestClientSubmitRetryExhausted checks the failure path: a daemon
// that never recovers exhausts the attempt budget and surfaces the
// last error.
func TestClientSubmitRetryExhausted(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusBadGateway)
	}))
	defer ts.Close()

	cl, _ := retryClient(ts.URL, 2)
	if _, err := cl.Submit(context.Background(), testSpec(4)); err == nil {
		t.Fatal("submit against a dead daemon succeeded")
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (1 + 2 retries)", got)
	}
}

// TestClientSubmitNoRetryOn400 checks that permanent rejections are
// not retried: a 400 must fail immediately.
func TestClientSubmitNoRetryOn400(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"bad spec"}`, http.StatusBadRequest)
	}))
	defer ts.Close()

	cl, slept := retryClient(ts.URL, 5)
	if _, err := cl.Submit(context.Background(), testSpec(4)); err == nil {
		t.Fatal("bad spec accepted")
	}
	if calls.Load() != 1 || len(*slept) != 0 {
		t.Fatalf("400 was retried: %d calls, %d sleeps", calls.Load(), len(*slept))
	}
}

// TestClientRetryHonorsRetryAfter checks that a 429's Retry-After hint
// floors the backoff delay.
func TestClientRetryHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"job queue full","reason":"queue_full","retry_after_seconds":7}`)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(JobStatus{ID: "job-2", State: StateQueued})
	}))
	defer ts.Close()

	cl, slept := retryClient(ts.URL, 1)
	st, err := cl.Submit(context.Background(), testSpec(4))
	if err != nil || st.ID != "job-2" {
		t.Fatalf("submit after 429: %+v, %v", st, err)
	}
	if len(*slept) != 1 || (*slept)[0] < 7*time.Second {
		t.Fatalf("429 backoff %v, want >= 7s from Retry-After", *slept)
	}
}

// TestClientWatchReconnect kills the event stream mid-job (as a daemon
// restart would) and checks the client reconnects and follows the job
// to completion.
func TestClientWatchReconnect(t *testing.T) {
	var streams atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/campaigns/j1/events", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		if streams.Add(1) == 1 {
			// First connection: some progress, then the stream dies
			// without a terminal state.
			enc.Encode(Event{Type: "progress", State: StateRunning, Done: 1, Total: 4})
			enc.Encode(Event{Type: "progress", State: StateRunning, Done: 2, Total: 4})
			return
		}
		enc.Encode(Event{Type: "progress", State: StateRunning, Done: 3, Total: 4})
		enc.Encode(Event{Type: "state", State: StateDone, Done: 4, Total: 4})
	})
	mux.HandleFunc("GET /v1/campaigns/j1", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(JobStatus{ID: "j1", State: StateDone, Done: 4, Total: 4})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cl, slept := retryClient(ts.URL, 2)
	var events []Event
	st, err := cl.Watch(context.Background(), "j1", func(ev Event) { events = append(events, ev) })
	if err != nil {
		t.Fatalf("watch with reconnect failed: %v", err)
	}
	if st.State != StateDone {
		t.Fatalf("final state %s, want done", st.State)
	}
	if streams.Load() != 2 {
		t.Fatalf("server saw %d stream connections, want 2", streams.Load())
	}
	if len(events) != 4 {
		t.Fatalf("client saw %d events across reconnect, want 4 (%+v)", len(events), events)
	}
	if len(*slept) != 1 {
		t.Fatalf("client backed off %d times, want 1", len(*slept))
	}
}

// TestClientWatchGivesUp checks the budget: a stream that keeps dying
// without progress fails once retries are exhausted.
func TestClientWatchGivesUp(t *testing.T) {
	var streams atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/campaigns/j2/events", func(w http.ResponseWriter, _ *http.Request) {
		streams.Add(1)
		// Empty stream, no terminal event: connect-then-die forever.
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cl, _ := retryClient(ts.URL, 2)
	if _, err := cl.Watch(context.Background(), "j2", nil); err == nil {
		t.Fatal("watch against a dying stream succeeded")
	}
	if streams.Load() != 3 {
		t.Fatalf("server saw %d stream connections, want 3 (1 + 2 retries)", streams.Load())
	}
}
