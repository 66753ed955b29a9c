package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"faulthound/internal/campaign"
	"faulthound/internal/search"
)

// Client talks to a campaign-serving daemon. It is the programmatic
// form of the HTTP API; cmd/fhcampaign -addr is built on it.
//
// With Retries > 0 the client rides out transient failures: Submit and
// Status repeat on connection errors, 429s, and 5xx responses with
// jittered exponential backoff (Submit is safe to repeat — the spec
// hash deduplicates), and Watch reconnects a dropped event stream and
// resumes from the job's live state. 429s honor the server's
// Retry-After hint.
type Client struct {
	// Base is the daemon's base URL, e.g. "http://localhost:8080".
	Base string
	// HTTP overrides the transport (nil means http.DefaultClient).
	HTTP *http.Client
	// Retries is the number of additional attempts after a transient
	// failure; 0 means fail fast.
	Retries int
	// RetryBase is the first backoff delay, doubling per attempt with
	// ±50% jitter, capped at 5s. Zero means 200ms.
	RetryBase time.Duration

	// sleep overrides the backoff wait in tests.
	sleep func(context.Context, time.Duration) error
}

// NewClient normalizes addr ("host:port" or a full URL) into a Client.
func NewClient(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{Base: strings.TrimRight(addr, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// apiError is a non-2xx daemon response.
type apiError struct {
	Code int
	Msg  string
	// RetryAfter is the server's Retry-After hint (429s), if any.
	RetryAfter time.Duration
}

func (e *apiError) Error() string {
	return fmt.Sprintf("server: HTTP %d: %s", e.Code, e.Msg)
}

func decodeError(resp *http.Response) error {
	defer resp.Body.Close()
	var body struct {
		Error string `json:"error"`
	}
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(b, &body) != nil || body.Error == "" {
		body.Error = strings.TrimSpace(string(b))
	}
	e := &apiError{Code: resp.StatusCode, Msg: body.Error}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		e.RetryAfter = time.Duration(secs) * time.Second
	}
	return e
}

// transient reports whether err is worth retrying: any transport-level
// failure (connection refused, reset), plus 429 and 5xx responses.
func transient(err error) bool {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.Code == http.StatusTooManyRequests || ae.Code >= 500
	}
	return true
}

// backoff waits out attempt's delay: floor (a server Retry-After hint,
// may be zero) or jittered exponential, whichever is larger.
func (c *Client) backoff(ctx context.Context, attempt int, floor time.Duration) error {
	base := c.RetryBase
	if base <= 0 {
		base = 200 * time.Millisecond
	}
	d := base << min(attempt, 10)
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	d = time.Duration(float64(d) * (0.5 + rand.Float64())) // 0.5x–1.5x
	if d < floor {
		d = floor
	}
	if c.sleep != nil {
		return c.sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retry runs op up to 1+Retries times, backing off between transient
// failures.
func (c *Client) retry(ctx context.Context, op func() error) error {
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil || ctx.Err() != nil || attempt >= c.Retries || !transient(err) {
			return err
		}
		var floor time.Duration
		var ae *apiError
		if errors.As(err, &ae) {
			floor = ae.RetryAfter
		}
		if c.backoff(ctx, attempt, floor) != nil {
			return err
		}
	}
}

// Submit posts a campaign spec and returns the created (or
// deduplicated) job's status. Repeats are harmless: the canonical spec
// hash dedups on the server, so a retried submit attaches to the job
// the lost response created.
func (c *Client) Submit(ctx context.Context, spec campaign.Spec) (*JobStatus, error) {
	return c.submit(ctx, "/v1/campaigns", spec)
}

// submit posts a job body to one of the two submission routes.
func (c *Client) submit(ctx context.Context, path string, v any) (*JobStatus, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var st *JobStatus
	err = c.retry(ctx, func() error {
		st, err = c.submitOnce(ctx, path, b)
		return err
	})
	return st, err
}

func (c *Client) submitOnce(ctx context.Context, path string, body []byte) (*JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, decodeError(resp)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Status fetches a job's current status.
func (c *Client) Status(ctx context.Context, id string) (*JobStatus, error) {
	var st *JobStatus
	err := c.retry(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/campaigns/"+id, nil)
		if err != nil {
			return err
		}
		resp, err := c.http().Do(req)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return decodeError(resp)
		}
		defer resp.Body.Close()
		st = new(JobStatus)
		return json.NewDecoder(resp.Body).Decode(st)
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// terminalState reports whether a stream may legitimately end at state.
func terminalState(state string) bool {
	switch state {
	case StateDone, StateFailed, StateInterrupted:
		return true
	}
	return false
}

// Watch consumes the job's JSONL event stream, invoking onEvent per
// line (nil is allowed), until the job reaches a terminal state; it
// then returns the job's final status. A stream that dies mid-job
// (daemon restart, proxy hiccup) is reconnected with backoff when
// Retries > 0; a connection that made progress resets the attempt
// budget, so a long campaign survives any number of isolated drops.
func (c *Client) Watch(ctx context.Context, id string, onEvent func(Event)) (*JobStatus, error) {
	for attempt := 0; ; {
		terminal, progressed, err := c.watchOnce(ctx, id, onEvent)
		if terminal {
			return c.Status(ctx, id)
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		if !transient(err) {
			return nil, err
		}
		if progressed {
			attempt = 0
		}
		if attempt >= c.Retries {
			return nil, fmt.Errorf("server: watching job %s: stream ended before a terminal state: %w", id, err)
		}
		var floor time.Duration
		var ae *apiError
		if errors.As(err, &ae) {
			floor = ae.RetryAfter
		}
		if c.backoff(ctx, attempt, floor) != nil {
			return nil, err
		}
		attempt++
	}
}

// watchOnce consumes one connection's worth of the event stream.
func (c *Client) watchOnce(ctx context.Context, id string, onEvent func(Event)) (terminal, progressed bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/campaigns/"+id+"/events", nil)
	if err != nil {
		return false, false, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return false, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, false, decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue
		}
		progressed = true
		if onEvent != nil {
			onEvent(ev)
		}
		if ev.Type == "state" && terminalState(ev.State) {
			terminal = true
		}
	}
	return terminal, progressed, sc.Err()
}

// BundleFile fetches one artifact file of a completed job.
func (c *Client) BundleFile(ctx context.Context, id, name string) ([]byte, error) {
	var out []byte
	err := c.retry(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/campaigns/"+id+"/bundle/"+name, nil)
		if err != nil {
			return err
		}
		resp, err := c.http().Do(req)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return decodeError(resp)
		}
		defer resp.Body.Close()
		out, err = io.ReadAll(resp.Body)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Optimize runs a Pareto search as a daemon job: it submits the
// request (POST /v1/optimize), watches the job to a terminal state, and
// returns the bundle's pareto.json. Repeats are harmless — the request
// hash dedups onto the queued, running, or finished job.
func (c *Client) Optimize(ctx context.Context, oreq OptimizeRequest) (*search.Report, error) {
	st, err := c.submit(ctx, "/v1/optimize", oreq)
	if err != nil {
		return nil, err
	}
	final, err := c.Watch(ctx, st.ID, nil)
	if err != nil {
		return nil, err
	}
	if final.State != StateDone {
		return nil, fmt.Errorf("server: optimize job %s ended %s: %s", final.ID, final.State, final.Error)
	}
	b, err := c.BundleFile(ctx, final.ID, search.JSONName)
	if err != nil {
		return nil, err
	}
	var rep search.Report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("server: optimize job %s: bad %s: %w", final.ID, search.JSONName, err)
	}
	return &rep, nil
}

// Summary fetches and parses a completed job's summary.json.
func (c *Client) Summary(ctx context.Context, id string) (*campaign.Summary, error) {
	b, err := c.BundleFile(ctx, id, campaign.SummaryName)
	if err != nil {
		return nil, err
	}
	var sum campaign.Summary
	if err := json.Unmarshal(b, &sum); err != nil {
		return nil, err
	}
	return &sum, nil
}
