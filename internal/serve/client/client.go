// Package client is the one HTTP client for the neofog-serve API, which
// a daemon and a router answer alike. The open-loop load harness
// (internal/loadgen, behind `neofog-bench -serve`) submits and polls
// through it with retries off; the serve and router chaos batteries
// drive Run.
//
// Run turns the server's failure-containment surface — 429 backpressure
// with Retry-After, 503 drains, deadline rejections, warm restarts that
// forget in-flight jobs — into a simple contract: it either returns the
// result bytes (byte-identical however many retries or restarts it took,
// thanks to content-addressed idempotent submission) or a typed terminal
// error; it never spins without bound. Retries use capped exponential
// backoff with full jitter, honor the server's Retry-After hints, and
// spend from a bounded attempt budget so a hard-down server fails fast
// instead of forever.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"neofog/internal/serve"
)

// APIError is a non-2xx response from the server. Transport failures
// are also folded into this shape (Status 0) so callers have one
// retryability test.
type APIError struct {
	// Status is the HTTP status code, or 0 for transport failures.
	Status int
	// Message is the server's error body (or the transport error).
	Message string
	// RetryAfter is the server's Retry-After hint, when present.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Status == 0 {
		return fmt.Sprintf("serve client: transport: %s", e.Message)
	}
	return fmt.Sprintf("serve client: HTTP %d: %s", e.Status, e.Message)
}

// Temporary reports whether retrying could plausibly succeed: transport
// failures, backpressure (429), and server unavailability (502/503/504).
func (e *APIError) Temporary() bool {
	switch e.Status {
	case 0, http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// JobError is a job that reached a terminal state other than done:
// failed, cancelled, or poisoned. The snapshot carries the server's
// error string.
type JobError struct {
	Job serve.Job
}

func (e *JobError) Error() string {
	return fmt.Sprintf("serve client: job %s %s: %s", e.Job.ID, e.Job.Status, e.Job.Error)
}

// Client talks to one neofog-serve instance through
// http.DefaultClient. The zero value is not usable; set BaseURL. All
// other fields default sanely. With MaxAttempts 1 a Client never draws
// jitter, and any number of goroutines may share it; a retrying Client
// draws from an unsynchronized RNG, so give each goroutine its own.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// MaxAttempts bounds tries per HTTP operation, first try included
	// (default 5).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 100ms); the
	// actual sleep is drawn uniformly from [0, min(MaxDelay,
	// BaseDelay·2^attempt)] — full jitter — unless the server's
	// Retry-After hint is longer.
	BaseDelay time.Duration
	// MaxDelay caps one backoff sleep (default 5s).
	MaxDelay time.Duration
	// PollInterval paces Wait's job polling (default 50ms).
	PollInterval time.Duration
	// Seed fixes the jitter RNG for deterministic tests; 0 seeds from
	// the wall clock.
	Seed int64
	// Tenant, when non-empty, labels every request with X-Neofog-Tenant
	// so the server (or a router in front of it) applies that tenant's
	// QoS policy — weighted-fair share, depth cap, rate limit. Tenants
	// the server does not know fold into "default".
	Tenant string
	// Class, when non-empty, labels submissions with X-Neofog-Class
	// ("interactive" or "bulk"); empty keeps each endpoint's default.
	Class string

	rng   *rand.Rand
	sleep func(context.Context, time.Duration) error // test hook
}

func (c *Client) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 5
}

func (c *Client) baseDelay() time.Duration {
	if c.BaseDelay > 0 {
		return c.BaseDelay
	}
	return 100 * time.Millisecond
}

func (c *Client) maxDelay() time.Duration {
	if c.MaxDelay > 0 {
		return c.MaxDelay
	}
	return 5 * time.Second
}

func (c *Client) pollInterval() time.Duration {
	if c.PollInterval > 0 {
		return c.PollInterval
	}
	return 50 * time.Millisecond
}

func (c *Client) jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	if c.rng == nil {
		seed := c.Seed
		if seed == 0 {
			seed = time.Now().UnixNano()
		}
		c.rng = rand.New(rand.NewSource(seed))
	}
	return time.Duration(c.rng.Int63n(int64(max)))
}

// backoffSleep waits before retry number attempt (0-based): full jitter
// over the exponential curve, floored by the server's hint when longer.
func (c *Client) backoffSleep(ctx context.Context, attempt int, hint time.Duration) error {
	max := c.baseDelay() << uint(attempt)
	if cap := c.maxDelay(); max > cap || max <= 0 {
		max = cap
	}
	d := c.jitter(max)
	if hint > d {
		d = hint
	}
	if c.sleep != nil {
		return c.sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// do runs one HTTP exchange with retries on temporary failures. A nil
// error means a 2xx response whose body is returned whole.
func (c *Client) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var last *APIError
	for attempt := 0; attempt < c.maxAttempts(); attempt++ {
		if attempt > 0 {
			var hint time.Duration
			if last != nil {
				hint = last.RetryAfter
			}
			if err := c.backoffSleep(ctx, attempt-1, hint); err != nil {
				return nil, &APIError{Message: err.Error()}
			}
		}
		var rdr io.Reader
		if body != nil {
			rdr = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rdr)
		if err != nil {
			return nil, &APIError{Message: err.Error()}
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if c.Tenant != "" {
			req.Header.Set(serve.TenantHeader, c.Tenant)
		}
		if c.Class != "" {
			req.Header.Set(serve.ClassHeader, c.Class)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, &APIError{Message: ctx.Err().Error()}
			}
			last = &APIError{Message: err.Error()}
			continue
		}
		respBody, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			last = &APIError{Message: err.Error()}
			continue
		}
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			return respBody, nil
		}
		apiErr := &APIError{Status: resp.StatusCode, Message: errorMessage(respBody)}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, perr := strconv.ParseInt(ra, 10, 64); perr == nil {
				apiErr.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		if !apiErr.Temporary() {
			return nil, apiErr
		}
		last = apiErr
	}
	return nil, last
}

func errorMessage(body []byte) string {
	var eb struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
		return eb.Error
	}
	return string(body)
}

// Submit posts one request and returns the server's response — a fresh,
// deduped, or cached job. Submission is idempotent (the job key is the
// request's content address), so retrying a submit that may or may not
// have reached the server is always safe.
func (c *Client) Submit(ctx context.Context, req serve.Request) (serve.SubmitResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return serve.SubmitResponse{}, &APIError{Message: err.Error()}
	}
	respBody, derr := c.do(ctx, http.MethodPost, "/v1/jobs", body)
	if derr != nil {
		return serve.SubmitResponse{}, derr
	}
	var sr serve.SubmitResponse
	if err := json.Unmarshal(respBody, &sr); err != nil {
		return serve.SubmitResponse{}, &APIError{Message: fmt.Sprintf("bad submit response: %v", err)}
	}
	return sr, nil
}

// Job fetches one job snapshot by ID.
func (c *Client) Job(ctx context.Context, id string) (serve.Job, error) {
	body, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil)
	if err != nil {
		return serve.Job{}, err
	}
	var j serve.Job
	if uerr := json.Unmarshal(body, &j); uerr != nil {
		return serve.Job{}, &APIError{Message: fmt.Sprintf("bad job response: %v", uerr)}
	}
	return j, nil
}

// Result fetches a done job's result bytes verbatim.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	body, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(body, []byte("\n")), nil
}

// Wait polls a job until it reaches a terminal state, returning the
// terminal snapshot. It polls at once, then every PollInterval. Non-done terminals come back as a *JobError; a 404
// (the job vanished — evicted, or forgotten across a restart) surfaces
// as the APIError so Run can resubmit.
func (c *Client) Wait(ctx context.Context, id string) (serve.Job, error) {
	for {
		j, err := c.Job(ctx, id)
		if err != nil {
			return serve.Job{}, err
		}
		switch j.Status {
		case serve.StatusDone:
			return j, nil
		case serve.StatusFailed, serve.StatusCancelled, serve.StatusPoisoned:
			return j, &JobError{Job: j}
		}
		if c.sleep != nil {
			if err := c.sleep(ctx, c.pollInterval()); err != nil {
				return serve.Job{}, &APIError{Message: err.Error()}
			}
		} else {
			t := time.NewTimer(c.pollInterval())
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return serve.Job{}, &APIError{Message: ctx.Err().Error()}
			}
		}
	}
}

// Run is the whole contract in one call: submit, wait, fetch. It rides
// out everything transient — backpressure, drains mid-poll, a server
// restart that forgot the job (404 → resubmit, idempotent by key), even
// a job cancelled by a drain (resubmitted once the replacement server
// accepts) — and returns either the result bytes or a terminal typed
// error (*APIError after the retry budget, or *JobError for
// failed/poisoned jobs). Every return path is bounded by ctx.
func (c *Client) Run(ctx context.Context, req serve.Request) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < c.maxAttempts(); attempt++ {
		if ctx.Err() != nil {
			return nil, &APIError{Message: ctx.Err().Error()}
		}
		if attempt > 0 {
			var hint time.Duration
			if ae, ok := lastErr.(*APIError); ok {
				hint = ae.RetryAfter
			}
			if err := c.backoffSleep(ctx, attempt-1, hint); err != nil {
				return nil, &APIError{Message: err.Error()}
			}
		}
		sr, err := c.Submit(ctx, req)
		if err != nil {
			lastErr = err
			if ae, ok := err.(*APIError); ok && !ae.Temporary() {
				return nil, err
			}
			continue
		}
		if sr.Cached && len(sr.Job.Result) > 0 {
			return sr.Job.Result, nil
		}
		j, err := c.Wait(ctx, sr.Job.ID)
		if err != nil {
			lastErr = err
			switch e := err.(type) {
			case *APIError:
				if e.Status == http.StatusNotFound || e.Temporary() {
					continue // restart or eviction forgot the job: resubmit by key
				}
				return nil, err
			case *JobError:
				if e.Job.Status == serve.StatusCancelled {
					continue // drain or deadline killed it; a resubmission may fit
				}
				return nil, err
			default:
				return nil, err
			}
		}
		if len(j.Result) > 0 {
			return j.Result, nil
		}
		body, err := c.Result(ctx, j.ID)
		if err != nil {
			lastErr = err
			if ae, ok := err.(*APIError); ok && (ae.Status == http.StatusNotFound || ae.Temporary()) {
				continue
			}
			return nil, err
		}
		return body, nil
	}
	if lastErr == nil {
		lastErr = &APIError{Message: "retry budget exhausted"}
	}
	return nil, lastErr
}
