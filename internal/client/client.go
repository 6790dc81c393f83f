// Package client is the typed Go client of the simulation service: the
// counterpart of internal/server used by peas-sim -remote, the smoke
// tooling and the end-to-end tests. It speaks the api wire types,
// surfaces 429 admission rejections as *RetryableError with the
// server's Retry-After hint, and can follow a job's SSE event stream.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"peas/internal/jobqueue"
	"peas/internal/server/api"
)

// Client talks to one peas-serve instance.
type Client struct {
	base string
	hc   *http.Client
}

// New returns a client for the service at base (e.g.
// "http://127.0.0.1:8080"). The http.Client has no overall timeout:
// SSE streams and long polls are bounded by the caller's context.
func New(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
}

// RetryableError reports a transient server-side rejection the caller
// should retry after a delay: 429 (queue full) or 503 (the state store
// cannot persist the admission right now, e.g. a full disk).
type RetryableError struct {
	Message    string
	RetryAfter time.Duration
	// Code is the server's machine-readable rejection class (api.Code*):
	// "queue_full", "deadline_infeasible" or "persist_failed". Callers
	// use it to choose a strategy — wait out a full queue, but loosen or
	// drop the deadline when admission says it is infeasible.
	Code string
}

func (e *RetryableError) Error() string {
	return fmt.Sprintf("server busy: %s (retry after %s)", e.Message, e.RetryAfter)
}

// APIError reports any other non-2xx response.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Status, e.Message)
}

func (c *Client) url(path string) string { return c.base + path }

// decodeError turns a non-2xx response into a typed error.
func decodeError(resp *http.Response) error {
	var body api.ErrorResponse
	msg := resp.Status
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body); err == nil && body.Error != "" {
		msg = body.Error
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		retry := time.Duration(body.RetryAfterSeconds) * time.Second
		if retry == 0 {
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
				retry = time.Duration(secs) * time.Second
			}
		}
		if retry == 0 {
			retry = time.Second
		}
		return &RetryableError{Message: msg, RetryAfter: retry, Code: body.Code}
	}
	return &APIError{Status: resp.StatusCode, Message: msg}
}

// bodyPool holds the buffers a 2xx JSON body is read into before it is
// decoded; maxPooledBody bounds what goes back, so one large Jobs listing
// keeps no memory alive after its call.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 64 << 10

// decodeBody reads a 2xx body to EOF, which also hands the connection
// back to the transport's keep-alive pool, and unmarshals it into out.
func decodeBody(resp *http.Response, out any) error {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(resp.Body)
	if err == nil {
		err = json.Unmarshal(buf.Bytes(), out)
	}
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
	return err
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(path), nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	return decodeBody(resp, out)
}

// Submit posts a job spec. The response reports whether it was
// accepted, coalesced onto an in-flight run, or served from the cache.
func (c *Client) Submit(ctx context.Context, spec *jobqueue.Spec) (*api.SubmitResponse, error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url("/api/v1/jobs"), bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, decodeError(resp)
	}
	var out api.SubmitResponse
	if err := decodeBody(resp, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RetryPolicy bounds SubmitWithRetry. The zero value means 4 attempts,
// a 100ms backoff seed and a 5s per-wait cap.
type RetryPolicy struct {
	// MaxAttempts is the total number of submit attempts (not retries);
	// the first 429 consumes attempt one.
	MaxAttempts int
	// BaseWait seeds the exponential backoff used as a floor under the
	// server's Retry-After hint, so a server that keeps answering with a
	// tiny hint still sees decreasing pressure from this client.
	BaseWait time.Duration
	// MaxWait caps any single wait, whatever the server suggests.
	MaxWait time.Duration
	// OnRetry, when non-nil, observes each backoff before sleeping:
	// attempt is the 1-based attempt that was rejected, wait the chosen
	// delay. The load generator uses it to count retries.
	OnRetry func(attempt int, wait time.Duration)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseWait <= 0 {
		p.BaseWait = 100 * time.Millisecond
	}
	if p.MaxWait <= 0 {
		p.MaxWait = 5 * time.Second
	}
	return p
}

// SubmitWithRetry submits a job spec, absorbing 429 admission
// rejections with bounded, capped-exponential backoff that honors the
// server's Retry-After hint: each wait is max(hint, BaseWait<<attempt)
// clamped to MaxWait. Non-retryable errors (400s, transport failures)
// return immediately; exhausting MaxAttempts returns the last
// *RetryableError so callers can still distinguish "busy" from
// "broken".
func (c *Client) SubmitWithRetry(ctx context.Context, spec *jobqueue.Spec, pol RetryPolicy) (*api.SubmitResponse, error) {
	pol = pol.withDefaults()
	var lastErr error
	for attempt := 1; ; attempt++ {
		resp, err := c.Submit(ctx, spec)
		if err == nil {
			return resp, nil
		}
		var retryable *RetryableError
		if !errors.As(err, &retryable) {
			return nil, err
		}
		lastErr = err
		if attempt >= pol.MaxAttempts {
			return nil, lastErr
		}
		wait := retryable.RetryAfter
		if floor := pol.BaseWait << (attempt - 1); wait < floor {
			wait = floor
		}
		if wait > pol.MaxWait {
			wait = pol.MaxWait
		}
		if pol.OnRetry != nil {
			pol.OnRetry(attempt, wait)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(wait):
		}
	}
}

// Cancel requests cancellation of a job (DELETE /api/v1/jobs/{id}).
// The call is idempotent: Requested reports whether this request
// initiated the stop (false when the job was already terminal or a stop
// was already in flight), and the embedded JobInfo is the job's current
// view. Unknown IDs return an *APIError with Status 404.
func (c *Client) Cancel(ctx context.Context, id string) (*api.CancelResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.url("/api/v1/jobs/"+id), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, decodeError(resp)
	}
	var out api.CancelResponse
	if err := decodeBody(resp, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Job fetches one job by ID.
func (c *Client) Job(ctx context.Context, id string) (*api.JobInfo, error) {
	var out api.JobInfo
	if err := c.getJSON(ctx, "/api/v1/jobs/"+id, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Jobs lists every job the server tracks.
func (c *Client) Jobs(ctx context.Context) ([]api.JobInfo, error) {
	var out api.JobListResponse
	if err := c.getJSON(ctx, "/api/v1/jobs", &out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// Result fetches a cached result by content key.
func (c *Client) Result(ctx context.Context, key string) (*jobqueue.Result, error) {
	var out api.ResultResponse
	if err := c.getJSON(ctx, "/api/v1/results/"+key, &out); err != nil {
		return nil, err
	}
	return out.Result, nil
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (*api.HealthResponse, error) {
	var out api.HealthResponse
	if err := c.getJSON(ctx, "/healthz", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics fetches the raw /metrics exposition text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/metrics"), nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return "", decodeError(resp)
	}
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}

var dataPrefix = []byte("data: ")

// Events follows the job's SSE stream, invoking fn per event until the
// stream ends (terminal job state), fn returns false, or ctx is done.
func (c *Client) Events(ctx context.Context, id string, fn func(ev jobqueue.Event) bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/api/v1/jobs/"+id+"/events"), nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	// The scanner starts at bufio's default size and grows only for a
	// longer line, up to 1 MiB; most streams are one short done event.
	// Unmarshal copies what it keeps, so ev holds nothing of the buffer.
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(nil, 1<<20)
	for scanner.Scan() {
		data, ok := bytes.CutPrefix(scanner.Bytes(), dataPrefix)
		if !ok {
			continue // "event:" lines and blank separators
		}
		var ev jobqueue.Event
		if err := json.Unmarshal(data, &ev); err != nil {
			return fmt.Errorf("client: malformed SSE event: %w", err)
		}
		if !fn(ev) {
			return nil
		}
	}
	if err := scanner.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return ctx.Err()
}

// Wait polls until the job reaches a terminal state and returns its
// final JobInfo. Failed, cancelled and deadline-killed jobs yield a
// plain error with the job's message; suspended jobs an explanatory
// error. The returned JobInfo is non-nil for every terminal state so
// callers can still inspect the job alongside the error.
func (c *Client) Wait(ctx context.Context, id string) (*api.JobInfo, error) {
	tick := time.NewTicker(150 * time.Millisecond)
	defer tick.Stop()
	for {
		info, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		switch info.State {
		case jobqueue.StateDone:
			return info, nil
		case jobqueue.StateFailed:
			return info, fmt.Errorf("job %s failed: %s", id, info.Error)
		case jobqueue.StateCancelled:
			return info, fmt.Errorf("job %s cancelled: %s", id, info.Error)
		case jobqueue.StateDeadline:
			return info, fmt.Errorf("job %s exceeded its deadline: %s", id, info.Error)
		case jobqueue.StateSuspended:
			return info, fmt.Errorf("job %s suspended by server shutdown; it resumes after restart", id)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-tick.C:
		}
	}
}
