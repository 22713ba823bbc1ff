package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// Door is the front door's overload policy: who is admitted, how long an
// admitted search may run, and where its outcome is recorded. Every field
// is optional; the zero Door admits everything, imposes no deadline and
// records nothing.
type Door struct {
	// Gate admits searches; HeavyGate, when set, admits the heavy classes
	// (IsHeavyClass) instead, so a burst of expensive queries cannot
	// starve cheap single-term traffic out of Gate.
	Gate      *Gate
	HeavyGate *Gate
	// Metrics records exactly one observation per admitted search.
	Metrics *Metrics
	// DefaultTimeout bounds searches whose request chose no timeout of
	// its own (0: unbounded).
	DefaultTimeout time.Duration
}

// Request describes one search to Do.
type Request struct {
	Query    string // the query text as received (slow-query log)
	Strategy string // the backend's search: backward or distributed (histogram label)
	Class    string // ClassOf the request: picks the gate and the histogram
	// Timeout is the deadline the client chose (0: none, the door's
	// DefaultTimeout applies). Expiry of a client-chosen deadline is the
	// client's doing (408); expiry of the server's is overload (503).
	Timeout time.Duration
}

// Outcome is what a run reports about itself for the observation.
type Outcome struct {
	// BudgetExhausted: the search was truncated by its cost budget.
	BudgetExhausted bool
	// Detail carries the engine's execution statistics into the
	// slow-query log.
	Detail any
}

// Status is Do's verdict on one request, for the caller to put on the
// wire. Code is an HTTP status; 0 means the client went away and nothing
// should be written. RetryAfter accompanies every 503. Err is nil exactly
// when Code is 200.
type Status struct {
	Code       int
	RetryAfter time.Duration
	Err        error
}

// Do runs one search through the door. It is the only place the overload
// sequence lives:
//
//   - the class picks the gate; a full queue or a queue wait past the
//     gate's patience sheds the request (503 + RetryAfter) before any
//     engine work happens, and a client that disconnects while queued
//     just goes away;
//   - the deadline is the client's Timeout or else the door's default,
//     and it is enforced here, at the response layer: run executes in its
//     own goroutine and Do returns the moment the deadline expires, even
//     if the search is slow to reach its next cancellation poll. A
//     client-chosen deadline maps to 408, the server's to 503;
//   - the abandoned run unwinds in the background (its context is
//     cancelled when Do returns) and frees its admission slot only when
//     it actually exits, so admitted concurrency stays bounded;
//   - every admitted request records exactly one observation, when its
//     run exits;
//   - any other error out of run is the server's fault: 500.
//
// Do writes no HTTP; the value run returned is handed back only with 200.
func Do[T any](ctx context.Context, d *Door, req Request, run func(context.Context) (T, Outcome, error)) (T, Status) {
	var zero T
	gate := d.Gate
	if d.HeavyGate != nil && IsHeavyClass(req.Class) {
		gate = d.HeavyGate
	}
	retry := time.Second
	if gate != nil {
		retry = gate.RetryAfter()
	}
	release, err := gate.Acquire(ctx)
	if err != nil {
		if IsOverload(err) {
			return zero, Status{Code: http.StatusServiceUnavailable, RetryAfter: retry, Err: err}
		}
		return zero, Status{}
	}
	timeout := req.Timeout
	if timeout <= 0 {
		timeout = d.DefaultTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	type result struct {
		v   T
		err error
	}
	done := make(chan result, 1)
	start := time.Now()
	go func() {
		v, out, rerr := run(ctx)
		d.Metrics.ObserveQuery(QueryOutcome{
			Query:           req.Query,
			Strategy:        req.Strategy,
			Class:           req.Class,
			Elapsed:         time.Since(start),
			Err:             rerr,
			BudgetExhausted: out.BudgetExhausted,
			TimedOut:        errors.Is(rerr, context.DeadlineExceeded),
			Detail:          out.Detail,
		})
		done <- result{v, rerr}
		release()
	}()
	var res result
	select {
	case res = <-done:
	case <-ctx.Done():
		res.err = ctx.Err()
	}
	switch {
	case res.err == nil:
		return res.v, Status{Code: http.StatusOK}
	case errors.Is(res.err, context.DeadlineExceeded):
		if req.Timeout > 0 {
			return zero, Status{Code: http.StatusRequestTimeout,
				Err: fmt.Errorf("search timed out after %s", req.Timeout)}
		}
		return zero, Status{Code: http.StatusServiceUnavailable, RetryAfter: retry,
			Err: fmt.Errorf("search exceeded the server's %s limit", d.DefaultTimeout)}
	case errors.Is(res.err, context.Canceled):
		return zero, Status{}
	default:
		return zero, Status{Code: http.StatusInternalServerError, Err: res.err}
	}
}
