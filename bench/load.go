package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sort"
	"sync"
	"syscall"
	"time"

	banks "github.com/banksdb/banks"
)

// sample is one front-door request as its client saw it.
type sample struct {
	query int // index into the workload's list
	start time.Time
	dur   time.Duration
	code  int
}

// target is the front door with the request line of every list entry
// prepared, so the timed loop does no string work of its own.
type target struct {
	handler http.Handler
	queries []query
	urls    []string
	// span, when non-nil, is called after every request (traced runs).
	span     func(s sample)
	panicked bool // the first panic was logged
}

func newTarget(h http.Handler, qs []query) *target {
	t := &target{handler: h, queries: qs, urls: make([]string, len(qs))}
	for i, q := range qs {
		t.urls[i] = "/search?q=" + url.QueryEscape(q.Text)
	}
	return t
}

// do sends list entry i through the handler. Only the status code is
// read: a change of response format must not break the harness. A
// handler that panics has failed the request, as it would behind
// net/http, which recovers and drops the connection.
func (t *target) do(i int) sample {
	req := httptest.NewRequest(http.MethodGet, t.urls[i], nil)
	rec := httptest.NewRecorder()
	start := time.Now()
	func() {
		defer func() {
			if p := recover(); p != nil {
				rec.Code = http.StatusInternalServerError
				if !t.panicked {
					t.panicked = true
					fmt.Fprintf(os.Stderr, "bench: the front door panicked on %q: %v\n", t.queries[i].Text, p)
				}
			}
		}()
		t.handler.ServeHTTP(rec, req)
	}()
	s := sample{query: i, start: start, dur: time.Since(start), code: rec.Code}
	if t.span != nil {
		t.span(s)
	}
	return s
}

// closedLoop runs one client for d: it sends its next request when the
// previous one completed. It walks the list from position next; the
// returned position continues the walk, so a warm-up and the timed
// window do not replay the same prefix.
func closedLoop(t *target, next int, d time.Duration) ([]sample, int) {
	var samples []sample
	for deadline := time.Now().Add(d); time.Now().Before(deadline); next++ {
		samples = append(samples, t.do(next%len(t.queries)))
	}
	return samples, next
}

// applySample is one writer batch, timed from when it was due.
type applySample struct {
	due   time.Time
	start time.Time
	end   time.Time
	err   error
}

// interval is one Compact call.
type interval struct{ start, end time.Time }

// churn is the write side of churn-names: an open-loop writer applying
// the script every applyEvery, and a compactor every compactEvery.
type churn struct {
	sys     *banks.System
	script  []mutation
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	applies []applySample // written by the writer goroutine, read after stop
	compact []interval    // written by the compactor goroutine, read after stop
	err     error         // first Compact error
	// acked are the bench authors whose insert was acknowledged and not
	// deleted since, by AuthorId: what durability must preserve.
	acked map[string]bool
}

const (
	applyEvery   = 20 * time.Millisecond
	compactEvery = 7 * time.Second
)

func startChurn(sys *banks.System, script []mutation) *churn {
	ctx, cancel := context.WithCancel(context.Background())
	c := &churn{sys: sys, script: script, cancel: cancel, acked: map[string]bool{}}
	c.wg.Add(2)
	go func() {
		defer c.wg.Done()
		c.write(ctx, applyEvery)
	}()
	go func() {
		defer c.wg.Done()
		c.compactLoop(ctx)
	}()
	return c
}

// stop ends both goroutines and waits for them.
func (c *churn) stop() {
	c.cancel()
	c.wg.Wait()
}

// write applies script batch i at start + i*every (every 0: back to
// back). A late writer does not skip: it catches up, and every batch is
// timed from its due time, so a stall is charged to all the batches it
// delayed.
func (c *churn) write(ctx context.Context, every time.Duration) {
	type rows struct{ author, writes int64 }
	inserted := map[int]rows{}
	start := time.Now()
	for i, m := range c.script {
		due := start.Add(time.Duration(i) * every)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(wait):
			}
		} else if ctx.Err() != nil {
			return
		}
		var batch []banks.Mutation
		switch m.Kind {
		case mutInsert:
			batch = []banks.Mutation{
				banks.Insert("Author", map[string]interface{}{"AuthorId": m.AuthorID, "AuthorName": m.AuthorName}),
				banks.Insert("Writes", map[string]interface{}{"AuthorId": m.AuthorID, "PaperId": m.PaperID}),
			}
		case mutUpdate:
			t, ok := c.sys.TupleByPK("Paper", m.PaperID)
			if !ok {
				c.applies = append(c.applies, applySample{due: due, start: due, end: due,
					err: fmt.Errorf("script batch %d: no paper %s", i, m.PaperID)})
				continue
			}
			batch = []banks.Mutation{banks.Update("Paper", t.RID, map[string]interface{}{"PaperName": m.Title})}
		case mutDelete:
			r := inserted[m.Victim]
			batch = []banks.Mutation{banks.Delete("Writes", r.writes), banks.Delete("Author", r.author)}
		}
		s := applySample{due: due, start: time.Now()}
		res, err := c.sys.Apply(ctx, batch)
		s.end, s.err = time.Now(), err
		if err != nil && ctx.Err() != nil {
			return // stopped mid-call; not a failure of the system
		}
		c.applies = append(c.applies, s)
		if err != nil {
			continue
		}
		switch m.Kind {
		case mutInsert:
			inserted[i] = rows{author: res.RIDs[0], writes: res.RIDs[1]}
			c.acked[m.AuthorID] = true
		case mutDelete:
			delete(c.acked, c.script[m.Victim].AuthorID)
		}
	}
}

// applyQuiet applies the script back to back with no reader beside the
// writer and returns each batch's Apply latency.
func applyQuiet(ctx context.Context, sys *banks.System, script []mutation) ([]time.Duration, error) {
	c := &churn{sys: sys, script: script, acked: map[string]bool{}}
	c.write(ctx, 0)
	out := make([]time.Duration, 0, len(c.applies))
	for _, a := range c.applies {
		if a.err != nil {
			return nil, fmt.Errorf("Apply: %w", a.err)
		}
		out = append(out, a.end.Sub(a.start))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

func (c *churn) compactLoop(ctx context.Context) {
	tick := time.NewTicker(compactEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		iv := interval{start: time.Now()}
		err := c.sys.Compact()
		iv.end = time.Now()
		c.compact = append(c.compact, iv)
		if err != nil && c.err == nil {
			c.err = fmt.Errorf("Compact: %w", err)
		}
	}
}

// window is what one timed window measured.
type window struct {
	start, end time.Time
	samples    []sample
	cpuUser    time.Duration
	cpuSys     time.Duration
	minFaults  int64
}

func (w *window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

func rusage() (user, sys time.Duration, minFaults int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano()), ru.Minflt
}

// timedWindow runs the closed loop for d and takes the process's CPU
// over exactly that interval.
func timedWindow(t *target, next int, d time.Duration) (*window, int) {
	w := &window{}
	u0, s0, f0 := rusage()
	w.start = time.Now()
	w.samples, next = closedLoop(t, next, d)
	w.end = time.Now()
	u1, s1, f1 := rusage()
	w.cpuUser, w.cpuSys, w.minFaults = u1-u0, s1-s0, f1-f0
	return w, next
}

// okLatencies returns the sorted latencies of the 200 responses.
func okLatencies(samples []sample) []time.Duration {
	var out []time.Duration
	for _, s := range samples {
		if s.code == http.StatusOK {
			out = append(out, s.dur)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile reads the q-quantile of sorted durations (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// appliesIn keeps the applies that were due inside [start, end) and
// returns their latencies from due time, sorted, with the failure count.
func appliesIn(applies []applySample, start, end time.Time) (lat []time.Duration, failed int, lagMax time.Duration) {
	for _, a := range applies {
		if a.due.Before(start) || !a.due.Before(end) {
			continue
		}
		if a.err != nil {
			failed++
			continue
		}
		lat = append(lat, a.end.Sub(a.due))
		if lag := a.start.Sub(a.due); lag > lagMax {
			lagMax = lag
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat, failed, lagMax
}
