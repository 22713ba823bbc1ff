package serve

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"
)

// TestDoStatus is the overload sequence's one status suite: every way a
// request can leave the door, driven through Do with a fake run. Each case
// also audits the books — an admitted request records exactly one
// observation, when its run exits; a rejected one records none and never
// runs; and the admission slot is held until the run has actually exited,
// even when Do gave up on it long before.
func TestDoStatus(t *testing.T) {
	const hint = 3 * time.Second
	errFault := errors.New("partition p2: store fault")
	type run int
	const (
		runOK      run = iota // returns at once
		runFail               // returns errFault at once
		runHonours            // blocks until its context ends, returns ctx.Err()
		runIgnores            // blocks past its context until the test lets go
	)
	cases := []struct {
		name      string
		gate      *GateConfig   // nil: no admission control
		occupied  bool          // hold the gate's only slot for the whole case
		timeout   time.Duration // client-chosen
		deflt     time.Duration // Door.DefaultTimeout
		run       run
		cancel    bool // the client goes away while the case is in flight
		wantCode  int
		wantRetry time.Duration
		wantErr   error
		admitted  bool
	}{
		{name: "ok", run: runOK, wantCode: http.StatusOK, admitted: true},
		{name: "ok through a gate", gate: &GateConfig{Workers: 1}, run: runOK, wantCode: http.StatusOK, admitted: true},
		{name: "shed",
			gate: &GateConfig{Workers: 1, Queue: 0, RetryAfter: hint}, occupied: true, run: runOK,
			wantCode: http.StatusServiceUnavailable, wantRetry: hint, wantErr: ErrShed},
		{name: "queue timeout",
			gate: &GateConfig{Workers: 1, Queue: 1, QueueTimeout: 5 * time.Millisecond, RetryAfter: hint}, occupied: true, run: runOK,
			wantCode: http.StatusServiceUnavailable, wantRetry: hint, wantErr: ErrQueueTimeout},
		{name: "server deadline is overload",
			gate: &GateConfig{Workers: 1, RetryAfter: hint}, deflt: 5 * time.Millisecond, run: runHonours,
			wantCode: http.StatusServiceUnavailable, wantRetry: hint, admitted: true},
		{name: "server deadline without a gate hints one second",
			deflt: 5 * time.Millisecond, run: runHonours,
			wantCode: http.StatusServiceUnavailable, wantRetry: time.Second, admitted: true},
		{name: "client deadline is the client's doing",
			gate: &GateConfig{Workers: 1}, timeout: 5 * time.Millisecond, deflt: time.Hour, run: runHonours,
			wantCode: http.StatusRequestTimeout, admitted: true},
		{name: "deadline enforced at the response layer, slot held until the run exits",
			gate: &GateConfig{Workers: 1}, timeout: 5 * time.Millisecond, run: runIgnores,
			wantCode: http.StatusRequestTimeout, admitted: true},
		{name: "cancel while running writes nothing",
			gate: &GateConfig{Workers: 1}, run: runHonours, cancel: true,
			wantCode: 0, admitted: true},
		{name: "cancel while queued writes nothing",
			gate: &GateConfig{Workers: 1, Queue: 1}, occupied: true, run: runOK, cancel: true,
			wantCode: 0},
		{name: "run error is the server's fault",
			gate: &GateConfig{Workers: 1}, run: runFail,
			wantCode: http.StatusInternalServerError, wantErr: errFault, admitted: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMetrics(0, 0)
			d := &Door{Metrics: m, DefaultTimeout: tc.deflt}
			if tc.gate != nil {
				d.Gate = NewGate(*tc.gate)
			}
			if tc.occupied {
				release, err := d.Gate.Acquire(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				defer release()
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancel {
				// Cancel once the request is where the case says it is —
				// queued behind the occupied slot, or admitted — not on a
				// timer that can fire before it gets there.
				go func() {
					deadline := time.Now().Add(5 * time.Second)
					for time.Now().Before(deadline) {
						if st := d.Gate.Stats(); (tc.occupied && st.Queued > 0) || (!tc.occupied && st.InFlight > 0) {
							break
						}
						time.Sleep(time.Millisecond)
					}
					cancel()
				}()
			}
			letGo := make(chan struct{})
			ran := make(chan struct{}, 1)
			got, st := Do(ctx, d, Request{Query: "q", Class: "1term", Timeout: tc.timeout},
				func(ctx context.Context) (string, Outcome, error) {
					ran <- struct{}{}
					switch tc.run {
					case runFail:
						return "", Outcome{}, errFault
					case runHonours:
						<-ctx.Done()
						return "", Outcome{}, ctx.Err()
					case runIgnores:
						<-letGo
						return "", Outcome{}, ctx.Err()
					}
					return "answers", Outcome{}, nil
				})

			if st.Code != tc.wantCode || st.RetryAfter != tc.wantRetry {
				t.Errorf("status = %d retry %v, want %d retry %v (err %v)",
					st.Code, st.RetryAfter, tc.wantCode, tc.wantRetry, st.Err)
			}
			if tc.wantErr != nil && !errors.Is(st.Err, tc.wantErr) {
				t.Errorf("err = %v, want %v", st.Err, tc.wantErr)
			}
			if (st.Err == nil) != (st.Code == http.StatusOK || st.Code == 0) {
				t.Errorf("status %d carries err %v", st.Code, st.Err)
			}
			if (got == "answers") != (st.Code == http.StatusOK) {
				t.Errorf("status %d handed back %q", st.Code, got)
			}

			total := m.Registry().Counter("queries_total")
			inFlight := func() int {
				if d.Gate == nil {
					return 0
				}
				return d.Gate.Stats().InFlight
			}
			var held, wantObserved int64 // slots the case itself holds; observations due
			if tc.occupied {
				held = 1
			}
			if tc.admitted {
				wantObserved = 1
			}
			if tc.run == runIgnores {
				// Do has answered, the run has not exited: its slot is
				// still taken and nothing is observed yet.
				if in := inFlight(); in != 1 {
					t.Errorf("abandoned run holds %d slots, want 1", in)
				}
				if n := total.Value(); n != 0 {
					t.Errorf("observed %d queries before the run exited", n)
				}
				close(letGo)
			}
			deadline := time.Now().Add(5 * time.Second)
			for total.Value() != wantObserved || int64(inFlight()) != held {
				if time.Now().After(deadline) {
					t.Fatalf("observed %d queries (want %d) with %d in flight (want %d)",
						total.Value(), wantObserved, inFlight(), held)
				}
				time.Sleep(time.Millisecond)
			}
			if (len(ran) == 1) != tc.admitted {
				t.Errorf("run called = %v, admitted = %v", len(ran) == 1, tc.admitted)
			}
			if d.Gate != nil {
				if a := d.Gate.Stats().Admitted; a != held+wantObserved {
					t.Errorf("gate admitted %d, want %d", a, held+wantObserved)
				}
				if c := d.Gate.Stats().Canceled; tc.cancel && tc.occupied && c != 1 {
					t.Errorf("gate counted %d cancellations while queued, want 1", c)
				}
			}
		})
	}
}

// TestDoHeavyGate: the class picks the gate. With a heavy gate installed,
// every class but the plain single-term one is admitted there; without
// one, everything shares the main gate.
func TestDoHeavyGate(t *testing.T) {
	run := func(context.Context) (struct{}, Outcome, error) { return struct{}{}, Outcome{}, nil }
	d := &Door{Gate: NewGate(GateConfig{Workers: 8}), HeavyGate: NewGate(GateConfig{Workers: 8})}
	for _, class := range []string{ClassOf(1, false, false), ClassOf(2, false, false), ClassOf(1, true, false), ClassOf(4, false, false)} {
		if _, st := Do(context.Background(), d, Request{Class: class}, run); st.Code != http.StatusOK {
			t.Fatalf("%s: status %d", class, st.Code)
		}
	}
	if main, heavy := d.Gate.Stats().Admitted, d.HeavyGate.Stats().Admitted; main != 1 || heavy != 3 {
		t.Errorf("main gate admitted %d, heavy gate %d; want 1 and 3", main, heavy)
	}
	d.HeavyGate = nil
	if _, st := Do(context.Background(), d, Request{Class: ClassOf(2, false, false)}, run); st.Code != http.StatusOK {
		t.Fatalf("status %d", st.Code)
	}
	if main := d.Gate.Stats().Admitted; main != 2 {
		t.Errorf("without a heavy gate the main gate admitted %d, want 2", main)
	}
}
