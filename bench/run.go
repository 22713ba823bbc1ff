package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	banks "github.com/banksdb/banks"
	"github.com/banksdb/banks/internal/datagen"
	"github.com/banksdb/banks/internal/serve"
)

type runConfig struct {
	Seed   int64
	Window time.Duration // the timed window
	// MinSamples is the fewest 200 responses a window may end with;
	// below it the run is not a measurement.
	MinSamples int
	Warmup     time.Duration
	SetupFor   time.Duration // set-up is repeated for at least this long
	Trace      bool
	Out        string // directory for span files and scratch stores
	Scale      datagen.DBLPConfig
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// memAvailable reads MemAvailable from /proc/meminfo; 0 when unknown.
func memAvailable() int64 {
	f, err := os.Open("/proc/meminfo")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "MemAvailable:" {
			kb, _ := strconv.ParseInt(fields[1], 10, 64)
			return kb << 10
		}
	}
	return 0
}

// runWorkload runs one workload in this process: the end-to-end run, or
// with cfg.Trace the traced run. It prints one `workload metric unit
// value` line per metric and returns the result whose JSON form is the
// run's last line.
func runWorkload(w workload, cfg runConfig) (*result, error) {
	if runtime.NumCPU() < minCPUs {
		return nil, fmt.Errorf("needs at least %d CPUs, has %d", minCPUs, runtime.NumCPU())
	}
	if avail := memAvailable(); avail > 0 && avail < minMemAvail && cfg.Scale == datagen.PaperScaleDBLP() {
		return nil, fmt.Errorf("needs %d MiB of available memory, the machine has %d MiB", minMemAvail>>20, avail>>20)
	}
	// A deployment setting, not a tunable: without it the churn workload
	// holds 8-9 GB and spends two thirds of its time in the kernel
	// (README, "memory limit").
	debug.SetMemoryLimit(memoryLimit)
	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.Out, "run-"+w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	r := &run{w: w, cfg: cfg, dir: dir, ctx: context.Background(),
		res: &result{Correct: true, Metrics: map[string]metric{}}}
	defer r.close()
	if err := r.prepare(); err != nil {
		return nil, err
	}
	if cfg.Trace {
		err = r.traced()
	} else {
		err = r.endToEnd()
	}
	if err != nil {
		return nil, err
	}
	return r.res, nil
}

// run is one workload being measured.
type run struct {
	w       workload
	cfg     runConfig
	dir     string
	ctx     context.Context
	s       *sut
	corpus  *corpus
	qs      []query
	target  *target
	ch      *churn // churn-names only
	next    int    // position of the client's walk through the list
	datagen time.Duration
	lapped  time.Time
	res     *result
}

func (r *run) close() {
	if r.ch != nil {
		r.ch.stop()
	}
	if r.s != nil {
		r.s.close()
	}
}

// lap logs how long the phase since the previous lap took, on standard
// error: where a run's wall time goes beyond its timed window.
func (r *run) lap(phase string) {
	now := time.Now()
	if !r.lapped.IsZero() {
		fmt.Fprintf(os.Stderr, "bench: %s %s took %.2fs\n", r.w.Name, phase, now.Sub(r.lapped).Seconds())
	}
	r.lapped = now
}

func (r *run) put(name, unit string, v float64) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	fmt.Printf("%s %s %s %.6g\n", r.w.Name, name, unit, v)
}

// prepare builds the dataset, sets the system up, generates the lists
// from the seed, starts the write side if the workload has one, and
// warms up.
func (r *run) prepare() error {
	r.lap("")
	db, took, err := buildDB(r.cfg.Scale)
	if err != nil {
		return err
	}
	r.datagen = took
	if r.s, err = setUp(r.w, db, r.dir, r.cfg.SetupFor); err != nil {
		return err
	}
	if r.corpus, err = readCorpus(db); err != nil {
		return err
	}
	r.qs = genQueries(r.corpus, r.s.sys.Lookup, r.w.Mix, r.w.List, r.cfg.Seed)
	r.target = newTarget(r.s.handler, r.qs)
	if r.w.Churn {
		// Twice what the writer can use, so the script never runs out.
		n := 2 * int((r.cfg.Warmup+r.cfg.Window)/applyEvery)
		r.ch = startChurn(r.s.sys, genMutations(r.corpus, n, r.cfg.Seed))
	}
	r.lap("set-up")
	_, r.next = closedLoop(r.target, 0, r.cfg.Warmup)
	r.lap("warm-up")
	return nil
}

// stopChurn ends the write side and reports a Compact failure.
func (r *run) stopChurn() error {
	if r.ch == nil {
		return nil
	}
	r.ch.stop()
	return r.ch.err
}

// endToEnd measures the end-to-end metrics with tracing off, then runs
// the correctness pass off the timed path.
func (r *run) endToEnd() error {
	win, _ := timedWindow(r.target, r.next, r.cfg.Window)
	r.lap("window")
	if err := r.stopChurn(); err != nil {
		return err
	}
	lat := okLatencies(win.samples)
	if len(lat) < r.cfg.MinSamples {
		return fmt.Errorf("%s: %d requests of %d succeeded in the window; at least %d are needed",
			r.w.Name, len(lat), len(win.samples), r.cfg.MinSamples)
	}
	r.res.Attempted = len(win.samples)
	r.res.Failed = len(win.samples) - len(lat)
	fmt.Printf("%s samples count %d, latency ms: p50 %.3g p75 %.3g p90 %.3g p95 %.3g p99 %.3g max %.3g\n", r.w.Name, len(lat),
		ms(quantile(lat, 0.50)), ms(quantile(lat, 0.75)), ms(quantile(lat, 0.90)), ms(quantile(lat, 0.95)), ms(quantile(lat, 0.99)), ms(lat[len(lat)-1]))
	r.put("qps", "1/s", float64(len(lat))/win.seconds())
	r.put("latency_p50_ms", "ms", ms(quantile(lat, 0.50)))
	r.put("cpu_ms_per_query", "ms", ms(win.cpuUser+win.cpuSys)/float64(len(lat)))
	r.put("ok_ratio", "ratio", float64(len(lat))/float64(len(win.samples)))
	r.put("setup_s", "s", r.s.setup.Seconds())

	if r.ch != nil {
		applies, failed, _ := appliesIn(r.ch.applies, win.start, win.end)
		r.res.Attempted += len(applies) + failed
		r.res.Failed += failed
		fmt.Printf("%s applies count %d\n", r.w.Name, len(applies))
	}

	v, err := r.verify()
	if err != nil {
		return err
	}
	r.lap("correctness pass")
	r.put("recall_at_10", "ratio", v.recall())
	for _, msg := range v.violations {
		fmt.Println("VIOLATION", msg)
	}
	r.res.Correct = len(v.violations) == 0
	return nil
}

// verify is the correctness pass. On the timed path only status codes
// were read; here the answers themselves are checked, on a sample of
// the list's distinct queries, against a reference engine freshly built
// from the database as it now is.
func (r *run) verify() (*verdict, error) {
	v := newVerdict()
	qs := sampleDistinct(r.qs, r.w.Verify, r.cfg.Seed)
	switch {
	case r.w.Cluster:
		// The single engine the stores were split from is the reference.
		if err := v.checkQueries(r.ctx, r.w.Name, r.s.cluster, r.s.sys, qs, false); err != nil {
			return nil, err
		}
	case r.w.Churn:
		if err := r.s.sys.Compact(); err != nil {
			return nil, fmt.Errorf("final Compact: %w", err)
		}
		fallthrough
	default:
		ref, err := banks.NewSystem(r.s.db, nil)
		if err != nil {
			return nil, err
		}
		defer ref.Close()
		if err := v.checkQueries(r.ctx, r.w.Name, r.s.sys, ref, qs, true); err != nil {
			return nil, err
		}
	}
	if r.w.Churn {
		if err := r.s.sys.Close(); err != nil {
			return nil, err
		}
		if err := v.checkDurable(r.ctx, r.s.db, r.s.opts, r.ch.acked); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// heapSampler tracks the peak of the heap in use while it runs.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64() + s[1].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) done() uint64 {
	close(h.stop)
	h.wg.Wait()
	return h.peak
}

// traced is the separate traced run behind the per-layer metrics: half a
// window of traffic with a span recorded around every second request;
// then the ladder on a fixed number of the list's queries and the
// per-layer measurements of fixed size.
func (r *run) traced() error {
	tr := newTracer(r.w.Name)
	l := &layers{cfg: r.cfg, tr: tr, put: r.put, ctx: r.ctx, dir: r.dir, corpus: r.corpus}

	cache0 := r.s.sys.CacheStats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	heap := startHeapSampler()
	// Every second request is recorded as a span; the other half of the
	// same window is the untraced side of the overhead ratio.
	traced := func(s sample) bool { return s.query%2 == 1 }
	r.target.span = func(s sample) {
		if traced(s) {
			tr.add(tr.request(), 0, "web.ServeHTTP", s.start, s.dur)
		}
	}
	win, _ := timedWindow(r.target, r.next, r.cfg.Window/2)
	r.target.span = nil
	// Before the replica and the fixtures are built: the workload's own peak.
	rss := serve.PeakRSSBytes()
	heapPeak := heap.done()
	runtime.ReadMemStats(&m1)
	cache1 := r.s.sys.CacheStats()
	if err := r.stopChurn(); err != nil {
		return err
	}

	samples := win.samples
	lat := okLatencies(samples)
	if len(lat) == 0 {
		return fmt.Errorf("%s: no request succeeded in the traced window", r.w.Name)
	}
	r.res.Attempted = len(samples)
	r.res.Failed = len(samples) - len(lat)
	var spanned, plain []sample
	for _, s := range samples {
		if traced(s) {
			spanned = append(spanned, s)
		} else {
			plain = append(plain, s)
		}
	}
	r.put("trace.overhead_ratio", "ratio", ratio(
		float64(quantile(okLatencies(spanned), 0.5)), float64(quantile(okLatencies(plain), 0.5))))
	for _, class := range classNames {
		var of []sample
		for _, s := range samples {
			if r.qs[s.query].Class == class {
				of = append(of, s)
			}
		}
		// 0: the class is not in this workload's mix.
		r.put("class."+class+".p50_ms", "ms", ms(quantile(okLatencies(of), 0.5)))
	}
	r.put("proc.cpu_user_s", "s", win.cpuUser.Seconds())
	r.put("proc.cpu_sys_s", "s", win.cpuSys.Seconds())
	r.put("proc.minor_faults", "count", float64(win.minFaults))
	r.put("proc.gc_cycles", "count", float64(m1.NumGC-m0.NumGC))
	r.put("proc.gc_pause_total_ms", "ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	r.put("proc.heap_inuse_peak_mb", "MB", float64(heapPeak)/(1<<20))
	r.put("proc.peak_rss_mb", "MB", float64(rss)/(1<<20))
	r.put("proc.latency_p95_ms", "ms", ms(quantile(lat, 0.95)))
	r.put("datagen.build_s", "s", r.datagen.Seconds())

	// The match cache and the write side over the window. They are 0
	// where the workload has no writer, and on scatter-names, whose
	// partitions resolve terms without a match cache.
	lookups := float64(cache1.Hits - cache0.Hits + cache1.Misses - cache0.Misses)
	r.put("index.cache_hit_ratio", "ratio", ratio(float64(cache1.Hits-cache0.Hits), lookups))
	r.put("index.warm_publishes", "count", float64(cache1.WarmPublishes-cache0.WarmPublishes))
	var al []time.Duration
	var lag, stall time.Duration
	if r.ch != nil {
		var failed int
		al, failed, lag = appliesIn(r.ch.applies, win.start, win.end)
		r.res.Attempted += len(al) + failed
		r.res.Failed += failed
		for _, a := range r.ch.applies {
			for _, c := range r.ch.compact {
				if a.start.Before(c.end) && c.start.Before(a.end) && a.end.Sub(a.start) > stall {
					stall = a.end.Sub(a.start)
				}
			}
		}
	}
	r.put("index.cache_invalidated_per_apply", "count", ratio(float64(cache1.Invalidated-cache0.Invalidated), float64(len(al))))
	r.put("proc.apply_p50_ms", "ms", ms(quantile(al, 0.50)))
	r.put("proc.apply_p95_ms", "ms", ms(quantile(al, 0.95)))
	r.put("gen.apply_lag_max_ms", "ms", ms(lag))
	r.put("banks.compact_apply_stall_max_ms", "ms", ms(stall))

	// The ladder and the layer measurements run on a quiet, compacted
	// system: what the overlay and a cold arena cost is measured on its
	// own below, not mixed into every rung.
	if r.w.Churn {
		if err := r.s.sys.Compact(); err != nil {
			return fmt.Errorf("Compact before the ladder: %w", err)
		}
	}
	rep, err := buildReplica(r.s.db.Internal())
	if err != nil {
		return err
	}
	parts, split, open := r.s.parts, r.s.split, r.s.setup
	if !r.w.Cluster {
		if parts, split, err = makePartitions(r.s.sys, r.dir); err != nil {
			return err
		}
		var c *banks.Cluster
		if c, open, err = openCluster(r.s.db, parts, r.cfg.SetupFor); err != nil {
			return err
		}
		c.Close()
	}
	r.put("cluster.split_ms", "ms", ms(split))
	r.put("cluster.open_ms", "ms", ms(open))
	if err := l.ladder(r.s, rep, parts, sampleDistinct(r.qs, r.w.Ladder, r.cfg.Seed)); err != nil {
		return err
	}
	if err := l.micro(rep); err != nil {
		return err
	}
	return tr.write(filepath.Join(r.cfg.Out, "trace."+r.w.Name+".json"))
}
