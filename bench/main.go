// Command bench is the repository's benchmark: four named workloads
// through the real front door (System.ServeHandler / Cluster.ServeHandler)
// at paper scale, end-to-end metrics with fixed regression bounds, an
// answer-correctness pass, and a traced run that attributes the time to
// layers. README.md in this directory is the manual.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"github.com/banksdb/banks/internal/datagen"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run; empty runs all four, one fresh process each")
		seed    = flag.Int64("seed", 1, "seed of the query and mutation lists")
		seconds = flag.Int("seconds", 20, "length of the timed window")
		trace   = flag.Int("trace", 0, "1: the traced run (per-layer metrics); 0: the end-to-end run")
		out     = flag.String("out", defaultOut(), "directory for result.json, span files and scratch stores")
	)
	flag.Parse()
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		os.Exit(2)
	}
	cfg := runConfig{
		Seed:   *seed,
		Window: time.Duration(*seconds) * time.Second,
		// churn-names answers about 180 requests in a 20 s window; a host
		// that takes CPU from the VM for a minute has cut that to 100.
		MinSamples: 30,
		Warmup:     warmup,
		SetupFor:   setupFor,
		Trace:      *trace != 0,
		Out:        *out,
		Scale:      datagen.PaperScaleDBLP(),
	}
	var err error
	if *name == "" {
		err = runAll(cfg, *seconds)
	} else {
		err = runOne(*name, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// defaultOut is bench/out from the repository root, out from inside bench/.
func defaultOut() string {
	if _, err := os.Stat("bench"); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

var errIncorrect = errors.New("the correctness pass found violations (printed above)")

// runOne runs one workload in this process and prints its result line.
func runOne(name string, cfg runConfig) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, err := runWorkload(w, cfg)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// runAll runs every workload in a fresh child process each, so that a
// workload's peak RSS is its own and heap state never leaks between
// workloads, and gathers the children's result lines into result.json.
func runAll(cfg runConfig, seconds int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	trace := 0
	if cfg.Trace {
		trace = 1
	}
	type summary struct {
		Env       map[string]interface{} `json:"env"`
		Workloads map[string]*result     `json:"workloads"`
		Claim     interface{}            `json:"claim"` // this benchmark claims no gain
	}
	sum := summary{
		Env: map[string]interface{}{
			"seed": cfg.Seed, "seconds": seconds, "trace": trace, "cpus": runtime.NumCPU(), "go": runtime.Version(),
			"dataset": "datagen.PaperScaleDBLP", "clients": 1, "max_in_flight": maxInFlight, "max_queue": maxQueue,
			"default_timeout_s": defaultTimeout.Seconds(), "memory_limit_bytes": int64(memoryLimit), "origin_cap": originCap,
			"apply_every_ms": applyEvery.Milliseconds(), "compact_every_s": compactEvery.Seconds(), "warmup_s": warmup.Seconds(),
			"partitions": partitions,
		},
		Workloads: map[string]*result{},
	}
	for _, w := range workloads {
		cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(cfg.Seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", cfg.Out)
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return err
		}
		var last string
		sc := bufio.NewScanner(pipe)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for sc.Scan() {
			if last != "" {
				fmt.Println(last)
			}
			last = sc.Text()
		}
		if err := cmd.Wait(); err != nil {
			fmt.Println(last)
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		res := &result{}
		if err := json.Unmarshal([]byte(last), res); err != nil {
			return fmt.Errorf("%s: last line is not a result: %w", w.Name, err)
		}
		sum.Workloads[w.Name] = res
	}
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.Out, "result.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}
