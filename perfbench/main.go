// Command perfbench is Orpheus's benchmark. It drives one workload
// through the layers' public entry points (onnx, passes, backend,
// runtime, serve, wire), checks every output against the reference
// interpreter, and prints every metric by name and unit, ending with
// one JSON line:
//
//	perfbench --workload resnet18-b1 --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics untraced; --trace 1 records
// spans around each layer call and prints the per-layer metrics. Each run
// also writes its result, with the host fingerprint and the plan
// identity, to <dir>/results, and a traced run writes its spans to
// <dir>/traces.
//
//	perfbench compare A.json ... -- B.json ...
//
// compares the medians of two sets of result files, and refuses when
// their host fingerprints differ.
//
// perfbench/run.sh builds the command from source and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	goruntime "runtime"
	"time"
)

// maxProcs caps the OS threads running Go code: the workloads are sized
// for a 2-core edge host.
const maxProcs = 2

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.IntVar(&seconds, "seconds", 15, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.StringVar(&cfg.dir, "dir", ".bench_build", "directory for models, reference outputs, results and traces")
	flag.Parse()
	if flag.Arg(0) == "compare" {
		if err := compare(os.Stdout, flag.Args()[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if trace != 0 && trace != 1 || seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds at least 1")
		os.Exit(2)
	}
	cfg.traced = trace == 1
	cfg.dur = time.Duration(seconds) * time.Second
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed or returned incorrect output\n", res.Failed, res.Attempted)
		os.Exit(1)
	}
}

// savedRun is the record of one run written to <dir>/results.
type savedRun struct {
	Workload string          `json:"workload"`
	Seed     uint64          `json:"seed"`
	Traced   bool            `json:"traced"`
	Seconds  float64         `json:"seconds"`
	Steal    float64         `json:"steal_frac"`
	Host     hostFingerprint `json:"host"`
	Plan     planIdentity    `json:"plan"`
	Phases   []phaseCounts   `json:"phases"`
	Int8Off  int64           `json:"int8_off_fp32_bar"` // correct int8 outputs off the fp32 reference's bar
	Result   result          `json:"result"`
}

// run performs one benchmark run, printing the report lines to out, and
// returns the result.
func run(cfg config, out io.Writer) (result, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return result{}, err
	}
	goruntime.GOMAXPROCS(min(maxProcs, goruntime.NumCPU()))
	b := newBench(cfg, w, out)
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%v trace=%v\n", w.name, cfg.seed, cfg.dur.Seconds(), cfg.traced)
	if err := b.prepare(); err != nil {
		return result{}, err
	}
	goruntime.GC()
	steal0, t0 := stealSeconds(), time.Now()
	if err := w.run(b); err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	steal := (stealSeconds() - steal0) / (time.Since(t0).Seconds() * float64(goruntime.NumCPU()))
	fmt.Fprintf(out, "host steal_frac=%.4f (share of CPU time the hypervisor gave other guests during set-up and measurement)\n", steal)
	res, err := b.finish()
	if err != nil {
		return result{}, err
	}
	fp := fingerprint()
	b.report(res, fp)
	mode := 0
	if cfg.traced {
		mode = 1
		if err := writeFile(cfg.dir, "traces", fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed), b.tr.write); err != nil {
			return result{}, err
		}
		printTotals(out, b.tr.totals())
	}
	rec := savedRun{Workload: w.name, Seed: cfg.seed, Traced: cfg.traced, Seconds: cfg.dur.Seconds(),
		Steal: steal, Host: fp, Plan: b.plan, Phases: b.phases, Int8Off: b.disagreed.Load(), Result: res}
	err = writeFile(cfg.dir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", w.name, cfg.seed, mode), func(path string) error {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, data, 0o644)
	})
	return res, err
}

// writeFile creates dir/sub and writes name there with write.
func writeFile(dir, sub, name string, write func(path string) error) error {
	if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
		return err
	}
	return write(filepath.Join(dir, sub, name))
}
