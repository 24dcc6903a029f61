package main

import (
	"encoding/json"
	"errors"
	"io"
	"maps"
	"os"
	"slices"
	"testing"
	"time"
)

// testDir holds the exported models and cached reference outputs shared
// by the tests of one `go test` run.
var testDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	testDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runShort runs a workload at minimal length.
func runShort(t *testing.T, workload string, seed uint64, traced, corrupt bool) result {
	t.Helper()
	res, err := run(config{workload: workload, seed: seed, dur: 500 * time.Millisecond,
		traced: traced, corrupt: corrupt, dir: testDir}, io.Discard)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, traced, err)
	}
	return res
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	slices.Sort(out)
	return out
}

// TestEveryWorkloadMinimal runs each workload untraced and traced at
// minimal length: every output must be correct and every declared
// metric printed.
func TestEveryWorkloadMinimal(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.name != "serve-wrn-int8" {
				t.Skip("short mode: the reference outputs of the big models take seconds per input")
			}
			for _, traced := range []bool{false, true} {
				res := runShort(t, w.name, 1, traced, false)
				if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
					t.Fatalf("trace %v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				got := slices.Sorted(maps.Keys(res.Metrics))
				if want := names(metricsFor(traced)); !slices.Equal(got, want) {
					t.Fatalf("trace %v: metrics %v, want %v", traced, got, want)
				}
				for _, m := range endToEnd {
					if v, ok := res.Metrics[m.name]; !traced && ok && v.Value <= 0 {
						t.Errorf("%s = %v; end-to-end metrics must never read 0", m.name, v.Value)
					}
				}
			}
		})
	}
}

// TestCorruptedOutputFailsRun: one corrupted output must fail the run.
func TestCorruptedOutputFailsRun(t *testing.T) {
	res := runShort(t, "serve-wrn-int8", 2, false, true)
	if res.Correct || res.Failed != 1 {
		t.Fatalf("corrupted run: correct=%v failed=%d, want correct=false failed=1", res.Correct, res.Failed)
	}
}

// TestSameMetricsAcrossSeeds: two seeds give the same metric names and
// units, and different inputs.
func TestSameMetricsAcrossSeeds(t *testing.T) {
	a := runShort(t, "serve-wrn-int8", 3, false, false)
	b := runShort(t, "serve-wrn-int8", 4, false, false)
	if !slices.Equal(slices.Sorted(maps.Keys(a.Metrics)), slices.Sorted(maps.Keys(b.Metrics))) {
		t.Fatalf("metric names differ between seeds: %v vs %v", a.Metrics, b.Metrics)
	}
	for n, m := range a.Metrics {
		if b.Metrics[n].Unit != m.Unit {
			t.Errorf("%s: unit %q vs %q", n, m.Unit, b.Metrics[n].Unit)
		}
	}
}

// TestSchemaMatchesBenchmarkJSON keeps BENCHMARK.json and the metric
// lists the runner prints in step.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("workloads %v, runner has %v", got, want)
	}
	check := func(kind string, declared []def, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the runner prints %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range declared {
			if d.Name != defs[i].name || d.Unit != defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the runner %s [%s]", kind, i, d.Name, d.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestMatches(t *testing.T) {
	ref := []float32{0.1, 0.7, 0.2}
	for _, tc := range []struct {
		name string
		out  []float32
		int8 bool
		want bool
	}{
		{"fp32 exact", []float32{0.1, 0.7, 0.2}, false, true},
		{"fp32 within tolerance", []float32{0.100001, 0.7, 0.2}, false, true},
		{"fp32 off by 1e-3", []float32{0.101, 0.7, 0.2}, false, false},
		{"fp32 short", []float32{0.1, 0.7}, false, false},
		{"int8 same top-1", []float32{0.15, 0.6, 0.25}, true, true},
		{"int8 top-1 differs", []float32{0.1, 0.2, 0.7}, true, false},
		{"int8 too far", []float32{-0.3, 1.5, 0.2}, true, false},
	} {
		if got := matches(tc.out, ref, tc.int8); got != tc.want {
			t.Errorf("%s: matches = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestVerifyInt8: an int8 output must equal the int8 oracle; one that
// does but misses the fp32 bar succeeds and is counted apart.
func TestVerifyInt8(t *testing.T) {
	b := &bench{w: &workload{int8: true},
		refs:   [][]float32{{0.9, 0.1}},
		oracle: [][]float32{{0.2, 0.8}}}
	if err := b.verify(0, []float32{0.2, 0.8}, nil); !errors.Is(err, errDisagree) {
		t.Errorf("oracle output off the fp32 top-1: %v, want errDisagree", err)
	}
	if err := b.verify(0, []float32{0.9, 0.1}, nil); !errors.Is(err, errIncorrect) {
		t.Errorf("output off the oracle: %v, want errIncorrect", err)
	}
	b.oracle[0] = []float32{0.8, 0.2}
	if err := b.verify(0, []float32{0.8, 0.2}, nil); err != nil {
		t.Errorf("oracle output within the fp32 bar: %v", err)
	}
	if !b.op(errDisagree) || b.op(errShed) {
		t.Error("op: a disagreement must succeed and a shed request fail")
	}
	if b.failed.Load() != 1 || b.wrong.Load() != 0 || b.disagreed.Load() != 1 {
		t.Errorf("failed=%d wrong=%d disagreed=%d, want 1, 0 and 1", b.failed.Load(), b.wrong.Load(), b.disagreed.Load())
	}
	b.op(errIncorrect)
	if b.wrong.Load() != 1 {
		t.Errorf("wrong=%d after an incorrect output, want 1", b.wrong.Load())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v, want 3", q)
	}
	if q := quantile(xs, 0.9); q != 4.6 {
		t.Errorf("p90 = %v, want 4.6", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty median = %v, want 0", q)
	}
}

// TestSelfTime: a span's self time excludes the union of its children.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.add(span{ID: 1, Name: "run", Start: 0, End: 100})
	tr.add(span{ID: 2, Parent: 1, Name: "step", Start: 10, End: 40})
	tr.add(span{ID: 3, Parent: 1, Name: "step", Start: 30, End: 60}) // overlaps the first
	tot := tr.totals()
	if got, want := tot["run"].SelfMs, ms(50); got != want {
		t.Errorf("run self = %v ms, want %v", got, want)
	}
	if got, want := tot["step"].TotalMs, ms(60); got != want {
		t.Errorf("step total = %v ms, want %v", got, want)
	}
}
