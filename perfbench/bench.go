package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"orpheus/internal/backend"
	"orpheus/internal/gemm"
	"orpheus/internal/graph"
	"orpheus/internal/onnx"
	"orpheus/internal/passes"
	"orpheus/internal/runtime"
	"orpheus/internal/tensor"
	"orpheus/internal/zoo"
)

// tensorT is the tensor type the layers exchange.
type tensorT = tensor.Tensor

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	dur      time.Duration // measured time of the run
	traced   bool
	corrupt  bool   // self-test (tests only): corrupt the first checked output
	dir      string // where models, reference outputs, results and traces go
}

// metric is one printed metric value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phaseCounts accounts for the operations of one phase of a run.
type phaseCounts struct {
	Name      string `json:"name"`
	Sent      int64  `json:"sent"`
	Succeeded int64  `json:"succeeded"`
	Shed      int64  `json:"shed"`
	Failed    int64  `json:"failed"`
}

func (p *phaseCounts) add(q phaseCounts) {
	p.Sent += q.Sent
	p.Succeeded += q.Succeeded
	p.Shed += q.Shed
	p.Failed += q.Failed
}

// planIdentity pins which plan a run measured: the layout arbitration's
// decision per set-up and a digest of the kept plan's kernel summary.
type planIdentity struct {
	Layout    string   `json:"layout"`
	Decisions []string `json:"layout_decisions"`
	Digest    string   `json:"kernel_digest"`
	Steps     int      `json:"steps"`
}

// bench is the state of one run.
type bench struct {
	cfg    config
	w      *workload
	out    io.Writer
	tr     *tracer // nil in untraced runs
	ctx    context.Context
	path   string // the exported ONNX model
	inputs []*tensor.Tensor
	refs   [][]float32 // the reference interpreter's fp32 outputs
	oracle [][]float32 // int8 workloads: the int8 plan's outputs under the pure-Go kernel
	plan   planIdentity
	phases []phaseCounts

	corruptNext atomic.Bool
	attempted   atomic.Int64
	failed      atomic.Int64
	wrong       atomic.Int64 // failures that make the run incorrect
	disagreed   atomic.Int64 // correct int8 outputs off the fp32 reference's top-1 or error bar

	mu       sync.Mutex // guards samples, values and firstErr
	samples  map[string][]float64
	values   map[string]float64
	firstErr error
}

// setupRepeats is how many fresh set-ups a run makes; setup_s and the
// per-layer set-up metrics are their medians.
const setupRepeats = 7

// fp32Tol is the tolerance of the repo's differential batteries (NHWC
// vs NCHW, SIMD vs pure Go): |x−y| ≤ tol + tol·|y|, as tensor.AllClose.
const fp32Tol = 1e-5

// int8MaxRelErr is TestInt8MatchesFP32OnZoo's error budget; int8 outputs
// must also agree with the fp32 reference on top-1.
const int8MaxRelErr = 0.5

func newBench(cfg config, w *workload, out io.Writer) *bench {
	b := &bench{cfg: cfg, w: w, out: out, ctx: context.Background(),
		samples: make(map[string][]float64), values: make(map[string]float64)}
	if cfg.traced {
		b.tr = newTracer()
		for _, m := range perLayer {
			b.values[m.name] = 0
		}
	}
	b.corruptNext.Store(cfg.corrupt)
	return b
}

// prepare exports the workload's model to ONNX, generates the input pool
// from the seed and computes (or loads) the reference outputs, all
// outside any timed region.
func (b *bench) prepare() error {
	path, err := exportModel(b.cfg.dir, b.w.model)
	if err != nil {
		return err
	}
	b.path = path
	g, err := onnx.ImportFile(path)
	if err != nil {
		return fmt.Errorf("importing %s: %w", path, err)
	}
	b.inputs = make([]*tensor.Tensor, b.w.pool)
	for i := range b.inputs {
		r := tensor.NewRNG(tensor.SeedFromString(fmt.Sprintf("%s/seed=%d/input=%d", b.w.name, b.cfg.seed, i)))
		b.inputs[i] = tensor.Rand(r, -1, 1, g.Inputs[0].Shape...)
	}
	if b.refs, err = b.references(g); err != nil || !b.w.int8 {
		return err
	}
	b.oracle, err = b.int8Oracle(g)
	return err
}

// int8Oracle returns the int8 plan's output for every pool input,
// computed with the portable pure-Go int8 micro-kernel, which the gemm
// differential battery pins bit-exact to the SIMD kernels. Quantization
// makes int8 outputs differ from fp32 by design (the repo pins top-1
// agreement at ≥ 99%, not on every input), so this oracle, not the fp32
// reference, decides whether an int8 output is what the program should
// have computed.
func (b *bench) int8Oracle(g *graph.Graph) ([][]float32, error) {
	active := gemm.Kernel8Name()
	if err := gemm.SetKernel8("go"); err != nil {
		return nil, err
	}
	defer func() { _ = gemm.SetKernel8(active) }() // active was registered a moment ago
	plan, err := orpheusBackend().PrepareWith(g, backend.PrepareOpts{Int8: true})
	if err != nil {
		return nil, fmt.Errorf("compiling the int8 oracle plan: %w", err)
	}
	sess := runtime.NewSession(plan)
	inName, outName := plan.InputDescs()[0].Name, plan.OutputDescs()[0].Name
	out := make([][]float32, len(b.inputs))
	for i, x := range b.inputs {
		outs, err := sess.Run(b.ctx, map[string]*tensor.Tensor{inName: x})
		if err != nil {
			return nil, fmt.Errorf("int8 oracle run: %w", err)
		}
		out[i] = append([]float32(nil), outs[outName].Data()...)
	}
	return out, nil
}

// exportModel writes the named zoo model to dir/models as ONNX.
func exportModel(dir, model string) (string, error) {
	g, err := zoo.Build(model, 1)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(filepath.Join(dir, "models"), 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "models", model+".onnx")
	tmp := path + ".tmp"
	if err := onnx.ExportFile(g, tmp); err != nil {
		return "", fmt.Errorf("exporting %s: %w", model, err)
	}
	return path, os.Rename(tmp, path)
}

// references returns the reference interpreter's output for every pool
// input. They are cached under dir/refcache, keyed by the model file and
// the inputs, because the reference kernels are slow (seconds per input).
func (b *bench) references(g *graph.Graph) ([][]float32, error) {
	model, err := os.ReadFile(b.path)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	h.Write(model)
	for _, x := range b.inputs {
		_ = binary.Write(h, binary.LittleEndian, x.Data()) // hash writes cannot fail
	}
	cache := filepath.Join(b.cfg.dir, "refcache", fmt.Sprintf("%s-%s.bin", b.w.model, hex.EncodeToString(h.Sum(nil)[:12])))
	if refs, err := readRefs(cache, len(b.inputs)); err == nil {
		return refs, nil
	}
	rg := g.Clone()
	if err := rg.Finalize(); err != nil {
		return nil, err
	}
	plan, err := runtime.Compile(rg, runtime.Options{Policy: runtime.ReferencePolicy{}})
	if err != nil {
		return nil, fmt.Errorf("compiling the reference plan: %w", err)
	}
	inName, outName := plan.InputDescs()[0].Name, plan.OutputDescs()[0].Name
	refs := make([][]float32, len(b.inputs))
	errs := make([]error, maxProcs)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := runtime.NewSession(plan)
			for i := w; i < len(b.inputs); i += len(errs) {
				outs, err := sess.Run(b.ctx, map[string]*tensor.Tensor{inName: b.inputs[i]})
				if err != nil {
					errs[w] = fmt.Errorf("reference run: %w", err)
					return
				}
				refs[i] = append([]float32(nil), outs[outName].Data()...)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return refs, writeRefs(cache, refs)
}

// writeRefs caches reference outputs at path.
func writeRefs(path string, refs [][]float32) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(refs); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// readRefs loads what writeRefs cached, expecting n outputs.
func readRefs(path string, n int) ([][]float32, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var refs [][]float32
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&refs); err != nil || len(refs) != n {
		return nil, fmt.Errorf("%s: malformed reference cache", path)
	}
	return refs, nil
}

var (
	// errIncorrect marks an output that differs from what the program
	// should have computed; it makes the run incorrect.
	errIncorrect = errors.New("output does not match the reference")
	// errDisagree marks an int8 output that is what the int8 tier
	// computes but misses the fp32 reference's bar: top-1 agreement and
	// relative error ≤ int8MaxRelErr. The operation succeeds, and is
	// counted apart: whether a pool input lands on one of the few inputs
	// int8 quantization flips depends on the seed, not on the program.
	errDisagree = errors.New("int8 output misses the fp32 reference's top-1 or error bar")
	// errShed marks a request the server refused under load (429).
	errShed = errors.New("request shed")
)

// verify returns err, or why out is not a correct output for pool input
// i: fp32 outputs must match the reference interpreter within fp32Tol;
// int8 outputs must match the int8 oracle within fp32Tol, and then meet
// the int8 bar against the fp32 reference. In the corruption self-test
// the first output verified is altered first.
func (b *bench) verify(i int, out []float32, err error) error {
	if err != nil {
		return err
	}
	if b.corruptNext.CompareAndSwap(true, false) && len(out) > 0 {
		out[0] += 1
	}
	if !b.w.int8 {
		if !matches(out, b.refs[i], false) {
			return errIncorrect
		}
		return nil
	}
	if !matches(out, b.oracle[i], false) {
		return errIncorrect
	}
	if !matches(out, b.refs[i], true) {
		return errDisagree
	}
	return nil
}

// matches compares an output with its fp32 reference: within fp32Tol for
// fp32 plans; top-1 agreement and relative error ≤ int8MaxRelErr for
// int8 plans.
func matches(out, ref []float32, int8 bool) bool {
	if len(out) != len(ref) {
		return false
	}
	if int8 {
		return argmax(out) == argmax(ref) && relErr(out, ref) <= int8MaxRelErr
	}
	for i := range out {
		x, y := float64(out[i]), float64(ref[i])
		if math.IsNaN(x) || math.Abs(x-y) > fp32Tol+fp32Tol*math.Abs(y) {
			return false
		}
	}
	return true
}

func argmax(v []float32) int {
	best, bi := float32(math.Inf(-1)), 0
	for i, x := range v {
		if x > best {
			best, bi = x, i
		}
	}
	return bi
}

// relErr is ||a−b|| / ||b||.
func relErr(a, b []float32) float64 {
	var num, den float64
	for i := range a {
		d := float64(a[i] - b[i])
		num += d * d
		den += float64(b[i]) * float64(b[i])
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// op counts one attempted operation, failed when err is not nil, and
// reports whether it succeeded. An int8 disagreement with fp32 succeeds
// and is counted apart; every other failure except a shed request also
// makes the run incorrect.
func (b *bench) op(err error) bool {
	b.attempted.Add(1)
	switch {
	case err == nil:
		return true
	case errors.Is(err, errDisagree):
		b.disagreed.Add(1)
		return true
	}
	b.failed.Add(1)
	if !errors.Is(err, errShed) {
		b.wrong.Add(1)
		b.mu.Lock()
		if b.firstErr == nil {
			b.firstErr = err
		}
		b.mu.Unlock()
	}
	return false
}

// sample adds one observation to a metric whose value is the median of
// its observations.
func (b *bench) sample(name string, v float64) {
	b.mu.Lock()
	b.samples[name] = append(b.samples[name], v)
	b.mu.Unlock()
}

// set fixes a metric's value.
func (b *bench) set(name string, v float64) {
	b.mu.Lock()
	b.values[name] = v
	b.mu.Unlock()
}

// timed runs f inside a child span of parent and samples its duration
// as the metric name_ms.
func (b *bench) timed(parent openSpan, name string, f func() error) error {
	return b.timedAs(parent, name, name+"_ms", f)
}

// timedAs is timed for a span whose metric has another name.
func (b *bench) timedAs(parent openSpan, spanName, metricName string, f func() error) error {
	sp := b.tr.child(parent, spanName)
	err := f()
	b.sample(metricName, ms(b.tr.end(sp)))
	return err
}

// peak measures gemm.peak_gflops and returns it.
func (b *bench) peak() float64 {
	p := gemmPeak()
	b.set("gemm.peak_gflops", p)
	return p
}

// runPasses times the optimisation pipeline on a fresh clone of g (the
// backends run the same pipeline inside their compile, out of sight)
// and samples the resulting node and Transpose counts.
func (b *bench) runPasses(parent openSpan, g *graph.Graph, p *passes.Pipeline) error {
	work := g.Clone()
	if err := work.Finalize(); err != nil {
		return err
	}
	if err := b.timed(parent, "passes.run", func() error { _, err := p.Run(work); return err }); err != nil {
		return fmt.Errorf("passes: %w", err)
	}
	transposes := 0
	for _, n := range work.Nodes {
		if n.Op == "Transpose" {
			transposes++
		}
	}
	b.sample("passes.nodes", float64(len(work.Nodes)))
	b.sample("passes.transposes", float64(transposes))
	return nil
}

// setMemory records the plan's memory footprint: weights, derived
// constants (packed panels) and one session's arena.
func (b *bench) setMemory(weights, consts, arena int64) {
	const mb = 1e6
	b.set("mem_mb", float64(weights+consts+arena)/mb)
	b.set("runtime.arena_mb", float64(arena)/mb)
	b.set("runtime.const_mb", float64(consts)/mb)
}

// setPlan records the plan identity from its steps, formatted like
// orpheus.Session.PlanSummary.
func (b *bench) setPlan(steps []runtime.PlannedStep, layout string) {
	lines := make([]string, len(steps))
	for i, st := range steps {
		lines[i] = fmt.Sprintf("%-30s %-12s %s", st.Node.Name, st.Node.Op, st.Kernel)
	}
	b.setPlanSummary(lines, layout)
}

func (b *bench) setPlanSummary(lines []string, layout string) {
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	b.plan.Layout = layout
	b.plan.Digest = hex.EncodeToString(h.Sum(nil)[:8])
	b.plan.Steps = len(lines)
	b.set("runtime.steps", float64(len(lines)))
	if layout == "nhwc" {
		b.set("backend.layout_nhwc", 1)
	} else {
		b.set("backend.layout_nhwc", 0)
	}
}

// setLatency records the end-to-end latency metrics from the successful
// operations' latencies, and the SLO share over all attempted ones.
func (b *bench) setLatency(lat []time.Duration, attempted int, slo time.Duration) {
	l := durationsMs(lat)
	b.set("latency_p50_ms", quantile(l, 0.5))
	b.set("latency_p90_ms", quantile(l, 0.9))
	within := 0
	for _, d := range lat {
		if d <= slo {
			within++
		}
	}
	b.set("slo_ok_frac", ratio(float64(within), float64(attempted)))
	fmt.Fprintf(b.out, "latency samples=%d attempted=%d slo=%v\n", len(lat), attempted, slo)
}

// families groups plan steps by kernel family for the ops.* metrics.
var families = []string{"conv", "depthwise", "pool", "eltwise", "dense", "other"}

func familyOf(op, kernel string) string {
	switch op {
	case "Conv":
		if strings.HasPrefix(kernel, "conv.depthwise") {
			return "depthwise"
		}
		return "conv"
	case "MaxPool", "AveragePool", "GlobalAveragePool":
		return "pool"
	case "Relu", "BatchNorm", "Add", "Mul", "Sub", "Clip", "LeakyRelu", "Sigmoid":
		return "eltwise"
	case "Dense", "Gemm", "MatMul":
		return "dense"
	}
	return "other"
}

// opProfile accumulates per-family step time over profiled inferences.
type opProfile struct {
	ms, flops map[string]float64
	runs      int
	runMs     []float64 // the span around each profiled run
	coverage  []float64 // summed step time over that span
}

func newOpProfile() *opProfile {
	return &opProfile{ms: make(map[string]float64), flops: make(map[string]float64)}
}

// add accounts one profiled run: its steps (op, kernel, duration, FLOPs)
// and the span that wrapped it.
func (p *opProfile) add(run time.Duration, steps int, step func(i int) (op, kernel string, d time.Duration, flops float64)) {
	var sum time.Duration
	for i := range steps {
		op, kernel, d, flops := step(i)
		f := familyOf(op, kernel)
		p.ms[f] += ms(d)
		p.flops[f] += flops
		sum += d
	}
	p.runs++
	p.runMs = append(p.runMs, ms(run))
	p.coverage = append(p.coverage, ratio(float64(sum), float64(run)))
}

// coverageMin and coverageMax bound how much of the wrapping span the
// profiled steps must account for. The executor's own work between steps
// takes under 1% of a run; on the serve workload the span also holds the
// JSON handling of /profile, about 6% of it on a 2-core host.
const coverageMin, coverageMax = 0.85, 1.001

// finish sets the ops.*, runtime.run_ms and trace.coverage_frac metrics;
// peakPerWorker is gemm.peak_gflops and workers the kernel workers the
// workload runs with.
func (p *opProfile) finish(b *bench, peakPerWorker float64, workers int) error {
	if p.runs == 0 {
		return errors.New("traced run profiled no inference")
	}
	for _, f := range families {
		b.set("ops."+f+"_ms", p.ms[f]/float64(p.runs))
	}
	for _, f := range []string{"conv", "depthwise"} {
		b.set("ops."+f+"_gflops", ratio(p.flops[f], p.ms[f]*1e6))
	}
	b.set("ops.conv_peak_frac", ratio(ratio(p.flops["conv"], p.ms["conv"]*1e6), peakPerWorker*float64(workers)))
	b.set("runtime.run_ms", median(p.runMs))
	cov := median(p.coverage)
	b.set("trace.coverage_frac", cov)
	if cov < coverageMin || cov > coverageMax {
		return fmt.Errorf("trace coverage: profiled steps account for %.3f of the run span, outside [%.2f, %.3f]", cov, coverageMin, coverageMax)
	}
	return nil
}

// memDelta measures allocations and GC pause over untraced stretches of
// a traced run. ReadMemStats is process-wide, so the stretch also counts
// the benchmark's own allocations; clientAllocs (per operation) takes
// them back out where they are not negligible.
type memDelta struct {
	before   goruntime.MemStats
	mallocs  uint64
	pauseNs  uint64
	ops      int
	inWindow bool

	clientAllocs float64
}

func (m *memDelta) start() {
	goruntime.ReadMemStats(&m.before)
	m.inWindow = true
}

func (m *memDelta) stop(ops int) {
	if !m.inWindow {
		return
	}
	var after goruntime.MemStats
	goruntime.ReadMemStats(&after)
	m.mallocs += after.Mallocs - m.before.Mallocs
	m.pauseNs += after.PauseTotalNs - m.before.PauseTotalNs
	m.ops += ops
	m.inWindow = false
}

func (m *memDelta) finish(b *bench) {
	b.set("go.allocs_per_op", max(0, ratio(float64(m.mallocs), float64(m.ops))-m.clientAllocs))
	b.set("go.gc_pause_ms", ratio(float64(m.pauseNs)/1e6, float64(m.ops)))
}

// finish turns the run's samples and values into the result for the
// run's mode, failing if a declared metric was not produced.
func (b *bench) finish() (result, error) {
	attempted, failed := b.attempted.Load(), b.failed.Load()
	b.set("ok_frac", ratio(float64(attempted-failed), float64(attempted)))
	b.mu.Lock()
	defer b.mu.Unlock()
	res := result{Correct: b.wrong.Load() == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metric)}
	for _, m := range metricsFor(b.cfg.traced) {
		v, ok := b.values[m.name]
		if s := b.samples[m.name]; len(s) > 0 {
			v, ok = median(s), true
		}
		if !ok {
			return result{}, fmt.Errorf("workload %s produced no %s", b.w.name, m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return res, nil
}

// report prints the human-readable lines that precede the result.
func (b *bench) report(res result, fp hostFingerprint) {
	fmt.Fprintf(b.out, "host id=%s cpu=%q flags=%v nproc=%d gomaxprocs=%d go=%s fp32=%s int8=%s ORPHEUS_GEMM_KERNEL=%q\n",
		fp.ID, fp.CPU, fp.Flags, fp.NumCPU, fp.GOMAXPROCS, fp.GoVersion, fp.FP32Kernel, fp.Int8Kernel, fp.KernelEnv)
	fmt.Fprintf(b.out, "plan layout=%s decisions=%v kernel_digest=%s steps=%d\n",
		b.plan.Layout, b.plan.Decisions, b.plan.Digest, b.plan.Steps)
	for _, p := range b.phases {
		fmt.Fprintf(b.out, "phase %-12s sent=%d succeeded=%d shed=%d failed=%d\n", p.Name, p.Sent, p.Succeeded, p.Shed, p.Failed)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(b.out, "metric %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(b.out, "operations attempted=%d failed=%d correct=%v; int8 outputs off the fp32 bar, not counted as failed: %d\n",
		res.Attempted, res.Failed, res.Correct, b.disagreed.Load())
	if b.firstErr != nil {
		fmt.Fprintf(b.out, "first failure: %v\n", b.firstErr)
	}
}
