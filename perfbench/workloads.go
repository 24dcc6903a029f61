package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	goruntime "runtime"
	"strconv"
	"sync"
	"time"

	"orpheus"
	"orpheus/internal/backend"
	"orpheus/internal/graph"
	"orpheus/internal/onnx"
	"orpheus/internal/passes"
	"orpheus/internal/runtime"
	"orpheus/internal/serve"
	"orpheus/internal/wire"
)

// workload is one benchmark scenario. Each draws a pool of distinct
// inputs from the seed; the program sees only those tensors.
type workload struct {
	name    string
	model   string        // zoo model, exported to ONNX before set-up
	pool    int           // distinct inputs drawn from the seed
	int8    bool          // outputs are checked at the int8 bar
	workers int           // kernel workers
	slo     time.Duration // latency limit behind slo_ok_frac
	run     func(b *bench) error
}

var workloads = []*workload{
	{name: "resnet18-b1", model: "resnet-18", pool: 2, workers: 1, slo: 250 * time.Millisecond, run: runResNet},
	{name: "mobilenet-auto-w2", model: "mobilenet-v1", pool: 2, workers: 2, slo: 100 * time.Millisecond, run: runMobileNet},
	{name: "serve-wrn-int8", model: "wrn-40-2", pool: 4, int8: true, workers: 2, slo: 100 * time.Millisecond, run: runServe},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// orpheusBackend is the native backend every workload compiles under.
func orpheusBackend() *backend.Backend {
	be, err := backend.ByName("orpheus")
	if err != nil {
		panic(err) // registered by the backend package's init
	}
	return be
}

// closedLoop calls plain back to back from one caller for the run's
// duration. A traced run first spends alloc share of it on plain calls
// alone, watched for allocations and GC pauses, then alternates blocks
// of plain and traced calls, so drift affects both alike and their
// latencies give trace.overhead_frac.
func (b *bench) closedLoop(plain func(i int) ([]float32, error), traced func(i int, root openSpan) ([]float32, error)) {
	const allocShare, block = 0.3, 4
	plainLat := make([]time.Duration, 0, 1<<14) // preallocated: no GC while timing
	tracedLat := make([]time.Duration, 0, 1<<14)
	var counts phaseCounts
	call := func(n int, tracedCall bool) {
		i := n % len(b.inputs)
		var out []float32
		var err error
		t0 := time.Now()
		if tracedCall {
			root := b.tr.root("request")
			out, err = traced(i, root)
			b.tr.end(root)
		} else {
			out, err = plain(i)
		}
		lat := time.Since(t0)
		counts.Sent++
		switch {
		case !b.op(b.verify(i, out, err)):
			counts.Failed++
		case tracedCall:
			counts.Succeeded++
			tracedLat = append(tracedLat, lat)
		default:
			counts.Succeeded++
			plainLat = append(plainLat, lat)
		}
	}
	// Warm-up, checked but not timed: caches and lazy state settle.
	counts.Name = "warm-up"
	for n, end := 0, time.Now().Add(warmup(b.cfg.dur)); n < 2 || time.Now().Before(end); n++ {
		call(n, false)
	}
	b.phases = append(b.phases, counts)
	plainLat = plainLat[:0]
	counts = phaseCounts{Name: "closed-loop"}
	start := time.Now()
	if b.tr == nil {
		for n := 0; n < 2 || time.Since(start) < b.cfg.dur; n++ {
			call(n, false)
		}
		elapsed := time.Since(start)
		b.setLatency(plainLat, int(counts.Sent), b.w.slo)
		b.set("throughput_ips", float64(counts.Succeeded)/elapsed.Seconds())
	} else {
		var mem memDelta
		mem.start()
		n := 0
		for ; n < 2 || time.Since(start) < time.Duration(allocShare*float64(b.cfg.dur)); n++ {
			call(n, false)
		}
		mem.stop(n)
		mem.finish(b)
		plainLat = plainLat[:0]
		for blk := 0; blk < 2 || time.Since(start) < b.cfg.dur; blk++ {
			for range block {
				call(n, blk%2 == 1)
				n++
			}
		}
		b.set("trace.overhead_frac", ratio(median(durationsMs(tracedLat)), median(durationsMs(plainLat))))
	}
	b.phases = append(b.phases, counts)
}

// warmup is the untimed warm-up that precedes a run's measurement.
func warmup(dur time.Duration) time.Duration { return dur / 20 }

// profileRun records a profiled run's steps as spans under sp (their
// starts reconstructed from the durations, since steps run in order)
// and accounts them in prof.
func (b *bench) profileRun(prof *opProfile, sp openSpan, run time.Duration, timings []runtime.LayerTiming) {
	at := sp.start
	for _, lt := range timings {
		b.tr.addAt(sp, "ops."+familyOf(lt.Node.Op, lt.Kernel), at, lt.Duration)
		at = at.Add(lt.Duration)
	}
	prof.add(run, len(timings), func(i int) (string, string, time.Duration, float64) {
		lt := timings[i]
		return lt.Node.Op, lt.Kernel, lt.Duration, float64(lt.Flops)
	})
}

// layerSetup makes one fresh set-up through the layers' entry points:
// it imports the ONNX file, compiles it with compile (timed as the
// metric compileMetric), and runs and checks the first inference on a
// pooled session. It returns the pool, the imported graph and the
// set-up time, from the file on disk to the first output.
func (b *bench) layerSetup(compileSpan, compileMetric string, compile func(g *graph.Graph) (*runtime.Plan, error)) (*runtime.SessionPool, *graph.Graph, time.Duration, error) {
	root := b.tr.root("setup")
	var (
		g    *graph.Graph
		plan *runtime.Plan
		pool *runtime.SessionPool
		out  []float32
	)
	err := b.timed(root, "onnx.import", func() (err error) {
		g, err = onnx.ImportFile(b.path)
		return err
	})
	if err == nil {
		err = b.timedAs(root, compileSpan, compileMetric, func() (err error) {
			plan, err = compile(g)
			return err
		})
	}
	if err == nil {
		pool = runtime.NewSessionPool(plan)
		err = b.timed(root, "runtime.first_run", func() error {
			rs := pool.Get()
			defer pool.Put(rs)
			outs, err := rs.Run(b.ctx, map[string]*tensorT{plan.InputDescs()[0].Name: b.inputs[0]})
			if err == nil {
				out = append([]float32(nil), outs[plan.OutputDescs()[0].Name].Data()...)
			}
			return err
		})
	}
	d := b.tr.end(root)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("set-up: %w", err)
	}
	b.op(b.verify(0, out, nil))
	return pool, g, d, nil
}

// runResNet is resnet18-b1: resnet-18, fp32, NCHW, batch 1, one worker,
// through the public facade (LoadONNX → Compile → PredictInto), one
// caller in a closed loop.
func runResNet(b *bench) error {
	var (
		sess *orpheus.Session
		dst  *orpheus.Tensor
	)
	defer func() {
		if sess != nil {
			sess.Close()
		}
	}()
	facadeSetup := func() (time.Duration, error) {
		if sess != nil {
			sess.Close()
		}
		t0 := time.Now()
		m, err := orpheus.LoadONNX(b.path)
		if err != nil {
			return 0, err
		}
		if sess, err = m.Compile(); err != nil {
			return 0, err
		}
		if dst, err = sess.Predict(b.ctx, b.inputs[0]); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		b.op(b.verify(0, dst.Data(), nil))
		return d, nil
	}
	for range setupRepeats {
		if b.tr == nil {
			d, err := facadeSetup()
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			b.sample("setup_s", d.Seconds())
			continue
		}
		// Traced: the same steps the facade takes, one layer call each.
		_, g, _, err := b.layerSetup("backend.prepare", "backend.prepare_ms", func(g *graph.Graph) (*runtime.Plan, error) {
			return orpheusBackend().PrepareWith(g, backend.PrepareOpts{Workers: 1})
		})
		if err != nil {
			return err
		}
		extra := b.tr.root("setup.extra")
		err = b.runPasses(extra, g, passes.Default())
		b.tr.end(extra)
		if err != nil {
			return err
		}
	}
	if b.tr != nil {
		if _, err := facadeSetup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	b.setPlanSummary(sess.PlanSummary(), "nchw")
	b.plan.Decisions = []string{"nchw"}
	weights, arena := sess.MemoryFootprint()
	b.setMemory(weights, sess.ConstBytes(), arena)

	prof := newOpProfile()
	goruntime.GC()
	b.closedLoop(func(i int) ([]float32, error) {
		out, err := sess.PredictInto(b.ctx, dst, b.inputs[i])
		if err != nil {
			return nil, err
		}
		return out.Data(), nil
	}, func(i int, root openSpan) ([]float32, error) {
		sp := b.tr.child(root, "runtime.run")
		out, timings, err := sess.PredictProfiled(b.ctx, b.inputs[i])
		d := b.tr.end(sp)
		if err != nil {
			return nil, err
		}
		b.profileRun(prof, sp, d, timings)
		return out.Data(), nil
	})
	if b.tr != nil {
		return prof.finish(b, b.peak(), b.w.workers)
	}
	return nil
}

// runMobileNet is mobilenet-auto-w2: mobilenet-v1, fp32, layout chosen
// by AutoLayout arbitration, two kernel workers, batch 1, one caller in
// a closed loop, driven through a runtime.SessionPool.
func runMobileNet(b *bench) error {
	be := orpheusBackend()
	opts := backend.PrepareOpts{Layout: "auto", Workers: b.w.workers}
	var (
		pool   *runtime.SessionPool
		layout string
	)
	for range setupRepeats {
		p, g, d, err := b.layerSetup("backend.autolayout", "backend.autolayout_ms", func(g *graph.Graph) (*runtime.Plan, error) {
			plan, l, err := be.AutoLayout(g, opts)
			layout = l
			return plan, err
		})
		if err != nil {
			return err
		}
		pool = p
		b.sample("setup_s", d.Seconds())
		b.plan.Decisions = append(b.plan.Decisions, layout)
		if b.tr == nil {
			continue
		}
		// Out of the set-up span: the pipeline and a single compile of
		// the chosen layout, which AutoLayout runs out of sight.
		extra := b.tr.root("setup.extra")
		pipeline := passes.Default()
		if layout == "nhwc" {
			pipeline = passes.LayoutPipeline(nil)
		}
		err = b.runPasses(extra, g, pipeline)
		if err == nil {
			err = b.timed(extra, "backend.prepare", func() error {
				_, err := be.PrepareWith(g, backend.PrepareOpts{Layout: layout, Workers: b.w.workers})
				return err
			})
		}
		b.tr.end(extra)
		if err != nil {
			return err
		}
	}
	plan := pool.Plan()
	b.setPlan(plan.Steps(), layout)
	b.setMemory(plan.WeightBytes(), plan.ConstBytes(), plan.ArenaBytes())

	inName, outName := plan.InputDescs()[0].Name, plan.OutputDescs()[0].Name
	ins := make([]map[string]*tensorT, len(b.inputs))
	for i, x := range b.inputs {
		ins[i] = map[string]*tensorT{inName: x}
	}
	dst := make([]float32, len(b.refs[0]))
	prof := newOpProfile()
	goruntime.GC()
	b.closedLoop(func(i int) ([]float32, error) {
		rs := pool.Get()
		defer pool.Put(rs)
		outs, err := rs.Run(b.ctx, ins[i])
		if err != nil {
			return nil, err
		}
		copy(dst, outs[outName].Data())
		return dst, nil
	}, func(i int, root openSpan) ([]float32, error) {
		sp := b.tr.child(root, "runtime.run")
		rs := pool.Get()
		outs, timings, err := rs.RunProfiled(b.ctx, ins[i])
		if err == nil {
			copy(dst, outs[outName].Data())
		}
		pool.Put(rs)
		d := b.tr.end(sp)
		if err != nil {
			return nil, err
		}
		b.profileRun(prof, sp, d, timings)
		return dst, nil
	})
	b.set("runtime.sessionpool.quarantined", float64(pool.Quarantined()))
	if b.tr != nil {
		return prof.finish(b, b.peak(), b.w.workers)
	}
	return nil
}

// Serving workload parameters.
const (
	serveModel     = "wrn-40-2"
	serveMaxBatch  = 8
	serveFlush     = 2 * time.Millisecond
	serveRate      = 10.0 // open-loop arrivals per second
	serveCallers   = 8    // closed-loop callers
	serveRounds    = 4    // alternations of the open and the closed loop
	serveBodyLimit = 1 << 24
)

// serveClient drives a serve.Server in process: binary ORPT requests go
// straight to its handler's ServeHTTP, so no socket is opened.
type serveClient struct {
	b     *bench
	h     http.Handler
	shape []int
}

// reply is one /predict response as the client saw it.
type reply struct {
	status   int
	out      []float32
	serverMs float64 // the server's own X-Orpheus-Latency-Ms
	encode   time.Duration
	handler  time.Duration
	decode   time.Duration
}

// predict sends pool input i; tr is nil for an untraced request.
func (c *serveClient) predict(tr *tracer, root openSpan, i int) (reply, error) {
	sp := tr.child(root, "wire.encode")
	body := wire.AppendTensor(make([]byte, 0, wire.EncodedSize(c.shape)), c.b.inputs[i].Data(), c.shape)
	r := reply{encode: tr.end(sp)}
	req := httptest.NewRequest(http.MethodPost, "/predict/"+serveModel, bytes.NewReader(body))
	req.Header.Set("Content-Type", serve.ContentTypeTensor)
	rec := httptest.NewRecorder()
	sp = tr.child(root, "serve.handler")
	c.h.ServeHTTP(rec, req)
	r.handler = tr.end(sp)
	r.status = rec.Code
	switch rec.Code {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		return r, errShed
	default:
		return r, fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	sp = tr.child(root, "wire.decode")
	_, payload, err := wire.ParseMessage(rec.Body.Bytes(), serveBodyLimit)
	if err == nil {
		r.out = make([]float32, len(payload)/4)
		err = wire.Float32Into(r.out, payload)
	}
	r.decode = tr.end(sp)
	if err != nil {
		return r, err
	}
	r.serverMs, err = strconv.ParseFloat(rec.Header().Get("X-Orpheus-Latency-Ms"), 64)
	return r, err
}

// outcome classifies a reply into the phase counts and reports whether
// it succeeded (200 and correct).
func (c *serveClient) outcome(p *phaseCounts, i int, r reply, err error) bool {
	err = c.b.verify(i, r.out, err)
	p.Sent++
	ok := c.b.op(err)
	switch {
	case ok:
		p.Succeeded++
	case errors.Is(err, errShed):
		p.Shed++
	default:
		p.Failed++
	}
	return ok
}

// batcherDelta sums the batcher's counters over the rounds of one phase.
type batcherDelta struct {
	Runs, Requests, FlushFull int64
	QueuedWait                time.Duration
}

func (d *batcherDelta) add(before, after runtime.BatcherStats) {
	d.Runs += after.Runs - before.Runs
	d.Requests += after.Requests - before.Requests
	d.FlushFull += after.FlushFull - before.FlushFull
	d.QueuedWait += after.QueuedWait - before.QueuedWait
}

// record is one open-loop request.
type record struct {
	ok, traced bool
	lat, late  time.Duration
	r          reply
}

// openLoop sends requests at Poisson arrival times drawn from rng for d,
// each from its own goroutine, and times every request from its due
// time. Every second request of a traced run is traced.
func (c *serveClient) openLoop(rng *rand.Rand, d time.Duration) ([]record, phaseCounts) {
	counts := phaseCounts{Name: "open-loop"}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		recs []record
	)
	start := time.Now()
	due := start
	for k := 0; ; k++ {
		due = due.Add(time.Duration(rng.ExpFloat64() / serveRate * float64(time.Second)))
		if due.Sub(start) >= d && k >= 2 {
			break
		}
		time.Sleep(time.Until(due))
		at, late := due, time.Since(due)
		var tr *tracer
		if k%2 == 1 {
			tr = c.b.tr
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := k % len(c.b.inputs)
			root := tr.root("request")
			r, err := c.predict(tr, root, i)
			tr.end(root)
			lat := time.Since(at)
			mu.Lock()
			defer mu.Unlock()
			ok := c.outcome(&counts, i, r, err)
			recs = append(recs, record{ok: ok, traced: tr != nil, lat: lat, late: late, r: r})
		}()
	}
	wg.Wait()
	return recs, counts
}

// clientAllocs returns the allocations the client side of one request
// makes (body, request, recorder, reply), measured over n requests to a
// stub handler that answers with a canned reply.
func (c *serveClient) clientAllocs(n int) (float64, error) {
	canned := wire.AppendTensor(nil, c.b.oracle[0], []int{1, len(c.b.oracle[0])})
	stub := &serveClient{b: c.b, shape: c.shape, h: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("X-Orpheus-Latency-Ms", "1")
		_, _ = w.Write(canned) // a ResponseRecorder's writes cannot fail
	})}
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	var err error
	for i := 0; i < n && err == nil; i++ {
		_, err = stub.predict(nil, openSpan{}, i%len(c.b.inputs))
	}
	goruntime.ReadMemStats(&after)
	if err != nil {
		return 0, fmt.Errorf("stub request: %w", err)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// closedLoop runs serveCallers callers back to back for d and returns
// their counts and the time until the last reply.
func (c *serveClient) closedLoop(d time.Duration) (phaseCounts, time.Duration) {
	counts := phaseCounts{Name: "closed-loop"}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	start := time.Now()
	end := start.Add(d)
	for caller := range serveCallers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := caller; i < serveCallers || time.Now().Before(end); i += serveCallers {
				x := i % len(c.b.inputs)
				r, err := c.predict(nil, openSpan{}, x)
				mu.Lock()
				c.outcome(&counts, x, r, err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return counts, time.Since(start)
}

// profileLoop posts JSON bodies to POST /profile/{model} for d and
// accounts the per-step rows it returns.
func (c *serveClient) profileLoop(d time.Duration, prof *opProfile) error {
	bodies := make([][]byte, len(c.b.inputs))
	for i, x := range c.b.inputs {
		var err error
		if bodies[i], err = json.Marshal(map[string][]float32{"input": x.Data()}); err != nil {
			return err
		}
	}
	counts := phaseCounts{Name: "profile"}
	end := time.Now().Add(d)
	for i := 0; i < 2 || time.Now().Before(end); i++ {
		root := c.b.tr.root("profile")
		req := httptest.NewRequest(http.MethodPost, "/profile/"+serveModel, bytes.NewReader(bodies[i%len(bodies)]))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		sp := c.b.tr.child(root, "serve.profile")
		c.h.ServeHTTP(rec, req)
		run := c.b.tr.end(sp)
		c.b.tr.end(root)
		var rows []struct {
			Op     string  `json:"op"`
			Kernel string  `json:"kernel"`
			Ms     float64 `json:"ms"`
			GFlops float64 `json:"gflops_per_s"`
		}
		err := json.Unmarshal(rec.Body.Bytes(), &rows)
		if rec.Code != http.StatusOK || len(rows) == 0 {
			err = fmt.Errorf("profile: status %d, %d rows", rec.Code, len(rows))
		}
		counts.Sent++
		if !c.b.op(err) {
			counts.Failed++
			continue
		}
		counts.Succeeded++
		at := sp.start
		for _, r := range rows {
			step := time.Duration(r.Ms * 1e6)
			c.b.tr.addAt(sp, "ops."+familyOf(r.Op, r.Kernel), at, step)
			at = at.Add(step)
		}
		prof.add(run, len(rows), func(i int) (string, string, time.Duration, float64) {
			r := rows[i]
			return r.Op, r.Kernel, time.Duration(r.Ms * 1e6), r.GFlops * r.Ms * 1e6
		})
	}
	c.b.phases = append(c.b.phases, counts)
	return nil
}

// runServe is serve-wrn-int8: wrn-40-2 on the int8 tier behind
// serve.New(WithMaxBatch(8), WithInt8()) with two kernel workers and a
// 2 ms flush deadline. Phase 1 is an open loop at serveRate seeded
// Poisson arrivals; phase 2 a closed loop of serveCallers callers. The
// two alternate over serveRounds rounds, so that a slow stretch of the
// host weighs on both alike. Traced runs end with a phase of POST
// /profile requests.
func runServe(b *bench) error {
	var srv *serve.Server
	defer func() {
		if srv != nil {
			srv.Close()
		}
	}()
	var g *graph.Graph
	for range setupRepeats {
		if srv != nil {
			srv.Close()
		}
		root := b.tr.root("setup")
		err := b.timed(root, "onnx.import", func() (err error) {
			g, err = onnx.ImportFile(b.path)
			return err
		})
		srv = serve.New(serve.WithMaxBatch(serveMaxBatch), serve.WithInt8(), serve.WithFlushDeadline(serveFlush))
		if err == nil {
			err = b.timedAs(root, "serve.add_model", "backend.prepare_ms", func() error {
				return srv.AddModel(serveModel, g, "orpheus", b.w.workers)
			})
		}
		var r reply
		if err == nil {
			c := &serveClient{b: b, h: srv.Handler(), shape: g.Inputs[0].Shape}
			err = b.timedAs(root, "serve.first_request", "runtime.first_run_ms", func() (err error) {
				r, err = c.predict(b.tr, root, 0)
				return err
			})
		}
		d := b.tr.end(root)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.op(b.verify(0, r.out, nil))
		b.sample("setup_s", d.Seconds())
		if b.tr != nil {
			extra := b.tr.root("setup.extra")
			err = b.runPasses(extra, g, passes.Default())
			b.tr.end(extra)
			if err != nil {
				return err
			}
		}
	}
	// The server keeps its plan private; a twin compiled with the same
	// options gives the plan identity and the memory footprint.
	twin, err := orpheusBackend().PrepareWith(g, backend.PrepareOpts{Workers: b.w.workers, MaxBatch: serveMaxBatch, Int8: true})
	if err != nil {
		return fmt.Errorf("compiling the twin plan: %w", err)
	}
	if _, err := runtime.NewSession(twin).Run(b.ctx, map[string]*tensorT{twin.InputDescs()[0].Name: b.inputs[0]}); err != nil {
		return fmt.Errorf("running the twin plan: %w", err)
	}
	b.setPlan(twin.Steps(), "nchw")
	b.plan.Decisions = []string{"nchw"}
	b.setMemory(twin.WeightBytes(), twin.ConstBytes(), twin.ArenaBytes())

	c := &serveClient{b: b, h: srv.Handler(), shape: g.Inputs[0].Shape}
	open, closed, profile := 0.6, 0.4, 0.0
	if b.tr != nil {
		open, closed, profile = 0.5, 0.3, 0.2
	}
	share := func(f float64) time.Duration { return time.Duration(f * float64(b.cfg.dur)) }
	counts, _ := c.closedLoop(warmup(b.cfg.dur))
	counts.Name = "warm-up"
	b.phases = append(b.phases, counts)
	// The closed loop is untraced in every run, so a traced run watches
	// it for allocations and GC pauses, less the client side's.
	var mem memDelta
	if b.tr != nil {
		var err error
		if mem.clientAllocs, err = c.clientAllocs(200); err != nil {
			return err
		}
	}
	st0, _ := srv.BatcherStats(serveModel)
	shed0 := srv.ShedCount()
	goruntime.GC()

	rng := rand.New(rand.NewPCG(b.cfg.seed, 0x6f70656e))
	var (
		recs             []record
		openSt, closedSt batcherDelta
		openN, closedN   = phaseCounts{Name: "open-loop"}, phaseCounts{Name: "closed-loop"}
		closedTime       time.Duration
	)
	for range serveRounds {
		st1, _ := srv.BatcherStats(serveModel)
		r, counts := c.openLoop(rng, share(open/serveRounds))
		recs = append(recs, r...)
		openN.add(counts)
		st2, _ := srv.BatcherStats(serveModel)
		openSt.add(st1, st2)
		if b.tr != nil {
			mem.start()
		}
		counts, d := c.closedLoop(share(closed / serveRounds))
		mem.stop(int(counts.Sent))
		closedN.add(counts)
		closedTime += d
		st3, _ := srv.BatcherStats(serveModel)
		closedSt.add(st2, st3)
	}
	stEnd, _ := srv.BatcherStats(serveModel)
	b.phases = append(b.phases, openN, closedN)
	b.set("throughput_ips", float64(closedN.Succeeded)/closedTime.Seconds())

	var lat, plainLat, tracedLat []time.Duration
	var late, handler, overhead, enc, dec []float64
	for _, r := range recs {
		late = append(late, ms(r.late))
		if !r.ok {
			continue
		}
		lat = append(lat, r.lat)
		if !r.traced {
			plainLat = append(plainLat, r.lat)
			continue
		}
		tracedLat = append(tracedLat, r.lat)
		handler = append(handler, ms(r.r.handler))
		overhead = append(overhead, ms(r.r.handler)-r.r.serverMs)
		enc = append(enc, us(r.r.encode))
		dec = append(dec, us(r.r.decode))
	}
	b.setLatency(lat, len(recs), b.w.slo)
	lateP90 := quantile(late, 0.9)
	b.set("gen.late_p90_ms", lateP90)
	fmt.Fprintf(b.out, "open-loop generator late_p90_ms=%.4f requests=%d\n", lateP90, len(recs))

	fmt.Fprintf(b.out, "batcher open-loop runs=%d requests=%d; closed-loop runs=%d requests=%d flush_full=%d\n",
		openSt.Runs, openSt.Requests, closedSt.Runs, closedSt.Requests, closedSt.FlushFull)
	b.set("runtime.batcher.queue_wait_ms", ratio(ms(openSt.QueuedWait), float64(openSt.Requests)))
	b.set("runtime.batcher.mean_batch", ratio(float64(openSt.Requests), float64(openSt.Runs)))
	b.set("runtime.batcher.mean_batch_closed", ratio(float64(closedSt.Requests), float64(closedSt.Runs)))
	b.set("runtime.batcher.flush_full_frac", ratio(float64(closedSt.FlushFull), float64(closedSt.Runs)))
	b.set("runtime.batcher.rejected", float64(stEnd.Rejected-st0.Rejected))
	b.set("runtime.batcher.cancelled", float64(stEnd.Cancelled-st0.Cancelled))
	b.set("serve.shed", float64(srv.ShedCount()-shed0))
	q, _ := srv.Quarantined(serveModel)
	b.set("runtime.sessionpool.quarantined", float64(q))
	if b.tr == nil {
		return nil
	}
	mem.finish(b)
	b.set("serve.handler_ms", median(handler))
	b.set("serve.overhead_ms", median(overhead))
	b.set("wire.encode_us", median(enc))
	b.set("wire.decode_us", median(dec))
	b.set("trace.overhead_frac", ratio(median(durationsMs(tracedLat)), median(durationsMs(plainLat))))
	prof := newOpProfile()
	if err := c.profileLoop(share(profile), prof); err != nil {
		return err
	}
	return prof.finish(b, b.peak(), b.w.workers)
}
