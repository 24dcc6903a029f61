package main

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's schema: BENCHMARK.json declares the same names and
// units (TestSchemaMatchesBenchmarkJSON keeps the two in step), and a run
// that fails to produce any of them is an error.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_ips", "1/s"},
	{"setup_s", "s"},
	{"mem_mb", "MB"},
	{"slo_ok_frac", "frac"},
	{"ok_frac", "frac"},
}

// perLayer are the metrics of a traced run (--trace 1). A metric that
// does not apply to a workload (the batcher on a closed-loop facade
// workload, say) reads 0.
var perLayer = []metricDef{
	{"onnx.import_ms", "ms"},
	{"passes.run_ms", "ms"},
	{"passes.nodes", "count"},
	{"passes.transposes", "count"},
	{"backend.prepare_ms", "ms"},
	{"backend.autolayout_ms", "ms"},
	{"backend.layout_nhwc", "bool"},
	{"runtime.first_run_ms", "ms"},
	{"runtime.run_ms", "ms"},
	{"runtime.steps", "count"},
	{"runtime.arena_mb", "MB"},
	{"runtime.const_mb", "MB"},
	{"runtime.sessionpool.quarantined", "count"},
	{"runtime.batcher.queue_wait_ms", "ms"},
	{"runtime.batcher.mean_batch", "req/run"},
	{"runtime.batcher.mean_batch_closed", "req/run"},
	{"runtime.batcher.flush_full_frac", "frac"},
	{"runtime.batcher.rejected", "count"},
	{"runtime.batcher.cancelled", "count"},
	{"ops.conv_ms", "ms"},
	{"ops.conv_gflops", "GFLOP/s"},
	{"ops.depthwise_ms", "ms"},
	{"ops.depthwise_gflops", "GFLOP/s"},
	{"ops.pool_ms", "ms"},
	{"ops.eltwise_ms", "ms"},
	{"ops.dense_ms", "ms"},
	{"ops.other_ms", "ms"},
	{"ops.conv_peak_frac", "frac"},
	{"gemm.peak_gflops", "GFLOP/s"},
	{"serve.handler_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.shed", "count"},
	{"wire.encode_us", "us"},
	{"wire.decode_us", "us"},
	{"go.allocs_per_op", "count"},
	{"go.gc_pause_ms", "ms"},
	{"gen.late_p90_ms", "ms"},
	{"trace.overhead_frac", "frac"},
	{"trace.coverage_frac", "frac"},
}

// metricsFor returns the schema a run prints.
func metricsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}
