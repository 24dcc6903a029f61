package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"orpheus/internal/gemm"
	"orpheus/internal/tensor"
)

// hostFingerprint identifies the machine and build a result was measured
// on. Results are only comparable when their fingerprints are equal.
type hostFingerprint struct {
	CPU        string   `json:"cpu"`
	Flags      []string `json:"flags"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	KernelEnv  string   `json:"orpheus_gemm_kernel"`
	FP32Kernel string   `json:"fp32_kernel"`
	Int8Kernel string   `json:"int8_kernel"`
	ID         string   `json:"id"`
}

// simdFlags are the CPU features the kernel registries dispatch on.
var simdFlags = []string{"avx", "avx2", "fma", "avx512f", "avx512bw", "avx512vl", "avx512_vnni", "avx_vnni", "asimd", "asimddp"}

// fingerprint describes this host; ID digests every other field.
func fingerprint() hostFingerprint {
	h := hostFingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		KernelEnv:  os.Getenv("ORPHEUS_GEMM_KERNEL"),
		FP32Kernel: gemm.KernelName(),
		Int8Kernel: gemm.Kernel8Name(),
		Flags:      []string{},
	}
	h.CPU, h.Flags = cpuInfo()
	b, _ := json.Marshal(h) // a struct of strings and ints always marshals
	sum := sha256.Sum256(b)
	h.ID = hex.EncodeToString(sum[:8])
	return h
}

// cpuInfo reads the CPU model and its SIMD flags from /proc/cpuinfo; on
// systems without it the model reads "unknown".
func cpuInfo() (model string, flags []string) {
	model, flags = "unknown", []string{}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return model, flags
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var have []string
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name", "Model":
			if model == "unknown" {
				model = strings.TrimSpace(val)
			}
		case "flags", "Features":
			if have == nil {
				have = strings.Fields(val)
			}
		}
	}
	for _, fl := range simdFlags {
		if slices.Contains(have, fl) {
			flags = append(flags, fl)
		}
	}
	return model, flags
}

// stealSeconds returns the CPU time the hypervisor has given other
// guests instead of this machine's virtual CPUs, from the steal column
// of /proc/stat (USER_HZ = 100); 0 where unavailable. Steal inflates
// every wall-clock metric, so runs report it alongside.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// gemmPeak measures the active fp32 micro-kernel's rate on one
// cache-resident square GEMM (prepacked operands, one thread) through
// gemm's packed entry, in GFLOP/s: the host roofline reference the
// conv kernels are compared with.
func gemmPeak() float64 {
	const n, reps = 256, 40
	r := tensor.NewRNG(tensor.SeedFromString("perfbench-gemm-peak"))
	a := tensor.Rand(r, -1, 1, n, n).Data()
	b := tensor.Rand(r, -1, 1, n, n).Data()
	call := gemm.Call{PackedA: gemm.PrepackA(a, n, n), PackedB: gemm.PrepackB(b, n, n),
		C: make([]float32, n*n), M: n, N: n, K: n, Store: true}
	var ctx gemm.Context
	for range 5 {
		ctx.Run(call)
	}
	times := make([]float64, reps)
	for i := range times {
		t0 := time.Now()
		ctx.Run(call)
		times[i] = float64(time.Since(t0))
	}
	return 2 * n * n * n / median(times)
}
