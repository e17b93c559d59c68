// Command perfbench is the repository's deployment benchmark. It runs
// the real topology in one process on loopback TCP — two datasources
// and the mediator behind session.Servers, the mediator reaching each
// source through a session.Pool, the load generator on one session.Mux
// link — drives one workload against it, checks every query's result
// against the plaintext join, and prints the metrics named in
// BENCHMARK.json.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload das-orders --seed 1 --seconds 38 --trace 0
//
// Each client runs queries back to back for --seconds, in windows of a
// few dozen queries. Between windows the benchmark times a fixed
// standard-library job, and scales the timing metrics to a host on which
// that job takes a fixed time, because the shared host's speed drifts
// over minutes (see hostRef).
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// instead runs the same load untraced and then traced, prints the
// per-layer metrics and the tracing overhead, times the crypto and codec
// kernels at the workload's sizes, and writes a Chrome trace under
// .bench_build/. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 80, "failed": 0, "metrics": {...}}
//
// The command exits non-zero when any query fails or returns a result
// whose canonical digest differs from the plaintext join's.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	name := flag.String("workload", "", "workload name: das-orders, comm-served or pm-small")
	seed := flag.Int64("seed", 1, "workload seed: the generated relations depend on it alone")
	seconds := flag.Int("seconds", 38, "measured run length: the closed loop runs this long")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.Parse()

	def, ok := workloads()[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload <%s> --seed <n> --seconds <n> --trace <0|1>\n", workloadNames())
		os.Exit(2)
	}
	res, err := run(options{def: def, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: ".bench_build", log: os.Stdout})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
