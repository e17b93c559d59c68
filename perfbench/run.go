package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/secmediation/secmediation/internal/leakage"
	"github.com/secmediation/secmediation/internal/telemetry"
)

const (
	// setupRepeats deployments are set up per untraced run; setup_s is
	// their median. The last one serves the measured queries.
	setupRepeats = 11
	// warmQueries run on the measured deployment before timing starts.
	warmQueries = 3
	// tailBeyond is the number of samples the tail percentile leaves
	// beyond it.
	tailBeyond = 10
	// refNominal is the host reference job's time that the timing
	// metrics are scaled to; the job takes about this long on the 2-vCPU
	// Xeon VM the benchmark was built on.
	refNominal = 12 * time.Millisecond
)

type options struct {
	def     workloadDef
	seed    int64
	seconds int
	trace   bool
	outDir  string
	log     io.Writer
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// pass is one measured loop of queries on one deployment.
type pass struct {
	samples  []sample // in order of completion
	windows  []window
	wall     time.Duration // start to last result
	peakHeap uint64
	wire     int64 // bytes on the mediator's source links
}

// window is e.def.window consecutive queries, samples[first:first+n] of
// their pass, with the wall and process CPU time they took, and the wall
// time and CPU time per P that the host reference job took right after
// them.
type window struct {
	first, n        int
	wall, cpu       time.Duration
	refWall, refCPU time.Duration
}

// busy is the summed wall and CPU time of the pass's windows.
func (p *pass) busy() (wall, cpu time.Duration) {
	for _, w := range p.windows {
		wall += w.wall
		cpu += w.cpu
	}
	return wall, cpu
}

// scale returns the factors that take the pass's wall and CPU timings
// to a host on which the reference job takes refNominal, in wall time and
// in CPU time per P: refNominal over the medians of the pass's reference
// timings. Wall time drifts with the time the host withholds the CPU
// and CPU time does not, so each is scaled by its own reference.
func (p *pass) scale() (wall, cpu float64) {
	walls := make([]float64, len(p.windows))
	cpus := make([]float64, len(p.windows))
	for i, w := range p.windows {
		walls[i], cpus[i] = float64(w.refWall), float64(w.refCPU)
	}
	sort.Float64s(walls)
	sort.Float64s(cpus)
	return float64(refNominal) / median(walls), float64(refNominal) / median(cpus)
}

func ok(samples []sample) []sample {
	var out []sample
	for _, s := range samples {
		if s.err == nil {
			out = append(out, s)
		}
	}
	return out
}

func (p *pass) failures() (failed, wrong int, first error) {
	for _, s := range p.samples {
		if s.err != nil {
			failed++
			if s.wrong {
				wrong++
			}
			if first == nil {
				first = s.err
			}
		}
	}
	return
}

// latencies returns the sorted latencies of the successful samples in ms.
func latencies(samples []sample) []float64 {
	var out []float64
	for _, s := range ok(samples) {
		out = append(out, float64(s.lat.Nanoseconds())/1e6)
	}
	sort.Float64s(out)
	return out
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// tail returns the highest-ranked sample that leaves tailBeyond samples
// beyond it, and its percentile.
func tail(sorted []float64) (float64, float64) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	i := n - 1 - tailBeyond
	if i < 0 {
		i = 0
	}
	return sorted[i], 100 * float64(i+1) / float64(n)
}

func run(o options) (*result, error) {
	e, err := newEnv(o.def, o.seed)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return runTraced(o, e)
	}
	var setups []float64
	var d *deployment
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
		}
		if d, err = setUp(e, nil, i); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(d.started).Seconds())
	}
	p, err := measure(e, d, time.Duration(o.seconds)*time.Second, nil)
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	n := len(p.samples)
	res := &result{Attempted: n, Metrics: map[string]metric{}}
	failed, wrong, first := p.failures()
	res.Failed, res.Correct = failed, failed == 0
	all := ok(p.samples)
	if len(all) == 0 {
		return nil, fmt.Errorf("every query failed: %w", first)
	}
	var clientRecv, wire int64
	for _, s := range all {
		clientRecv += s.clientRecv
		wire += s.clientWire
	}
	wire += p.wire
	sort.Float64s(setups)
	lat := latencies(all)
	tailV, tailPct := tail(lat)
	busyWall, busyCPU := p.busy()
	q := float64(len(all))
	p50, qps, cpuMs := median(lat), q/busyWall.Seconds(), float64(busyCPU.Nanoseconds())/1e6/q
	k, kc := p.scale()
	res.set("latency_p50_ms", p50*k, "ms")
	res.set("latency_tail_ms", tailV*k, "ms")
	res.set("goodput_qps", qps/k, "1/s")
	res.set("client_bytes_per_query", float64(clientRecv)/q, "B")
	res.set("wire_bytes_per_query", float64(wire)/q, "B")
	res.set("cpu_ms_per_query", cpuMs*kc, "ms")
	res.set("peak_heap_mib", float64(p.peakHeap)/(1<<20), "MiB")
	res.set("setup_s", median(setups), "s")

	meta := runMeta(o, tailPct, len(lat), p)
	fmt.Fprintf(o.log, "# %s\n", formatMeta(meta))
	nominal := float64(refNominal.Nanoseconds()) / 1e6
	fmt.Fprintf(o.log, "# unscaled: latency_p50_ms %.4f latency_tail_ms %.4f goodput_qps %.4f cpu_ms_per_query %.4f; scale wall %.4f cpu %.4f (reference job %.3f ms wall, %.3f ms CPU per P)\n",
		p50, tailV, qps, cpuMs, k, kc, nominal/k, nominal/kc)
	fmt.Fprintf(o.log, "# failed_ratio %.4f (%d failed, %d wrong, of %d attempted)\n",
		float64(failed)/float64(n), failed, wrong, n)
	if first != nil {
		fmt.Fprintf(o.log, "# first failure: %v\n", first)
	}
	printMetrics(o.log, res)
	return res, nil
}

// setUp deploys and runs the first verified warm-up query: set-up time
// runs from the deployment start to that query's verified result.
func setUp(e *env, tr *tracer, i int) (*deployment, error) {
	start := time.Now()
	d, err := deploy(e, tr)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	d.started = start
	if s := d.query(e, fmt.Sprintf("setup-%d", i)); s.err != nil {
		return nil, errors.Join(fmt.Errorf("first warm-up query: %w", s.err), d.close())
	}
	return d, nil
}

// measure warms the deployment up, then runs the closed loop for dur,
// recording the peak Go heap. onStart, when set, runs just before timing
// starts.
func measure(e *env, d *deployment, dur time.Duration, onStart func()) (*pass, error) {
	for i := 0; i < warmQueries; i++ {
		if s := d.query(e, fmt.Sprintf("warm-%d", i)); s.err != nil {
			return nil, fmt.Errorf("warm-up query: %w", s.err)
		}
	}
	if err := d.awaitSourceLinks(); err != nil {
		return nil, err
	}
	d.source.bytes.Store(0)
	runtime.GC()
	if onStart != nil {
		onStart()
	}
	heap := startHeapSampler()
	p := closedLoop(e, d, dur)
	err := d.awaitSourceLinks()
	p.peakHeap = peakHeap(heap.stop(), p.samples)
	p.wire = d.source.bytes.Load()
	return p, err
}

// clients is the workload's client count, capped at NumCPU.
func clients(def workloadDef) int {
	return min(def.clients, runtime.NumCPU())
}

// closedLoop runs the workload's clients in windows of e.def.window
// queries until a window ends dur or more after the start. Within a
// window each client sends its next query once the previous one is
// verified; between windows, with no query in flight, hostRef times the
// host reference job.
func closedLoop(e *env, d *deployment, dur time.Duration) *pass {
	p := &pass{}
	var mu sync.Mutex
	start := time.Now()
	for len(p.windows) == 0 || time.Since(start) < dur {
		w := window{first: len(p.samples), n: e.def.window}
		var next atomic.Int64
		var wg sync.WaitGroup
		began, cpu0 := time.Now(), cpuTime()
		for c := 0; c < clients(e.def); c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := next.Add(1); i <= int64(w.n); i = next.Add(1) {
					s := d.query(e, fmt.Sprintf("q-%d", w.first+int(i)-1))
					mu.Lock()
					p.samples = append(p.samples, s)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		w.wall, w.cpu = time.Since(began), cpuTime()-cpu0
		cpu1 := cpuTime()
		w.refWall = hostRef()
		w.refCPU = (cpuTime() - cpu1) / time.Duration(runtime.GOMAXPROCS(0))
		p.windows = append(p.windows, w)
	}
	p.wall = time.Since(start)
	return p
}

// hostRef times the host reference job: on every P at once, twelve
// 1024-bit modular exponentiations and SHA-256 over 256 KiB, all
// standard-library code that no change to the program can speed up or
// slow down. The shared host the benchmark runs on drifts in speed by
// a fifth or more over minutes, in wall time and less in CPU time;
// scaling the timings by this job's times, taken between windows, takes
// most of that drift out of them.
func hostRef() time.Duration {
	m := new(big.Int).Lsh(big.NewInt(1), 1023)
	m.Add(m, big.NewInt(1155))
	base := new(big.Int).Lsh(big.NewInt(3), 700)
	exp := new(big.Int).Sub(m, big.NewInt(12345))
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 12; j++ {
				new(big.Int).Exp(base, exp, m)
			}
			buf := make([]byte, 64<<10)
			for j := 0; j < 4; j++ {
				sha256.Sum256(buf)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// heapSampler polls the Go heap every millisecond while a pass runs.
type heapSampler struct {
	stopCh chan struct{}
	done   chan []heapPoint
}

type heapPoint struct {
	at    time.Time
	bytes uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{}), done: make(chan []heapPoint, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var points []heapPoint
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			points = append(points, heapPoint{time.Now(), s[0].Value.Uint64()})
			select {
			case <-h.stopCh:
				h.done <- points
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() []heapPoint {
	close(h.stopCh)
	return <-h.done
}

// peakHeap is the median over queries of the peak heap while each query
// ran. The single highest sample of a pass depends on where the
// collector happened to start a cycle; the median of per-query peaks
// does not.
func peakHeap(points []heapPoint, samples []sample) uint64 {
	var peaks []float64
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		i := sort.Search(len(points), func(i int) bool { return !points[i].at.Before(s.began) })
		if i > 0 {
			i-- // the heap as the query began
		}
		var peak uint64
		for ; i < len(points) && !points[i].at.After(s.end); i++ {
			if points[i].bytes > peak {
				peak = points[i].bytes
			}
		}
		peaks = append(peaks, float64(peak))
	}
	sort.Float64s(peaks)
	return uint64(median(peaks))
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runTraced runs the workload untraced and then traced on a fresh
// deployment, and reports the per-layer metrics of the traced pass, the
// tracing overhead on latency_p50_ms, and the kernel timings.
func runTraced(o options, e *env) (*result, error) {
	// The untraced and the traced pass share the run's --seconds.
	dur := time.Duration(o.seconds) * time.Second / 2
	d, err := setUp(e, nil, 0)
	if err != nil {
		return nil, err
	}
	plain, err := measure(e, d, dur, nil)
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	d, err = setUp(e, tr, 0)
	if err != nil {
		return nil, err
	}
	defer d.close()
	ledger := leakage.NewLedger()
	d.client.Ledger = ledger
	var rejected0, queue0 int64
	var ms0, ms1 runtime.MemStats
	var measureStart time.Time
	traced, err := measure(e, d, dur, func() {
		d.reg.ResetOps()
		rejected0 = d.reg.Counter("sessions_rejected").Value()
		queue0 = d.reg.Snapshot().GlobalHistograms["parallel_queue_wait_ns"].Sum
		runtime.ReadMemStats(&ms0)
		measureStart = time.Now()
	})
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	ops := d.reg.OpDeltas()
	snap := d.reg.Snapshot()

	res := &result{Attempted: len(plain.samples) + len(traced.samples), Metrics: map[string]metric{}}
	f1, _, first := plain.failures()
	f2, _, first2 := traced.failures()
	if first == nil {
		first = first2
	}
	res.Failed, res.Correct = f1+f2, f1+f2 == 0
	done := len(ok(traced.samples))
	if done == 0 {
		return nil, fmt.Errorf("every traced query failed: %w", first)
	}
	q := float64(done)
	lt := tr.layers("q-")
	msPerQ := func(ns int64) float64 { return float64(ns) / 1e6 / q }
	for _, kind := range []string{"client", "mediator", "source"} {
		res.set("mediation."+kind+".self_ms", msPerQ(lt.self[kind]), "ms")
		res.set("mediation."+kind+".wait_ms", msPerQ(lt.wait[kind]), "ms")
	}
	regStart := measureStart.Sub(tr.regEpoch).Nanoseconds()
	for _, ph := range []string{telemetry.PhaseTranslate, telemetry.PhaseSourceEncrypt,
		telemetry.PhaseCrossEncrypt, telemetry.PhaseMatch, telemetry.PhasePostFilter} {
		var ns int64
		for _, sp := range snap.Spans {
			if sp.Name == ph && sp.StartNs >= regStart {
				ns += sp.DurNs
			}
		}
		res.set("phase."+ph+"_ms", msPerQ(ns), "ms")
	}
	res.set("transport.send_ms", msPerQ(lt.send), "ms")
	res.set("transport.msgs_per_query", float64(lt.sends)/q, "count")
	res.set("transport.max_msg_bytes", float64(tr.largest.Size()), "B")
	enc, dec, coverage, err := codecKernels(tr.largest)
	if err != nil {
		return nil, fmt.Errorf("codec kernels: %w", err)
	}
	res.set("transport.encode_us_per_kib", enc, "us/KiB")
	res.set("transport.decode_us_per_kib", dec, "us/KiB")
	res.set("session.open_ms", msPerQ(lt.open), "ms")
	res.set("session.admit_wait_ms", msPerQ(lt.admitWait), "ms")
	res.set("session.inflight_max", float64(lt.inflightMax), "count")
	res.set("session.rejected", float64(d.reg.Counter("sessions_rejected").Value()-rejected0), "count")
	perQ := func(op string) float64 { return float64(ops[op]) / q }
	res.set("parallel.tasks_per_query", perQ("parallel.tasks"), "count")
	res.set("parallel.batches_per_query", perQ("parallel.batches"), "count")
	res.set("parallel.queue_wait_ms", msPerQ(snap.GlobalHistograms["parallel_queue_wait_ns"].Sum-queue0), "ms")
	for _, op := range []string{"hybrid.open", "hybrid.seal", "commutative.exp", "commutative.qrtest",
		"oracle.hash", "paillier.encrypt", "paillier.decrypt"} {
		res.set(op+"_per_query", perQ(op), "count")
	}
	superset, _ := ledger.Observed(leakage.PartyClient, "superset-size")
	precision := 0.0
	if superset > 0 {
		precision = float64(e.rows) / float64(superset)
	}
	res.set("das.superset_pairs", float64(superset), "count")
	res.set("das.precision", precision, "ratio")
	res.set("das.opens_per_result", perQ("hybrid.open")/float64(e.rows), "count")
	res.set("runtime.alloc_mib_per_query", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20)/q, "MiB")
	res.set("runtime.gc_cycles_per_query", float64(ms1.NumGC-ms0.NumGC)/q, "count")

	ku, _ := plain.scale()
	kt, _ := traced.scale()
	p50u, p50t := median(latencies(plain.samples))*ku, median(latencies(traced.samples))*kt
	res.set("trace.overhead_ms", p50t-p50u, "ms")

	kern, err := kernels(e, d)
	if err != nil {
		return nil, fmt.Errorf("kernels: %w", err)
	}
	for name, v := range kern {
		res.set(name, v, "us")
	}

	tracedLat := latencies(traced.samples)
	_, tailPct := tail(tracedLat)
	meta := runMeta(o, tailPct, len(tracedLat), traced)
	meta["largest_message"] = fmt.Sprintf("%s (%d B, mirror re-encodes %.0f%%)", tr.largest.Type, tr.largest.Size(), 100*coverage)
	fmt.Fprintf(o.log, "# %s\n", formatMeta(meta))
	fmt.Fprintf(o.log, "# tracing overhead: latency_p50_ms %.3f untraced, %.3f traced (%+.3f ms, %+.1f%%)\n",
		p50u, p50t, p50t-p50u, 100*(p50t-p50u)/p50u)
	if first != nil {
		fmt.Fprintf(o.log, "# first failure: %v\n", first)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.json", o.def.name, o.seed))
	if err := writeTrace(path, tr, d.reg, meta); err != nil {
		return nil, fmt.Errorf("chrome trace: %w", err)
	}
	fmt.Fprintf(o.log, "# chrome trace: %s\n", path)
	printMetrics(o.log, res)
	return res, nil
}

func writeTrace(path string, tr *tracer, reg *telemetry.Registry, meta map[string]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f, reg, meta); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runMeta describes the run: what produced the numbers, on what. done
// is the number of successful queries the percentiles are taken over.
func runMeta(o options, tailPct float64, done int, p *pass) map[string]string {
	commit, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+modified"
				}
			}
		}
	}
	meta := map[string]string{
		"workload":   o.def.name,
		"protocol":   o.def.proto.String(),
		"commit":     commit + modified,
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"seed":       fmt.Sprint(o.seed),
		"seconds":    fmt.Sprint(o.seconds),
		"queries":    fmt.Sprint(len(p.samples)),
		"windows":    fmt.Sprintf("%d (%d queries each)", len(p.windows), o.def.window),
		"tail":       fmt.Sprintf("p%.2f (%d samples beyond, of %d)", tailPct, tailBeyond, done),
		"wall_s":     fmt.Sprintf("%.3f", p.wall.Seconds()),
		"clients":    fmt.Sprint(clients(o.def)),
	}
	return meta
}

func formatMeta(meta map[string]string) string {
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + meta[k]
	}
	return strings.Join(parts, " ")
}

func printMetrics(w io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-32s %14.4f %s\n", name, m.Value, m.Unit)
	}
}
