package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks
// against.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tiny shrinks a workload to small queries in windows of two; the load
// shape and protocol parameters stay.
func tiny(def workloadDef) workloadDef {
	s := &def.spec
	s.Rows1, s.Domain1, s.Rows2, s.Domain2 = 16, 8, 24, 6
	def.window = 2
	return def
}

func runTiny(t *testing.T, def workloadDef, trace bool) (*result, string) {
	t.Helper()
	var log bytes.Buffer
	res, err := run(options{def: tiny(def), seed: 7, seconds: 1, trace: trace,
		outDir: t.TempDir(), log: &log})
	if err != nil {
		t.Fatalf("%s trace=%v: %v\n%s", def.name, trace, err, log.String())
	}
	return res, log.String()
}

// TestEveryMetricPrinted runs each workload tiny, untraced and traced,
// and checks that every metric BENCHMARK.json names is printed with its
// unit and lands in the result.
func TestEveryMetricPrinted(t *testing.T) {
	spec := loadSpec(t)
	for name, def := range workloads() {
		for _, trace := range []bool{false, true} {
			res, log := runTiny(t, def, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
					name, trace, res.Correct, res.Failed, res.Attempted, log)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m.Name, got, m.Unit)
				}
				line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.Name) + `\s+-?[0-9.]+ ` + regexp.QuoteMeta(m.Unit) + `$`)
				if !line.MatchString(log) {
					t.Errorf("%s trace=%v: %s not printed with unit %s", name, trace, m.Name, m.Unit)
				}
			}
		}
	}
}

// TestCorruptDigestFails proves the result check bites: with the
// expected digest corrupted, every query counts as a wrong result, and a
// run fails at its first verified query.
func TestCorruptDigestFails(t *testing.T) {
	def := tiny(workloads()["das-orders"])
	def.window = 3
	e, err := newEnv(def, 7)
	if err != nil {
		t.Fatal(err)
	}
	d, err := setUp(e, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	e.want[0] ^= 0xff
	p := closedLoop(e, d, 0)
	if failed, wrong, _ := p.failures(); failed != 3 || wrong != 3 {
		t.Errorf("corrupted digest: %d failed, %d wrong of 3", failed, wrong)
	}
	if _, err := setUp(e, nil, 1); err == nil {
		t.Error("set-up passed its warm-up query against a corrupted digest")
	}
}

// TestDigestIgnoresRowOrder checks the canonical digest: the same bag of
// rows in another order digests the same, a changed row does not.
func TestDigestIgnoresRowOrder(t *testing.T) {
	a := digestRows([][]byte{[]byte("x"), []byte("y"), []byte("y")})
	b := digestRows([][]byte{[]byte("y"), []byte("x"), []byte("y")})
	c := digestRows([][]byte{[]byte("y"), []byte("x"), []byte("x")})
	if a != b || a == c {
		t.Fatalf("digest order sensitivity wrong: %x %x %x", a, b, c)
	}
}

// TestHostScale checks the drift correction: wall and CPU timings scale
// by refNominal over the median reference wall and CPU time of the
// pass's windows.
func TestHostScale(t *testing.T) {
	p := &pass{windows: []window{
		{refWall: refNominal, refCPU: refNominal / 4},
		{refWall: refNominal / 2, refCPU: refNominal / 2},
		{refWall: 3 * refNominal, refCPU: refNominal / 2},
	}}
	if k, kc := p.scale(); k != 1 || kc != 2 {
		t.Errorf("scale wall %v cpu %v, want 1 and 2", k, kc)
	}
}
