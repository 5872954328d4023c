package domino_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"druzhba/internal/core"
	"druzhba/internal/domino"
	"druzhba/internal/phv"
	"druzhba/internal/sim"
	"druzhba/internal/spec"
)

// oraclePair runs the compiled spec and the reference interpreter side by
// side on copies of the same input.
type oraclePair struct {
	prog *domino.Program
	got  *domino.PHVSpec
	ref  *domino.RefSpec
	a, b []phv.Value
}

func newOraclePair(p *domino.Program, fields domino.FieldMap, w phv.Width, phvLen int) (*oraclePair, error) {
	got, err := domino.NewPHVSpec(p, fields, w)
	if err != nil {
		return nil, err
	}
	return &oraclePair{
		prog: p,
		got:  got,
		ref:  domino.NewRefSpec(p, fields, w),
		a:    make([]phv.Value, phvLen),
		b:    make([]phv.Value, phvLen),
	}, nil
}

// step processes in through both specs and describes the first difference
// in error text, output PHV or state; "" means they agree.
func (o *oraclePair) step(in []phv.Value) string {
	copy(o.a, in)
	copy(o.b, in)
	errA, errB := o.got.ProcessStream(o.a), o.ref.ProcessStream(o.b)
	if fmt.Sprint(errA) != fmt.Sprint(errB) {
		return fmt.Sprintf("error: compiled %v, interpreter %v", errA, errB)
	}
	if !slices.Equal(o.a, o.b) {
		return fmt.Sprintf("output: compiled %v, interpreter %v (input %v)", o.a, o.b, in)
	}
	for _, name := range o.prog.StateNames() {
		va, okA := o.got.State(name)
		vb, okB := o.ref.State(name)
		if va != vb || okA != okB {
			return fmt.Sprintf("state %s: compiled %d, interpreter %d (input %v)", name, va, vb, in)
		}
	}
	return ""
}

// TestCompiledSpecMatchesInterpreter checks the compiled spec against the
// reference interpreter on every Table-1 program: seeds 1-3, uniform and
// boundary traffic, 20k PHVs each, every output and state value compared
// after every packet.
func TestCompiledSpecMatchesInterpreter(t *testing.T) {
	const n = 20000
	for _, bm := range spec.All() {
		t.Run(bm.Name, func(t *testing.T) {
			p, err := bm.DominoProgram()
			if err != nil {
				t.Fatal(err)
			}
			pipe, err := bm.Pipeline(core.Compiled)
			if err != nil {
				t.Fatal(err)
			}
			in := make([]phv.Value, pipe.PHVLen())
			for _, mode := range []sim.TrafficMode{sim.TrafficUniform, sim.TrafficBoundary} {
				for _, seed := range []int64{1, 2, 3} {
					o, err := newOraclePair(p, bm.Fields, pipe.Bits(), pipe.PHVLen())
					if err != nil {
						t.Fatal(err)
					}
					gen, err := sim.NewTrafficGenMode(seed, pipe.PHVLen(), pipe.Bits(), bm.MaxInput, mode)
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < n; i++ {
						gen.Fill(in)
						if d := o.step(in); d != "" {
							t.Fatalf("%s seed %d packet %d: %s", mode, seed, i, d)
						}
					}
				}
			}
		})
	}
}

// branchLocalSrc reads a local that only one branch assigns.
const branchLocalSrc = `
state s = 0;

transaction {
    if (pkt.a == 1) {
        int tmp = 5;
    }
    s = s + 1;
    pkt.b = tmp;
}
`

// FuzzSpecMatchesInterpreter: for any accepted program, the compiled spec
// and the interpreter agree on outputs, state and error text over three
// packets. Fields bind pairwise to shared containers, so write-back order
// is exercised too.
func FuzzSpecMatchesInterpreter(f *testing.F) {
	f.Add(domino.SamplingSrc, int64(5), int64(10))
	for _, bm := range spec.All() {
		f.Add(bm.DominoSrc, int64(5), int64(10))
	}
	f.Add(branchLocalSrc, int64(0), int64(1))
	f.Add(branchLocalSrc, int64(1), int64(1))
	f.Fuzz(func(t *testing.T, src string, a, b int64) {
		p, err := domino.Parse(src)
		if err != nil {
			return
		}
		fields := domino.FieldMap{}
		for i, name := range p.Fields() {
			fields[name] = i / 2
		}
		w := phv.Default32
		in := make([]phv.Value, len(fields)/2+1)
		o, err := newOraclePair(p, fields, w, len(in))
		if err != nil {
			t.Fatal(err)
		}
		for step := int64(0); step < 3; step++ {
			for c := range in {
				if c%2 == 0 {
					in[c] = w.Trunc(a + step)
				} else {
					in[c] = w.Trunc(b - step)
				}
			}
			if d := o.step(in); d != "" {
				t.Fatalf("step %d: %s\n%s", step, d, src)
			}
		}
	})
}

// BenchmarkSpecOracle measures the spec oracle alone, per Table-1 program:
// ns/PHV and allocs/PHV for the compiled spec and for the reference
// interpreter over the same uniform traffic.
func BenchmarkSpecOracle(b *testing.B) {
	type processor interface{ ProcessStream([]phv.Value) error }
	for _, bm := range spec.All() {
		p, err := bm.DominoProgram()
		if err != nil {
			b.Fatal(err)
		}
		pipe, err := bm.Pipeline(core.Compiled)
		if err != nil {
			b.Fatal(err)
		}
		gen := sim.NewTrafficGen(1, pipe.PHVLen(), pipe.Bits(), bm.MaxInput)
		trace := make([][]phv.Value, 1024)
		for i := range trace {
			trace[i] = make([]phv.Value, pipe.PHVLen())
			gen.Fill(trace[i])
		}
		compiled, err := domino.NewPHVSpec(p, bm.Fields, pipe.Bits())
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			name string
			spec processor
		}{
			{"compiled", compiled},
			{"interp", domino.NewRefSpec(p, bm.Fields, pipe.Bits())},
		} {
			b.Run(c.name+"/"+bm.Name, func(b *testing.B) {
				buf := make([]phv.Value, pipe.PHVLen())
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(buf, trace[i%len(trace)])
					if err := c.spec.ProcessStream(buf); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&m1)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/PHV")
				b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N), "allocs/PHV")
			})
		}
	}
}
