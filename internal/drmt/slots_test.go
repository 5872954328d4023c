package drmt

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// renderReport canonicalizes a DiffReport for byte-comparison: every field
// that reaches campaign reports, plus the traffic-generator packet IDs.
func renderReport(rep *DiffReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "checked=%d instructions=%d err=%v\n", rep.Checked, rep.Instructions, rep.Err)
	for _, d := range rep.Diffs {
		fmt.Fprintf(&b, "id=%d %s\n", d.ID, d.String())
	}
	return b.String()
}

// TestFillMatchesNext: Fill and Next must consume the random stream
// identically and hand out the same running packet IDs, so streaming and
// materializing consumers of one seed see the same traffic.
func TestFillMatchesNext(t *testing.T) {
	for _, bm := range Benchmarks() {
		prog, err := bm.Program()
		if err != nil {
			t.Fatal(err)
		}
		layout, err := NewSlotLayout(prog)
		if err != nil {
			t.Fatal(err)
		}
		gFill, err := NewTrafficGen(77, prog, bm.MaxInput)
		if err != nil {
			t.Fatal(err)
		}
		gNext, err := NewTrafficGen(77, prog, bm.MaxInput)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]int64, layout.NumFields())
		for i := 0; i < 200; i++ {
			id := gFill.Fill(buf)
			p := gNext.Next()
			if id != p.ID {
				t.Fatalf("%s packet %d: Fill ID %d, Next ID %d", bm.Name, i, id, p.ID)
			}
			for s, f := range layout.fields {
				if buf[s] != p.Fields[f] {
					t.Fatalf("%s packet %d field %s: Fill %d, Next %d", bm.Name, i, f, buf[s], p.Fields[f])
				}
			}
		}
	}
}

// fuzzSeededCompat is FuzzSeeded on the map-based reference interpreters.
func fuzzSeededCompat(f *DiffFuzzer, seed int64, n int, max int64) (*DiffReport, error) {
	gen, err := NewTrafficGen(seed, f.Program(), max)
	if err != nil {
		return nil, err
	}
	return f.FuzzCompat(gen, n)
}

// TestDiffFuzzerSlotVsCompatByteIdentical is the differential test for the
// slot-compiled engines: over every embedded benchmark and several seeds,
// the streaming Fuzz and the map-based FuzzCompat must produce
// byte-identical DiffReports — same counts, same instruction totals, same
// renderings.
func TestDiffFuzzerSlotVsCompatByteIdentical(t *testing.T) {
	for _, bm := range Benchmarks() {
		prog, err := bm.Program()
		if err != nil {
			t.Fatal(err)
		}
		entries, err := bm.Entries(prog)
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewDiffFuzzer(prog, nil, entries, bm.HW)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 7, 42} {
			for _, max := range []int64{0, bm.MaxInput} {
				slot, err := f.FuzzSeeded(seed, 800, max)
				if err != nil {
					t.Fatal(err)
				}
				compat, err := fuzzSeededCompat(f, seed, 800, max)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := renderReport(slot), renderReport(compat); got != want {
					t.Fatalf("%s seed=%d max=%d: slot and compat reports differ:\n--- slot ---\n%s--- compat ---\n%s",
						bm.Name, seed, max, got, want)
				}
			}
		}
	}
}

// TestDiffFuzzerSlotVsCompatOnMiscompile repeats the byte-identity check on
// a run that actually produces diffs: the injected ttl miscompile on l2l3
// must yield the same counterexamples, with the same canonical renderings,
// from both engines.
func TestDiffFuzzerSlotVsCompatOnMiscompile(t *testing.T) {
	prog, entries := loadL2L3(t)
	isa, err := Assemble(prog)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := MiscompileALUAdd(isa, 8) // the ttl decrement
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewDiffFuzzer(prog, bad, entries, HWConfig{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	slot, err := f.FuzzSeeded(7, 3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(slot.Diffs) == 0 {
		t.Fatal("miscompiled program produced no diffs on the slot path")
	}
	compat, err := fuzzSeededCompat(f, 7, 3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderReport(slot), renderReport(compat); got != want {
		t.Fatalf("slot and compat miscompile reports differ:\n--- slot ---\n%s--- compat ---\n%s", got, want)
	}
}

// TestDiffFuzzerSlotVsCompatOnExecError: an ISA program whose match selects
// an action missing from its dispatch list fails at run time; both engines
// must report the identical error at the identical packet.
func TestDiffFuzzerSlotVsCompatOnExecError(t *testing.T) {
	prog, entries := loadL2L3(t)
	isa, err := Assemble(prog)
	if err != nil {
		t.Fatal(err)
	}
	bad := *isa
	bad.Dispatch = make([][]string, len(isa.Dispatch))
	for i, d := range isa.Dispatch {
		bad.Dispatch[i] = append([]string(nil), d...)
	}
	bad.Dispatch[0] = []string{"not_learn"} // smac's default learn() is now unselectable
	f, err := NewDiffFuzzer(prog, &bad, entries, HWConfig{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	slot, err := f.FuzzSeeded(3, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if slot.Err == nil || !strings.Contains(slot.Err.Error(), "outside its dispatch list") {
		t.Fatalf("slot path missed the dispatch error: %v", slot.Err)
	}
	compat, err := fuzzSeededCompat(f, 3, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderReport(slot), renderReport(compat); got != want {
		t.Fatalf("slot and compat error reports differ:\n--- slot ---\n%s--- compat ---\n%s", got, want)
	}
}

// TestRunStreamMatchesRun: the slot-streaming table machine must produce
// Stats (and register state) identical to the map-based Run over the same
// seeded traffic, for every embedded benchmark.
func TestRunStreamMatchesRun(t *testing.T) {
	for _, bm := range Benchmarks() {
		prog, err := bm.Program()
		if err != nil {
			t.Fatal(err)
		}
		entries, err := bm.Entries(prog)
		if err != nil {
			t.Fatal(err)
		}
		mStream, err := NewMachine(prog, entries, bm.HW, nil)
		if err != nil {
			t.Fatal(err)
		}
		mRun, err := NewMachine(prog, entries, bm.HW, nil)
		if err != nil {
			t.Fatal(err)
		}
		genS, err := NewTrafficGen(9, prog, bm.MaxInput)
		if err != nil {
			t.Fatal(err)
		}
		genR, err := NewTrafficGen(9, prog, bm.MaxInput)
		if err != nil {
			t.Fatal(err)
		}
		const n = 500
		streamed, err := mStream.RunStream(genS, n)
		if err != nil {
			t.Fatal(err)
		}
		ran, err := mRun.Run(genR.Batch(n))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(streamed, ran) {
			t.Fatalf("%s: RunStream stats %+v, Run stats %+v", bm.Name, streamed, ran)
		}
		if FormatStats(streamed) != FormatStats(ran) {
			t.Fatalf("%s: rendered stats differ", bm.Name)
		}
		for _, r := range prog.Registers {
			a, _ := mStream.Register(r.Name)
			b, _ := mRun.Register(r.Name)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: register %s diverged: stream %v, run %v", bm.Name, r.Name, a, b)
			}
		}
	}
}

// TestExecSlotsMatchesExec compares the two ISA executors packet by packet:
// same resulting fields, same drop flag, same executed instruction count,
// same accumulated register state.
func TestExecSlotsMatchesExec(t *testing.T) {
	for _, bm := range Benchmarks() {
		prog, err := bm.Program()
		if err != nil {
			t.Fatal(err)
		}
		entries, err := bm.Entries(prog)
		if err != nil {
			t.Fatal(err)
		}
		mSlot, err := NewISAMachine(prog, nil, entries, bm.HW)
		if err != nil {
			t.Fatal(err)
		}
		mMap, err := NewISAMachine(prog, nil, entries, bm.HW)
		if err != nil {
			t.Fatal(err)
		}
		layout := mSlot.Layout()
		gen, err := NewTrafficGen(13, prog, bm.MaxInput)
		if err != nil {
			t.Fatal(err)
		}
		stats := &ISAStats{Stats: Stats{MemoryAccesses: map[string]int{}}}
		buf := make([]int64, layout.NumFields())
		for i := 0; i < 400; i++ {
			pkt := gen.Next()
			layout.PacketToSlots(pkt, buf)
			executedSlot, dropped, err := mSlot.ExecSlots(buf)
			if err != nil {
				t.Fatal(err)
			}
			executedMap, err := mMap.exec(pkt, stats)
			if err != nil {
				t.Fatal(err)
			}
			if executedSlot != executedMap {
				t.Fatalf("%s packet %d: slot executed %d instrs, map %d", bm.Name, i, executedSlot, executedMap)
			}
			if dropped != pkt.Dropped {
				t.Fatalf("%s packet %d: slot dropped=%v, map dropped=%v", bm.Name, i, dropped, pkt.Dropped)
			}
			if got, want := layout.FormatSlots(buf, dropped), FormatPacket(pkt); got != want {
				t.Fatalf("%s packet %d: slot %s, map %s", bm.Name, i, got, want)
			}
		}
		for _, r := range prog.Registers {
			a, _ := mSlot.Register(r.Name)
			b, _ := mMap.Register(r.Name)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: register %s diverged: slot %v, map %v", bm.Name, r.Name, a, b)
			}
		}
	}
}

// TestFormatSlotsMatchesFormatPacket pins the two canonical renderings to
// each other, drop flag included.
func TestFormatSlotsMatchesFormatPacket(t *testing.T) {
	prog, _ := loadL2L3(t)
	layout, err := NewSlotLayout(prog)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewTrafficGen(1, prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int64, layout.NumFields())
	for i := 0; i < 50; i++ {
		pkt := gen.Next()
		layout.PacketToSlots(pkt, buf)
		for _, dropped := range []bool{false, true} {
			pkt.Dropped = dropped
			if got, want := layout.FormatSlots(buf, dropped), FormatPacket(pkt); got != want {
				t.Fatalf("rendering diverged: slots %q, packet %q", got, want)
			}
		}
	}
}

// TestWideFaninSchedule pins the wide-DAG benchmark's shape: eight
// independent lane tables must feed the fold table, and the nine matches
// must not fit a single cycle of the tightened two-processor configuration
// (the schedule has to spread them across the period).
func TestWideFaninSchedule(t *testing.T) {
	bm, err := LookupBenchmark("wide-fanin")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := bm.Program()
	if err != nil {
		t.Fatal(err)
	}
	entries, err := bm.Entries(prog)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(prog, entries, bm.HW, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := m.Graph()
	fanin := 0
	for _, e := range g.Edges() {
		if e.To == "fold" {
			fanin++
		}
	}
	if fanin != 8 {
		t.Fatalf("fold has fan-in %d, want 8", fanin)
	}
	sched := m.Schedule()
	starts := map[int]int{}
	for _, ms := range sched.MatchStart {
		starts[ms]++
	}
	if len(starts) < 2 {
		t.Fatalf("all %d matches issued in one cycle; capacity was not stressed: %+v", len(sched.MatchStart), sched.MatchStart)
	}
	// The benchmark must also drop a measurable share of traffic (the
	// ternary fold entry) and still fuzz clean — checked by the registry
	// test; here we pin that drops actually occur.
	gen, err := NewTrafficGen(2, prog, bm.MaxInput)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.RunStream(gen, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped == 0 {
		t.Fatal("wide-fanin dropped no packets; the ternary toss entry never fired")
	}
}
