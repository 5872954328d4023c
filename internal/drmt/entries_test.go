package drmt

import (
	"testing"

	"druzhba/internal/p4"
)

// FuzzParseEntries: entries files arrive from outside (drmtsim -entries,
// drmtasm), so ParseEntries must never panic, and an accepted entry set
// must build a table-level machine that runs a zeroed packet through
// ProcessSlots without panicking. The input picks one embedded benchmark's
// program to validate against; each benchmark's own entries seed the
// corpus.
func FuzzParseEntries(f *testing.F) {
	bms := Benchmarks()
	progs := make([]*p4.Program, len(bms))
	for i, bm := range bms {
		prog, err := bm.Program()
		if err != nil {
			f.Fatal(err)
		}
		progs[i] = prog
		f.Add(uint8(i), bm.entries)
	}
	f.Fuzz(func(t *testing.T, bench uint8, text string) {
		i := int(bench) % len(bms)
		set, err := ParseEntriesString(text, progs[i])
		if err != nil {
			return
		}
		m, err := NewMachine(progs[i], set, bms[i].HW, nil)
		if err != nil {
			t.Fatalf("accepted entries fail machine build: %v", err)
		}
		m.ProcessSlots(make([]int64, m.Layout().NumFields()))
	})
}
