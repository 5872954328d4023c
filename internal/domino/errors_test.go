package domino

import (
	"strings"
	"testing"

	"druzhba/internal/phv"
)

// TestParseErrorsMalformed drives the parser through malformed programs;
// every case must produce an error and never panic.
func TestParseErrorsMalformed(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"missing transaction", `state x = 0;`},
		{"two transactions", `transaction { pkt.a = 1; } transaction { pkt.b = 2; }`},
		{"state after transaction", `transaction { pkt.a = 1; } state x = 0;`},
		{"state missing init", `state x; transaction { pkt.a = x; }`},
		{"unterminated body", `transaction { pkt.a = 1;`},
		{"assign to literal", `transaction { 3 = pkt.a; }`},
		{"missing semicolon", `transaction { pkt.a = 1 }`},
		{"dangling operator", `transaction { pkt.a = 1 + ; }`},
		{"unbalanced paren", `transaction { pkt.a = (1 + 2; }`},
		{"if without cond", `transaction { if { pkt.a = 1; } }`},
		{"if unclosed", `transaction { if (pkt.a == 1) { pkt.b = 2; }`},
		{"else without if", `transaction { else { pkt.a = 1; } }`},
		{"garbage statement", `transaction { widget; }`},
		{"empty assignment target", `transaction { = 5; }`},
		{"bad state name", `state 7up = 0; transaction { pkt.a = 1; }`},
		{"assign to bare pkt", `transaction { pkt = 1; }`},
		{"duplicate state", `state x = 0; state x = 1; transaction { pkt.a = x; }`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.src); err == nil {
				t.Fatalf("malformed program accepted:\n%s", tc.src)
			}
		})
	}
}

// TestLocalReadBeforeAssignment: the interpreter rejects reading a local
// that no execution path has assigned.
func TestLocalReadBeforeAssignment(t *testing.T) {
	prog, err := Parse(`
transaction {
    if (pkt.a == 1) {
        int tmp = 5;
    }
    pkt.b = tmp;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(prog, phv.Default32)
	// Path that skips the assignment: tmp is unset.
	if err := m.Step(map[string]int64{"a": 0, "b": 0}); err == nil ||
		!strings.Contains(err.Error(), "before assignment") {
		t.Fatalf("want read-before-assignment error, got %v", err)
	}
	// Path that takes it succeeds.
	m.Reset()
	if err := m.Step(map[string]int64{"a": 1, "b": 0}); err != nil {
		t.Fatal(err)
	}
}

// TestStepMissingField: evaluating an unbound packet field is an error.
func TestStepMissingField(t *testing.T) {
	prog, err := Parse(`transaction { pkt.a = pkt.ghost; }`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(prog, phv.Default32)
	if err := m.Step(map[string]int64{"a": 0}); err == nil {
		t.Fatal("missing field should error")
	}
}

// TestPHVSpecBindingErrors covers the adapter's error paths.
func TestPHVSpecBindingErrors(t *testing.T) {
	prog, err := Parse(`transaction { pkt.a = pkt.b + 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPHVSpec(prog, FieldMap{"a": 0}, phv.Default32); err == nil {
		t.Fatal("unbound field b should be rejected")
	}
	spec, err := NewPHVSpec(prog, FieldMap{"a": 0, "b": 7}, phv.Default32)
	if err != nil {
		t.Fatal(err)
	}
	// Container 7 is out of range for a 2-container PHV.
	if _, err := spec.Process(phv.New(2)); err == nil {
		t.Fatal("out-of-range container should error at Process")
	}
}

// TestWrittenContainersUnboundField covers the error path.
func TestWrittenContainersUnboundField(t *testing.T) {
	prog, err := Parse(`transaction { pkt.a = 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WrittenContainers(prog, FieldMap{}); err == nil {
		t.Fatal("unbound written field should error")
	}
}

// TestPHVSpecAliasedFieldsLastNameWins: two fields bound to one container
// write back in sorted-name order, so the last name wins on every fresh
// spec, not a map-order-dependent one.
func TestPHVSpecAliasedFieldsLastNameWins(t *testing.T) {
	prog, err := Parse(`transaction { pkt.a = pkt.b + 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		spec, err := NewPHVSpec(prog, FieldMap{"a": 0, "b": 0}, phv.Default32)
		if err != nil {
			t.Fatal(err)
		}
		vals := []phv.Value{5}
		if err := spec.ProcessStream(vals); err != nil {
			t.Fatal(err)
		}
		if vals[0] != 5 {
			t.Fatalf("spec %d: container 0 = %d, want 5 (field b, last in sorted order, wins)", i, vals[0])
		}
	}
}

// TestPHVSpecOutOfRangeNamesFirstSorted: with several bindings out of
// range, the error names the first in sorted order.
func TestPHVSpecOutOfRangeNamesFirstSorted(t *testing.T) {
	prog, err := Parse(`transaction { pkt.a = pkt.b + 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	const want = `domino: field "a" bound to container 3, PHV has 2`
	for i := 0; i < 200; i++ {
		spec, err := NewPHVSpec(prog, FieldMap{"a": 3, "b": 4, "c": 5}, phv.Default32)
		if err != nil {
			t.Fatal(err)
		}
		vals := []phv.Value{7, 8}
		if err := spec.ProcessStream(vals); err == nil || err.Error() != want {
			t.Fatalf("spec %d: error %v, want %q", i, err, want)
		}
		if vals[0] != 7 || vals[1] != 8 {
			t.Fatalf("spec %d: failed call wrote %v", i, vals)
		}
	}
}

// TestPHVSpecLocalReadBeforeAssignment: the compiled spec reports an
// unassigned local with the interpreter's error and writes nothing back,
// while state written before the failing read persists.
func TestPHVSpecLocalReadBeforeAssignment(t *testing.T) {
	prog, err := Parse(`
state s = 0;

transaction {
    if (pkt.a == 1) {
        int tmp = 5;
    }
    s = s + 1;
    pkt.b = tmp;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := NewPHVSpec(prog, FieldMap{"a": 0, "b": 1}, phv.Default32)
	if err != nil {
		t.Fatal(err)
	}
	vals := []phv.Value{0, 9}
	if err := spec.ProcessStream(vals); err == nil || err.Error() != `domino: local "tmp" read before assignment` {
		t.Fatalf("want read-before-assignment error, got %v", err)
	}
	if vals[0] != 0 || vals[1] != 9 {
		t.Errorf("failed call wrote %v", vals)
	}
	if v, _ := spec.State("s"); v != 1 {
		t.Errorf("s = %d, want 1", v)
	}
	// The assigned bit is per packet: the next packet takes the branch.
	vals = []phv.Value{1, 9}
	if err := spec.ProcessStream(vals); err != nil || vals[1] != 5 {
		t.Fatalf("got %v, %v; want b = 5", vals, err)
	}
	// ... and the one after that must not see the previous packet's tmp.
	if err := spec.ProcessStream([]phv.Value{0, 9}); err == nil {
		t.Fatal("local assigned by an earlier packet leaked into this one")
	}
}
