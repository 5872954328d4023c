package domino

import (
	"fmt"
	"math"
	"sort"

	"druzhba/internal/phv"
)

// FieldMap binds packet field names to PHV container indices, defining how a
// Domino program's packet view lays out in the pipeline's PHV.
type FieldMap map[string]int

// Containers returns the container indices in the map, sorted. These are the
// containers a fuzzing comparison should inspect when the spec is the
// source of truth for them.
func (f FieldMap) Containers() []int {
	out := make([]int, 0, len(f))
	for _, c := range f {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// WrittenContainers returns the containers bound to fields the program
// writes.
func WrittenContainers(p *Program, f FieldMap) ([]int, error) {
	var out []int
	for _, name := range p.WrittenFields() {
		c, ok := f[name]
		if !ok {
			return nil, fmt.Errorf("domino: written field %q is not bound to a container", name)
		}
		out = append(out, c)
	}
	sort.Ints(out)
	return out, nil
}

// PHVSpec adapts a Domino program to sim.Spec: inputs are PHVs whose
// containers are mapped to packet fields through a FieldMap. The program is
// compiled to closures over fixed slots when the spec is built, so
// processing a packet touches no maps.
type PHVSpec struct {
	prog *Program
	body stmtFunc

	names      []string // bound field names, sorted; field slot i is names[i]
	containers []int    // containers[i] is the container bound to names[i]
	minLen     int      // shortest PHV every binding fits in; MaxInt if one is negative

	init   []int64  // truncated initial state values, in declaration order
	locals []string // local names by index
	frame  frame
}

// NewPHVSpec validates that every field the program uses is bound, compiles
// the program and returns the adapter.
func NewPHVSpec(p *Program, fields FieldMap, w phv.Width) (*PHVSpec, error) {
	for _, name := range p.Fields() {
		if _, ok := fields[name]; !ok {
			return nil, fmt.Errorf("domino: field %q is not bound to a container", name)
		}
	}
	s := &PHVSpec{prog: p, names: make([]string, 0, len(fields))}
	for name := range fields {
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)
	s.containers = make([]int, len(s.names))
	for i, name := range s.names {
		c := fields[name]
		s.containers[i] = c
		switch {
		case c < 0:
			s.minLen = math.MaxInt
		case c >= s.minLen:
			s.minLen = c + 1
		}
	}
	body, locals, err := compileProgram(p, s.names, w)
	if err != nil {
		return nil, err
	}
	s.body, s.locals = body, locals
	s.init = make([]int64, len(p.States))
	for i, d := range p.States {
		s.init[i] = w.Trunc(d.Init)
	}
	s.frame = frame{
		slots: make([]int64, len(s.names)+len(p.States)+len(locals)),
		set:   make([]bool, len(locals)),
	}
	s.Reset()
	return s, nil
}

// Name implements sim.Spec.
func (s *PHVSpec) Name() string {
	if s.prog.Name != "" {
		return s.prog.Name
	}
	return "domino"
}

// Reset implements sim.Spec: every state variable returns to its declared
// initial value.
func (s *PHVSpec) Reset() { copy(s.frame.slots[len(s.names):], s.init) }

// State returns the current value of a state variable.
func (s *PHVSpec) State(name string) (int64, bool) {
	for i, d := range s.prog.States {
		if d.Name == name {
			return s.frame.slots[len(s.names)+i], true
		}
	}
	return 0, false
}

// Process implements sim.Spec: the input PHV's bound containers become
// packet fields, the transaction runs, and written fields are copied back
// to their containers (other containers pass through unchanged).
func (s *PHVSpec) Process(in *phv.PHV) (*phv.PHV, error) {
	out := in.Clone()
	if err := s.ProcessStream(out.Raw()); err != nil {
		return nil, err
	}
	return out, nil
}

// ProcessStream implements sim.StreamSpec: vals' bound containers become
// packet fields, the transaction runs, and field results are written back
// into vals in place, in sorted field-name order, so when two fields share
// a container the last name wins. On error nothing is written back.
//
//dvet:hotpath allocs=0
func (s *PHVSpec) ProcessStream(vals []phv.Value) error {
	if len(vals) < s.minLen {
		return s.bindingError(len(vals))
	}
	f := &s.frame
	for i, c := range s.containers {
		f.slots[i] = vals[c]
	}
	clear(f.set)
	f.bad = 0
	if !s.body(f) {
		return s.localError(f.bad - 1)
	}
	for i, c := range s.containers {
		vals[c] = f.slots[i]
	}
	return nil
}

// bindingError names the first binding, in sorted order, that does not fit
// a PHV of n containers.
func (s *PHVSpec) bindingError(n int) error {
	for i, c := range s.containers {
		if c < 0 || c >= n {
			return fmt.Errorf("domino: field %q bound to container %d, PHV has %d", s.names[i], c, n)
		}
	}
	return nil
}

func (s *PHVSpec) localError(j int) error {
	return fmt.Errorf("domino: local %q read before assignment", s.locals[j])
}
