package domino

import (
	"fmt"
	"sort"

	"druzhba/internal/phv"
)

// The tree-walking interpreter below is the reference semantics of Domino
// programs ("program spec" of Fig. 5). Production code runs the compiled
// form (compile.go); the differential tests and FuzzStep run this one.

// Machine executes a program packet by packet, maintaining state across
// packets. It is the reference semantics ("program spec" of Fig. 5).
type Machine struct {
	prog  *Program
	w     phv.Width
	state map[string]int64

	// locals is Step's scratch frame, reused across packets so steady-state
	// execution allocates nothing (the streaming fuzzer depends on this).
	locals map[string]int64
}

// NewMachine returns a machine with freshly initialized state.
func NewMachine(p *Program, w phv.Width) *Machine {
	m := &Machine{prog: p, w: w}
	m.Reset()
	return m
}

// Reset restores every state variable to its declared initial value.
func (m *Machine) Reset() {
	m.state = make(map[string]int64, len(m.prog.States))
	for _, s := range m.prog.States {
		m.state[s.Name] = m.w.Trunc(s.Init)
	}
}

// State returns the current value of a state variable.
func (m *Machine) State(name string) (int64, bool) {
	v, ok := m.state[name]
	return v, ok
}

// Step executes the transaction on one packet. fields maps packet field
// names to values; the map is mutated in place with the transaction's
// writes.
func (m *Machine) Step(fields map[string]int64) error {
	if m.locals == nil {
		m.locals = map[string]int64{}
	} else {
		clear(m.locals)
	}
	return m.exec(m.prog.Body, fields, m.locals)
}

func (m *Machine) exec(stmts []Stmt, fields, locals map[string]int64) error {
	for _, s := range stmts {
		switch s := s.(type) {
		case *Assign:
			v, err := m.eval(s.Expr, fields, locals)
			if err != nil {
				return err
			}
			switch s.Target.Kind {
			case TargetState:
				m.state[s.Target.Name] = v
			case TargetField:
				fields[s.Target.Name] = v
			case TargetLocal:
				locals[s.Target.Name] = v
			}
		case *If:
			c, err := m.eval(s.Cond, fields, locals)
			if err != nil {
				return err
			}
			if phv.Truthy(c) {
				if err := m.exec(s.Then, fields, locals); err != nil {
					return err
				}
			} else if s.Else != nil {
				if err := m.exec(s.Else, fields, locals); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("domino: unknown statement %T", s)
		}
	}
	return nil
}

func (m *Machine) eval(e Expr, fields, locals map[string]int64) (int64, error) {
	switch e := e.(type) {
	case *Lit:
		return m.w.Trunc(e.Value), nil
	case *Ref:
		switch e.Kind {
		case RefState:
			return m.state[e.Name], nil
		case RefField:
			v, ok := fields[e.Name]
			if !ok {
				return 0, fmt.Errorf("domino: packet has no field %q", e.Name)
			}
			return v, nil
		case RefLocal:
			v, ok := locals[e.Name]
			if !ok {
				return 0, fmt.Errorf("domino: local %q read before assignment", e.Name)
			}
			return v, nil
		}
		return 0, fmt.Errorf("domino: bad reference kind %d", e.Kind)
	case *Un:
		x, err := m.eval(e.X, fields, locals)
		if err != nil {
			return 0, err
		}
		if e.Neg {
			return m.w.Trunc(-x), nil
		}
		return phv.Bool(x == 0), nil
	case *Bin:
		// Short-circuit logicals.
		switch e.Op {
		case BAnd:
			x, err := m.eval(e.X, fields, locals)
			if err != nil {
				return 0, err
			}
			if !phv.Truthy(x) {
				return 0, nil
			}
			y, err := m.eval(e.Y, fields, locals)
			if err != nil {
				return 0, err
			}
			return phv.Bool(phv.Truthy(y)), nil
		case BOr:
			x, err := m.eval(e.X, fields, locals)
			if err != nil {
				return 0, err
			}
			if phv.Truthy(x) {
				return 1, nil
			}
			y, err := m.eval(e.Y, fields, locals)
			if err != nil {
				return 0, err
			}
			return phv.Bool(phv.Truthy(y)), nil
		}
		x, err := m.eval(e.X, fields, locals)
		if err != nil {
			return 0, err
		}
		y, err := m.eval(e.Y, fields, locals)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case BAdd:
			return m.w.Add(x, y), nil
		case BSub:
			return m.w.Sub(x, y), nil
		case BMul:
			return m.w.Mul(x, y), nil
		case BDiv:
			return m.w.Div(x, y), nil
		case BMod:
			return m.w.Mod(x, y), nil
		case BEq:
			return phv.Bool(x == y), nil
		case BNeq:
			return phv.Bool(x != y), nil
		case BLt:
			return phv.Bool(x < y), nil
		case BGt:
			return phv.Bool(x > y), nil
		case BLe:
			return phv.Bool(x <= y), nil
		case BGe:
			return phv.Bool(x >= y), nil
		}
		return 0, fmt.Errorf("domino: unknown operator %d", e.Op)
	default:
		return 0, fmt.Errorf("domino: unknown expression %T", e)
	}
}

// RefSpec runs the interpreter under PHVSpec's binding rules, as the
// reference the compiled spec is checked against: fields are gathered and
// written back in sorted-name order, the first out-of-range binding in
// that order is reported, and nothing is written back on error.
type RefSpec struct {
	m      *Machine
	fields FieldMap
	names  []string
	frame  map[string]int64
}

// NewRefSpec returns a reference spec with freshly initialized state.
func NewRefSpec(p *Program, fields FieldMap, w phv.Width) *RefSpec {
	r := &RefSpec{m: NewMachine(p, w), fields: fields, frame: map[string]int64{}}
	for name := range fields {
		r.names = append(r.names, name)
	}
	sort.Strings(r.names)
	return r
}

// Reset restores every state variable to its initial value.
func (r *RefSpec) Reset() { r.m.Reset() }

// State returns the current value of a state variable.
func (r *RefSpec) State(name string) (int64, bool) { return r.m.State(name) }

// ProcessStream runs the transaction on vals in place.
func (r *RefSpec) ProcessStream(vals []phv.Value) error {
	for _, name := range r.names {
		c := r.fields[name]
		if c < 0 || c >= len(vals) {
			return fmt.Errorf("domino: field %q bound to container %d, PHV has %d", name, c, len(vals))
		}
		r.frame[name] = vals[c]
	}
	if err := r.m.Step(r.frame); err != nil {
		return err
	}
	for _, name := range r.names {
		vals[r.fields[name]] = r.frame[name]
	}
	return nil
}

// SamplingSrc is FuzzStep's seed program, exported to the external tests.
var SamplingSrc = samplingSrc
