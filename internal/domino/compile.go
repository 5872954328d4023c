package domino

import (
	"fmt"

	"druzhba/internal/phv"
)

// frame holds the slots one compiled program runs over: first the bound
// fields in sorted-name order, then the state variables in declaration
// order, then the locals in order of first appearance in the body.
type frame struct {
	slots []int64
	set   []bool // set[j]: local j was assigned during this packet
	bad   int    // 1 + index of the first local read before assignment, or 0
}

// exprFunc evaluates one compiled expression.
type exprFunc func(f *frame) int64

// stmtFunc executes compiled statements; it reports false when a read of an
// unassigned local aborted the transaction (f.bad names the local).
type stmtFunc func(f *frame) bool

// compiler lowers a program's AST to closures over a frame, mirroring how
// core.compileALUBody compiles aludsl: the same phv.Width ops and the same
// short-circuit && and ||.
type compiler struct {
	w          phv.Width
	fields     map[string]int // name -> slot
	states     map[string]int // name -> slot
	locals     map[string]int // name -> index j; its slot is localBase+j
	localBase  int
	localNames []string
}

// compileProgram compiles p's body against a frame whose first slots are
// the given fields. It returns the body and the local names by index.
func compileProgram(p *Program, fields []string, w phv.Width) (stmtFunc, []string, error) {
	c := &compiler{w: w, fields: map[string]int{}, states: map[string]int{}, locals: map[string]int{}}
	for i, name := range fields {
		c.fields[name] = i
	}
	for i, s := range p.States {
		c.states[s.Name] = len(fields) + i
	}
	c.localBase = len(fields) + len(p.States)
	body, err := c.block(p.Body)
	if err != nil {
		return nil, nil, err
	}
	return body, c.localNames, nil
}

// local returns the index of a local, allocating the next one on first
// appearance.
func (c *compiler) local(name string) int {
	j, ok := c.locals[name]
	if !ok {
		j = len(c.localNames)
		c.locals[name] = j
		c.localNames = append(c.localNames, name)
	}
	return j
}

func (c *compiler) field(name string) (int, error) {
	i, ok := c.fields[name]
	if !ok {
		return 0, fmt.Errorf("domino: packet has no field %q", name)
	}
	return i, nil
}

func (c *compiler) state(name string) (int, error) {
	i, ok := c.states[name]
	if !ok {
		return 0, fmt.Errorf("domino: undeclared state %q", name)
	}
	return i, nil
}

func (c *compiler) block(stmts []Stmt) (stmtFunc, error) {
	fns := make([]stmtFunc, len(stmts))
	for i, s := range stmts {
		fn, err := c.stmt(s)
		if err != nil {
			return nil, err
		}
		fns[i] = fn
	}
	switch len(fns) {
	case 0:
		return func(*frame) bool { return true }, nil
	case 1:
		return fns[0], nil
	}
	return func(f *frame) bool {
		for _, fn := range fns {
			if !fn(f) {
				return false
			}
		}
		return true
	}, nil
}

func (c *compiler) stmt(s Stmt) (stmtFunc, error) {
	switch s := s.(type) {
	case *Assign:
		return c.assign(s)
	case *If:
		cond, err := c.expr(s.Cond)
		if err != nil {
			return nil, err
		}
		then, err := c.block(s.Then)
		if err != nil {
			return nil, err
		}
		els, err := c.block(s.Else)
		if err != nil {
			return nil, err
		}
		return func(f *frame) bool {
			v := cond(f)
			if f.bad != 0 {
				return false
			}
			if phv.Truthy(v) {
				return then(f)
			}
			return els(f)
		}, nil
	default:
		return nil, fmt.Errorf("domino: unknown statement %T", s)
	}
}

// assign compiles a store. The right-hand side is evaluated first and the
// store is skipped when it read an unassigned local, as in the interpreter.
func (c *compiler) assign(s *Assign) (stmtFunc, error) {
	var (
		i   int
		j   = -1 // local index when the target is a local
		err error
	)
	switch s.Target.Kind {
	case TargetState:
		i, err = c.state(s.Target.Name)
	case TargetField:
		i, err = c.field(s.Target.Name)
	case TargetLocal:
		j = c.local(s.Target.Name)
		i = c.localBase + j
	default:
		err = fmt.Errorf("domino: bad target kind %d", s.Target.Kind)
	}
	if err != nil {
		return nil, err
	}
	rhs, err := c.expr(s.Expr)
	if err != nil {
		return nil, err
	}
	if j < 0 {
		return func(f *frame) bool {
			v := rhs(f)
			if f.bad != 0 {
				return false
			}
			f.slots[i] = v
			return true
		}, nil
	}
	return func(f *frame) bool {
		v := rhs(f)
		if f.bad != 0 {
			return false
		}
		f.slots[i] = v
		f.set[j] = true
		return true
	}, nil
}

func (c *compiler) expr(e Expr) (exprFunc, error) {
	switch e := e.(type) {
	case *Lit:
		v := c.w.Trunc(e.Value)
		return func(*frame) int64 { return v }, nil
	case *Ref:
		var (
			i   int
			err error
		)
		switch e.Kind {
		case RefState:
			i, err = c.state(e.Name)
		case RefField:
			i, err = c.field(e.Name)
		case RefLocal:
			j := c.local(e.Name)
			i = c.localBase + j
			return func(f *frame) int64 {
				if !f.set[j] {
					if f.bad == 0 {
						f.bad = j + 1
					}
					return 0
				}
				return f.slots[i]
			}, nil
		default:
			err = fmt.Errorf("domino: bad reference kind %d", e.Kind)
		}
		if err != nil {
			return nil, err
		}
		return func(f *frame) int64 { return f.slots[i] }, nil
	case *Un:
		x, err := c.expr(e.X)
		if err != nil {
			return nil, err
		}
		w := c.w
		if e.Neg {
			return func(f *frame) int64 { return w.Trunc(-x(f)) }, nil
		}
		return func(f *frame) int64 { return phv.Bool(x(f) == 0) }, nil
	case *Bin:
		return c.bin(e)
	default:
		return nil, fmt.Errorf("domino: unknown expression %T", e)
	}
}

func (c *compiler) bin(e *Bin) (exprFunc, error) {
	x, err := c.expr(e.X)
	if err != nil {
		return nil, err
	}
	y, err := c.expr(e.Y)
	if err != nil {
		return nil, err
	}
	w := c.w
	switch e.Op {
	case BAdd:
		return func(f *frame) int64 { return w.Add(x(f), y(f)) }, nil
	case BSub:
		return func(f *frame) int64 { return w.Sub(x(f), y(f)) }, nil
	case BMul:
		return func(f *frame) int64 { return w.Mul(x(f), y(f)) }, nil
	case BDiv:
		return func(f *frame) int64 { return w.Div(x(f), y(f)) }, nil
	case BMod:
		return func(f *frame) int64 { return w.Mod(x(f), y(f)) }, nil
	case BEq:
		return func(f *frame) int64 { return phv.Bool(x(f) == y(f)) }, nil
	case BNeq:
		return func(f *frame) int64 { return phv.Bool(x(f) != y(f)) }, nil
	case BLt:
		return func(f *frame) int64 { return phv.Bool(x(f) < y(f)) }, nil
	case BGt:
		return func(f *frame) int64 { return phv.Bool(x(f) > y(f)) }, nil
	case BLe:
		return func(f *frame) int64 { return phv.Bool(x(f) <= y(f)) }, nil
	case BGe:
		return func(f *frame) int64 { return phv.Bool(x(f) >= y(f)) }, nil
	case BAnd:
		return func(f *frame) int64 {
			if !phv.Truthy(x(f)) {
				return 0
			}
			return phv.Bool(phv.Truthy(y(f)))
		}, nil
	case BOr:
		return func(f *frame) int64 {
			if phv.Truthy(x(f)) {
				return 1
			}
			return phv.Bool(phv.Truthy(y(f)))
		}, nil
	}
	return nil, fmt.Errorf("domino: unknown operator %d", e.Op)
}
