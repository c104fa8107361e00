// Package nilflow is a golden-file fixture for the nilflow analyzer.
package nilflow

// Step is a transported payload; lookups return nil on a miss.
type Step struct {
	Size int64
	Data []byte
}

type cache struct{ m map[int64]*Step }

// find returns nil on a miss — the nilable source. The guarded comma-ok
// inside is NOT itself a nilable source (ok is bound and tested).
func (c *cache) find(k int64) *Step {
	if s, ok := c.m[k]; ok {
		return s
	}
	return nil
}

// consume dereferences its parameter without a guard, so its summary
// marks the parameter.
func consume(s *Step) int64 { return s.Size }

// newCount returns nil when disabled.
func newCount(on bool) *int64 {
	if !on {
		return nil
	}
	v := int64(0)
	return &v
}

// good guards before the dereference.
func good(c *cache) int64 {
	s := c.find(1)
	if s == nil {
		return 0
	}
	return s.Size
}

// goodNe guards with the positive form on the dereferencing branch.
func goodNe(c *cache) int64 {
	s := c.find(1)
	if s != nil {
		return s.Size
	}
	return 0
}

// goodReturnAnd guards inside a short-circuit that is not a branch
// condition: the right operand runs only when the left proves s non-nil.
func goodReturnAnd(c *cache) bool {
	s := c.find(1)
	return s != nil && s.Size > 0
}

// goodAssignOr is the || form in an assignment.
func goodAssignOr(c *cache) bool {
	s := c.find(1)
	empty := s == nil || s.Size == 0
	return empty
}

// goodNested guards through a negation and a nested conjunction.
func goodNested(c *cache, on bool) bool {
	s := c.find(1)
	return !(s == nil || !on) && s.Size > 0
}

// badGuardAfter checks too late: the left operand runs first.
func badGuardAfter(c *cache) bool {
	s := c.find(1)
	return s.Size > 0 && s != nil // want "may be nil"
}

// badAfterShortCircuit: the short-circuit proves nothing past itself,
// since s is nil whenever it is false.
func badAfterShortCircuit(c *cache) int64 {
	s := c.find(1)
	ok := s != nil && s.Size > 0
	_ = ok
	return s.Size // want "may be nil"
}

// badWrongBranch: the right operand of || runs when s != nil is false.
func badWrongBranch(c *cache) bool {
	s := c.find(1)
	return s != nil || s.Size > 0 // want "may be nil"
}

// bad dereferences the unchecked result.
func bad(c *cache) int64 {
	s := c.find(1)
	return s.Size // want "may be nil"
}

// badStar dereferences a possibly-nil pointer with *.
func badStar(on bool) int64 {
	n := newCount(on)
	return *n // want "may be nil"
}

// badCall passes the unchecked value to an unguarded dereferencer.
func badCall(c *cache) int64 {
	s := c.find(2)
	return consume(s) // want "dereferences the parameter unguarded"
}

// audited: an invariant the analysis cannot see (the key is always
// seeded at construction); the audit records why.
func audited(c *cache) int64 {
	s := c.find(3)
	//iocheck:allow nilflow fixture: key 3 is seeded at construction, audited
	return s.Size
}

// Sched stands in for fault.Schedule: a nil *Sched means "disabled", and
// the NilGuarded summary decides, method by method, whether a call on a
// possibly-nil value is safe.
type Sched struct {
	n    int
	down map[int]bool
}

// lookup returns nil when disabled.
func lookup(on bool) *Sched {
	if !on {
		return nil
	}
	return &Sched{}
}

// Guarded opens with the canonical guard.
func (s *Sched) Guarded() int {
	if s == nil {
		return 0
	}
	return s.n
}

// ShortCircuit guards inside a compound condition; the short-circuit
// makes the map read safe.
func (s *Sched) ShortCircuit(k int) bool {
	if s == nil || s.down[k] {
		return false
	}
	return true
}

// Delegates touches the receiver only through a guarded method.
func (s *Sched) Delegates() bool { return s.Guarded() > 0 }

// Chain delegates to a delegating method.
func (s *Sched) Chain() bool { return s.Delegates() }

// Enabled only compares the receiver with nil.
func (s *Sched) Enabled() bool { return s != nil }

// Anonymous cannot dereference a receiver it never names.
func (*Sched) Anonymous() int { return 7 }

func (s *Sched) Unguarded() int { return s.n }

// LateGuard dereferences before its check.
func (s *Sched) LateGuard(k int) bool {
	v := s.down[k]
	if s == nil {
		return false
	}
	return v
}

// DelegatesBadly delegates to a method that is not guarded.
func (s *Sched) DelegatesBadly() bool { return s.Unguarded() > 0 }

// ByValue copies the receiver, which dereferences a nil pointer before
// the body runs.
func (s Sched) ByValue() int { return s.n }

// nilSafe calls only methods whose summaries prove them NilGuarded.
func nilSafe(on bool) bool {
	s := lookup(on)
	return s.Guarded() > 0 && s.ShortCircuit(1) && s.Delegates() &&
		s.Chain() && s.Enabled() && s.Anonymous() > 0
}

func callsUnguarded(on bool) int {
	s := lookup(on)
	return s.Unguarded() // want "dereferenced via .Unguarded"
}

func callsLateGuard(on bool) bool {
	s := lookup(on)
	return s.LateGuard(1) // want "dereferenced via .LateGuard"
}

func callsDelegatesBadly(on bool) bool {
	s := lookup(on)
	return s.DelegatesBadly() // want "dereferenced via .DelegatesBadly"
}

func callsByValue(on bool) int {
	s := lookup(on)
	return s.ByValue() // want "dereferenced via .ByValue"
}
