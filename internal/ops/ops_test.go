package ops

import (
	"math"
	"testing"

	"spkadd/internal/matrix"
)

func TestBuiltinsValid(t *testing.T) {
	for _, m := range Builtins {
		if !m.Valid() {
			t.Errorf("%s: not Valid", m.Name)
		}
	}
	var nilM *Monoid
	if nilM.Valid() {
		t.Error("nil monoid reported Valid")
	}
	if (&Monoid{Name: "noCombine"}).Valid() {
		t.Error("monoid without Combine reported Valid")
	}
}

// TestIdentityLaw checks Combine(Identity, v) == v for values each
// monoid can encounter (for Any/Count that is the post-MapInput
// domain, where every input is 1).
func TestIdentityLaw(t *testing.T) {
	for _, m := range Builtins {
		vals := []matrix.Value{-3.5, -1, 0.25, 2, 7}
		if m.MapInput != nil {
			mapped := vals[:0]
			for _, v := range vals {
				mapped = append(mapped, m.MapInput(v))
			}
			vals = mapped
		}
		for _, v := range vals {
			if got := m.Combine(m.Identity, v); got != v {
				t.Errorf("%s: Combine(identity, %v) = %v, want %v", m.Name, v, got, v)
			}
			if got := m.Combine(v, m.Identity); got != v {
				t.Errorf("%s: Combine(%v, identity) = %v, want %v", m.Name, v, got, v)
			}
		}
	}
}

// TestAssociativeCommutative spot-checks the algebraic laws the
// engines rely on over a small value grid.
func TestAssociativeCommutative(t *testing.T) {
	grid := []matrix.Value{-2, -0.5, 0, 1, 3}
	for _, m := range Builtins {
		for _, a := range grid {
			for _, b := range grid {
				if m.Combine(a, b) != m.Combine(b, a) {
					t.Fatalf("%s: not commutative at (%v, %v)", m.Name, a, b)
				}
				for _, c := range grid {
					if m.Combine(m.Combine(a, b), c) != m.Combine(a, m.Combine(b, c)) {
						t.Fatalf("%s: not associative at (%v, %v, %v)", m.Name, a, b, c)
					}
				}
			}
		}
	}
}

func TestMapInput(t *testing.T) {
	for _, m := range []*Monoid{Any, Count} {
		for _, v := range []matrix.Value{-7, 0.001, 42, math.Inf(1)} {
			if m.MapInput(v) != 1 {
				t.Errorf("%s: MapInput(%v) = %v, want 1", m.Name, v, m.MapInput(v))
			}
		}
	}
	if Plus.MapInput != nil || Min.MapInput != nil || Max.MapInput != nil {
		t.Error("numeric monoids must not map input values")
	}
}

func TestString(t *testing.T) {
	if Plus.String() != "Plus" || Count.String() != "Count" {
		t.Error("String does not report the name")
	}
	var nilM *Monoid
	if nilM.String() != "Plus" {
		t.Errorf("nil monoid String = %q, want Plus (the default)", nilM.String())
	}
}
