package deps

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustEq(t *testing.T, s *System, coefs map[string]int64, c int64) {
	t.Helper()
	if err := s.AddEq(coefs, c); err != nil {
		t.Fatal(err)
	}
}

func mustGeq(t *testing.T, s *System, coefs map[string]int64, c int64) {
	t.Helper()
	if err := s.AddGeq(coefs, c); err != nil {
		t.Fatal(err)
	}
}

func mustBounds(t *testing.T, s *System, name string, lo, hi int64) {
	t.Helper()
	if err := s.AddBounds(name, lo, hi); err != nil {
		t.Fatal(err)
	}
}

func TestTriviallyFeasible(t *testing.T) {
	s := NewSystem("x")
	mustBounds(t, s, "x", 0, 10)
	if !s.Feasible() {
		t.Fatal("0<=x<=10 should be feasible")
	}
}

func TestEmptyInterval(t *testing.T) {
	s := NewSystem("x")
	mustGeq(t, s, map[string]int64{"x": 1}, -10) // x >= 10
	mustGeq(t, s, map[string]int64{"x": -1}, 5)  // x <= 5
	if s.Feasible() {
		t.Fatal("10 <= x <= 5 should be infeasible")
	}
}

func TestGCDScreen(t *testing.T) {
	// 2x + 4y == 1 has no integer solution.
	s := NewSystem("x", "y")
	mustEq(t, s, map[string]int64{"x": 2, "y": 4}, -1)
	mustBounds(t, s, "x", -100, 100)
	mustBounds(t, s, "y", -100, 100)
	if s.Feasible() {
		t.Fatal("2x+4y=1 should fail the GCD screen")
	}
}

func TestEqualitySubstitution(t *testing.T) {
	// x == y+1, x <= 3, y >= 3 -> y=3, x=4 > 3: infeasible.
	s := NewSystem("x", "y")
	mustEq(t, s, map[string]int64{"x": 1, "y": -1}, -1) // x - y - 1 == 0
	mustGeq(t, s, map[string]int64{"x": -1}, 3)         // x <= 3
	mustGeq(t, s, map[string]int64{"y": 1}, -3)         // y >= 3
	if s.Feasible() {
		t.Fatal("x=y+1, x<=3, y>=3 should be infeasible")
	}
	// Relax: y >= 2 -> y=2, x=3: feasible.
	s2 := NewSystem("x", "y")
	mustEq(t, s2, map[string]int64{"x": 1, "y": -1}, -1)
	mustGeq(t, s2, map[string]int64{"x": -1}, 3)
	mustGeq(t, s2, map[string]int64{"y": 1}, -2)
	if !s2.Feasible() {
		t.Fatal("x=y+1, x<=3, y>=2 should be feasible")
	}
}

func TestChainOfVariables(t *testing.T) {
	// x < y < z within [0, 2] forces x=0, y=1, z=2: feasible; with
	// [0, 1] it is infeasible.
	build := func(hi int64) *System {
		s := NewSystem("x", "y", "z")
		for _, v := range []string{"x", "y", "z"} {
			if err := s.AddBounds(v, 0, hi); err != nil {
				t.Fatal(err)
			}
		}
		// y - x - 1 >= 0, z - y - 1 >= 0 (strict integer <).
		if err := s.AddGeq(map[string]int64{"y": 1, "x": -1}, -1); err != nil {
			t.Fatal(err)
		}
		if err := s.AddGeq(map[string]int64{"z": 1, "y": -1}, -1); err != nil {
			t.Fatal(err)
		}
		return s
	}
	if !build(2).Feasible() {
		t.Fatal("x<y<z in [0,2] should be feasible")
	}
	if build(1).Feasible() {
		t.Fatal("x<y<z in [0,1] should be infeasible")
	}
}

func TestDependenceStyleSystem(t *testing.T) {
	// Classic flow-dependence question: exists i, i' in [0, N) with
	// 2i == 2i'+1? Never (parity).
	s := NewSystem("i", "i2")
	mustBounds(t, s, "i", 0, 99)
	mustBounds(t, s, "i2", 0, 99)
	mustEq(t, s, map[string]int64{"i": 2, "i2": -2}, -1)
	if s.Feasible() {
		t.Fatal("A[2i] vs A[2i'+1] should never alias")
	}
}

func TestUnknownVariable(t *testing.T) {
	s := NewSystem("x")
	if err := s.AddEq(map[string]int64{"zz": 1}, 0); err == nil {
		t.Fatal("unknown variable should error")
	}
}

// Property: cross-check Feasible against brute-force enumeration on small
// random systems.
func TestFeasibleMatchesBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nv := 2 + r.Intn(2)
		names := []string{"a", "b", "c"}[:nv]
		s := NewSystem(names...)
		lo, hi := int64(0), int64(4+r.Intn(4))
		for _, n := range names {
			if err := s.AddBounds(n, lo, hi); err != nil {
				return false
			}
		}
		type con struct {
			coefs map[string]int64
			c     int64
			eq    bool
		}
		var cons []con
		nc := 1 + r.Intn(3)
		for i := 0; i < nc; i++ {
			coefs := map[string]int64{}
			for _, n := range names {
				coefs[n] = int64(r.Intn(5) - 2)
			}
			c := int64(r.Intn(11) - 5)
			eq := r.Intn(3) == 0
			cons = append(cons, con{coefs, c, eq})
			if eq {
				if err := s.AddEq(coefs, c); err != nil {
					return false
				}
			} else if err := s.AddGeq(coefs, c); err != nil {
				return false
			}
		}

		// Brute force over the box.
		vals := make([]int64, nv)
		var found bool
		var rec func(int)
		rec = func(d int) {
			if found {
				return
			}
			if d == nv {
				for _, cn := range cons {
					sum := cn.c
					for i, n := range names {
						sum += cn.coefs[n] * vals[i]
					}
					if cn.eq && sum != 0 {
						return
					}
					if !cn.eq && sum < 0 {
						return
					}
				}
				found = true
				return
			}
			for v := lo; v <= hi; v++ {
				vals[d] = v
				rec(d + 1)
			}
		}
		rec(0)

		got := s.Feasible()
		if found && !got {
			return false // unsound: claimed infeasible with a witness
		}
		// got && !found is allowed (rational-only solution), but should
		// be rare; accept it.
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
