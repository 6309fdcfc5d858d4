package trace

import (
	"testing"
	"testing/quick"
)

// figure1Trace builds the message-passing program of Figure 1 with the
// given load results: P1 stores x←1 then y←2; P2 loads y into r2 then x
// into r1. Block 1 is x, block 2 is y.
func figure1Trace(r2, r1 Value) Trace {
	return Trace{
		ST(1, 1, 1),  // time 1: P1 stores 1 to x
		ST(1, 2, 2),  // time 2: P1 stores 2 to y
		LD(2, 2, r2), // time 3: P2 loads y into r2
		LD(2, 1, r1), // time 4: P2 loads x into r1
	}
}

func TestFigure1Outcomes(t *testing.T) {
	// Figure 1: under sequential consistency r1=1,r2=2 and r1=0,r2=0 and
	// r1=1,r2=0 are legal, but r1=0,r2=2 is not.
	cases := []struct {
		r1, r2 Value
		wantSC bool
	}{
		{1, 2, true},
		{Bottom, Bottom, true},
		{1, Bottom, true},
		{Bottom, 2, false},
	}
	for _, c := range cases {
		tr := figure1Trace(c.r2, c.r1)
		if got := HasSerialReordering(tr); got != c.wantSC {
			t.Errorf("Figure 1 outcome r1=%d r2=%d: SC=%v, want %v", c.r1, c.r2, got, c.wantSC)
		}
		// The same trace with IDs a decoded stream may carry: the search
		// must size nothing by them and return the same reordering.
		want, _ := FindSerialReordering(tr)
		got, ok := FindSerialReordering(spreadIDs(tr))
		if ok != c.wantSC || len(got) != len(want) {
			t.Fatalf("Figure 1 outcome r1=%d r2=%d with spread IDs: reordering %v (SC=%v), want %v", c.r1, c.r2, got, ok, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Figure 1 outcome r1=%d r2=%d with spread IDs: reordering %v, want %v", c.r1, c.r2, got, want)
			}
		}
	}
}

// spreadIDs renames processor p to p<<40 and block b to b-1000, keeping
// both orders: IDs as large or as negative as a wire decoder yields.
func spreadIDs(tr Trace) Trace {
	out := tr.Clone()
	for i := range out {
		out[i].Proc <<= 40
		out[i].Block -= 1000
	}
	return out
}

func TestFindSerialReorderingEmpty(t *testing.T) {
	r, ok := FindSerialReordering(Trace{})
	if !ok || len(r) != 0 {
		t.Errorf("empty trace: got %v, %v", r, ok)
	}
}

func TestFindSerialReorderingSerialInput(t *testing.T) {
	tr := Trace{ST(1, 1, 1), LD(2, 1, 1), ST(2, 2, 3), LD(1, 2, 3)}
	r, ok := FindSerialReordering(tr)
	if !ok {
		t.Fatal("serial trace reported not SC")
	}
	if !r.IsSerialReordering(tr) {
		t.Errorf("returned reordering %v is not serial", r)
	}
}

func TestFindSerialReorderingNeedsReorder(t *testing.T) {
	// The load of ⊥ must be moved before the store.
	tr := Trace{ST(1, 1, 1), LD(2, 1, Bottom)}
	r, ok := FindSerialReordering(tr)
	if !ok {
		t.Fatal("SC trace reported not SC")
	}
	if !r.IsSerialReordering(tr) {
		t.Errorf("reordering %v invalid", r)
	}
}

func TestFindSerialReorderingRejects(t *testing.T) {
	// Load of a value never stored.
	if HasSerialReordering(Trace{LD(1, 1, 3)}) {
		t.Error("impossible load accepted")
	}
	// Classic IRIW-like violation with 2 writers: both readers see the two
	// stores to the same block in opposite orders.
	tr := Trace{
		ST(1, 1, 1), ST(2, 1, 2),
		LD(3, 1, 1), LD(3, 1, 2), // P3 sees 1 then 2
		LD(4, 1, 2), LD(4, 1, 1), // P4 sees 2 then 1
	}
	if HasSerialReordering(tr) {
		t.Error("coherence violation accepted")
	}
}

func TestFindSerialReorderingAgreesWithGeneratedSC(t *testing.T) {
	g := NewGenerator(Params{Procs: 3, Blocks: 2, Values: 3}, 1)
	for i := 0; i < 50; i++ {
		tr := g.SC(14)
		r, ok := FindSerialReordering(tr)
		if !ok {
			t.Fatalf("iteration %d: generated SC trace rejected: %s", i, tr)
		}
		if !r.IsSerialReordering(tr) {
			t.Fatalf("iteration %d: invalid witness %v for %s", i, r, tr)
		}
	}
}

func TestFindSerialReorderingPropertyWitnessValid(t *testing.T) {
	// Property: whenever a reordering is returned it is a genuine serial
	// reordering; whenever the answer is false, the identity and all
	// single-swap reorderings are non-serial (a weak sanity cross-check).
	cfg := &quick.Config{MaxCount: 60}
	g := NewGenerator(Params{Procs: 2, Blocks: 2, Values: 2}, 7)
	prop := func(seed uint8) bool {
		tr := g.SC(10)
		if m, okm := g.Mutate(tr); okm && int(seed)%3 == 0 {
			tr = m
		}
		r, ok := FindSerialReordering(tr)
		if ok {
			return r.IsSerialReordering(tr)
		}
		return !tr.IsSerial() // if no reordering exists, identity surely fails
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestStoreOrderAndInheritanceMap(t *testing.T) {
	tr := Trace{ST(1, 1, 1), ST(2, 1, 2), LD(1, 1, 2), LD(2, 2, Bottom)}
	r, ok := FindSerialReordering(tr)
	if !ok {
		t.Fatal("trace should be SC")
	}
	so := r.StoreOrder(tr)
	if len(so[1]) != 2 {
		t.Fatalf("store order for block 1 = %v", so[1])
	}
	// ST(P1,B1,1) must come before ST(P2,B1,2) since the load sees 2 after
	// program-order position of P1's store... verify via inheritance map.
	inh := r.InheritanceMap(tr)
	if inh[2] != 1 {
		t.Errorf("load at pos 2 inherits from %d, want 1", inh[2])
	}
	if _, ok := inh[3]; ok {
		t.Error("bottom load should not appear in inheritance map")
	}
}

func TestGeneratorSerialIsSerial(t *testing.T) {
	g := NewGenerator(Params{Procs: 4, Blocks: 3, Values: 4}, 42)
	for i := 0; i < 20; i++ {
		tr := g.Serial(30)
		if !tr.IsSerial() {
			t.Fatalf("Generator.Serial produced non-serial trace: %s", tr)
		}
	}
}

func TestGeneratorSCIsSC(t *testing.T) {
	g := NewGenerator(Params{Procs: 3, Blocks: 2, Values: 2}, 43)
	for i := 0; i < 20; i++ {
		tr := g.SC(12)
		if !HasSerialReordering(tr) {
			t.Fatalf("Generator.SC produced non-SC trace: %s", tr)
		}
	}
}

func TestGeneratorMutateChangesALoad(t *testing.T) {
	g := NewGenerator(Params{Procs: 2, Blocks: 2, Values: 3}, 44)
	tr := g.SC(10)
	m, ok := g.Mutate(tr)
	if !ok {
		t.Skip("no loads in generated trace")
	}
	diff := 0
	for i := range tr {
		if tr[i] != m[i] {
			diff++
			if !tr[i].IsLoad() {
				t.Error("mutation touched a store")
			}
		}
	}
	if diff != 1 {
		t.Errorf("mutation changed %d ops, want 1", diff)
	}
}

func TestGeneratorMutateNoLoads(t *testing.T) {
	g := NewGenerator(Params{Procs: 1, Blocks: 1, Values: 1}, 45)
	tr := Trace{ST(1, 1, 1)}
	m, ok := g.Mutate(tr)
	if ok {
		t.Error("Mutate reported success with no loads")
	}
	if len(m) != 1 || m[0] != tr[0] {
		t.Error("Mutate should return an unchanged clone")
	}
}

func TestGeneratorMutateSingleValueDomain(t *testing.T) {
	g := NewGenerator(Params{Procs: 1, Blocks: 1, Values: 1}, 46)
	tr := Trace{ST(1, 1, 1), LD(1, 1, 1)}
	m, ok := g.Mutate(tr)
	if !ok {
		t.Fatal("Mutate failed")
	}
	if m[1].Value == tr[1].Value {
		t.Error("Mutate did not change the load value in a 1-value domain")
	}
}
