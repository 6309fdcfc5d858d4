package trace

import (
	"testing"
)

func TestOpString(t *testing.T) {
	cases := []struct {
		op   Op
		want string
	}{
		{ST(1, 2, 3), "ST(P1,B2,3)"},
		{LD(2, 1, Bottom), "LD(P2,B1,⊥)"},
		{LD(7, 9, 4), "LD(P7,B9,4)"},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestOpKindString(t *testing.T) {
	if Load.String() != "LD" || Store.String() != "ST" {
		t.Fatalf("unexpected kind strings: %s %s", Load, Store)
	}
	if got := OpKind(9).String(); got != "OpKind(9)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestOpPredicates(t *testing.T) {
	if !ST(1, 1, 1).IsStore() || ST(1, 1, 1).IsLoad() {
		t.Error("store predicates wrong")
	}
	if !LD(1, 1, 1).IsLoad() || LD(1, 1, 1).IsStore() {
		t.Error("load predicates wrong")
	}
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{2, 2, 2}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	for _, bad := range []Params{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 2, 2}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("params %+v accepted, want error", bad)
		}
	}
}

func TestParamsContains(t *testing.T) {
	p := Params{Procs: 2, Blocks: 3, Values: 4}
	cases := []struct {
		op   Op
		want bool
	}{
		{ST(1, 1, 1), true},
		{ST(2, 3, 4), true},
		{ST(3, 1, 1), false},      // proc out of range
		{ST(1, 4, 1), false},      // block out of range
		{ST(1, 1, 5), false},      // value out of range
		{ST(1, 1, Bottom), false}, // stores never write ⊥
		{LD(1, 1, Bottom), true},  // loads may return ⊥
		{LD(2, 3, 4), true},
		{LD(0, 1, 1), false},
	}
	for _, c := range cases {
		if got := p.Contains(c.op); got != c.want {
			t.Errorf("Contains(%s) = %v, want %v", c.op, got, c.want)
		}
	}
}

func TestParamsString(t *testing.T) {
	if got := (Params{2, 3, 4}).String(); got != "p=2 b=3 v=4" {
		t.Errorf("Params.String() = %q", got)
	}
}

func TestTraceString(t *testing.T) {
	tr := Trace{ST(1, 1, 1), LD(2, 1, 1)}
	want := "ST(P1,B1,1), LD(P2,B1,1)"
	if got := tr.String(); got != want {
		t.Errorf("Trace.String() = %q, want %q", got, want)
	}
	if got := (Trace{}).String(); got != "" {
		t.Errorf("empty Trace.String() = %q", got)
	}
}

func TestTraceClone(t *testing.T) {
	tr := Trace{ST(1, 1, 1), LD(2, 1, 1)}
	cl := tr.Clone()
	cl[0].Value = 9
	if tr[0].Value != 1 {
		t.Error("Clone aliases underlying array")
	}
}

func TestTraceProcsBlocks(t *testing.T) {
	tr := Trace{ST(3, 2, 1), LD(1, 5, 1)}
	if tr.Procs() != 3 {
		t.Errorf("Procs() = %d, want 3", tr.Procs())
	}
	if tr.Blocks() != 5 {
		t.Errorf("Blocks() = %d, want 5", tr.Blocks())
	}
	if (Trace{}).Procs() != 0 || (Trace{}).Blocks() != 0 {
		t.Error("empty trace should report 0 procs/blocks")
	}
}

func TestCompact(t *testing.T) {
	tr := Trace{ST(1<<40, 7, 1), LD(-3, 7, 1), ST(1<<40, -2, 2), LD(9, -2, Bottom)}
	got, procs := tr.Compact()
	want := Trace{ST(3, 2, 1), LD(1, 2, 1), ST(3, 1, 2), LD(2, 1, Bottom)}
	if got.String() != want.String() {
		t.Errorf("Compact = %v, want %v", got, want)
	}
	if len(procs) != 4 || procs[1] != -3 || procs[2] != 9 || procs[3] != 1<<40 {
		t.Errorf("original processor IDs = %v, want [0 -3 9 %d]", procs, 1<<40)
	}
	if tr[0].Proc != 1<<40 {
		t.Error("Compact modified its receiver")
	}
}

func TestByProc(t *testing.T) {
	tr := Trace{ST(1, 1, 1), ST(2, 1, 2), LD(1, 1, 2), LD(2, 1, 2)}
	bp := tr.ByProc()
	if len(bp) != 3 {
		t.Fatalf("ByProc length = %d, want 3", len(bp))
	}
	if len(bp[1]) != 2 || bp[1][0] != 0 || bp[1][1] != 2 {
		t.Errorf("proc 1 positions = %v", bp[1])
	}
	if len(bp[2]) != 2 || bp[2][0] != 1 || bp[2][1] != 3 {
		t.Errorf("proc 2 positions = %v", bp[2])
	}
}
