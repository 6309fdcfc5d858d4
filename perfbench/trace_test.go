package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scripted returns a clock that yields the given instants in order.
func scripted(ts ...int64) func() int64 {
	return func() int64 {
		v := ts[0]
		ts = ts[1:]
		return v
	}
}

func TestSelfTimeIsSpanMinusCoveredChildren(t *testing.T) {
	// op [0,100] holds a [10,30] and b [40,70]; b holds c [45,55].
	tr := newTracerClock(scripted(0, 10, 30, 40, 45, 55, 70, 100))
	op, a, b, c := tr.id("op"), tr.id("a"), tr.id("b"), tr.id("c")
	tr.begin(op)
	tr.begin(a)
	tr.end()
	tr.begin(b)
	tr.begin(c)
	tr.end()
	tr.end()
	tr.end()

	want := map[string]layerStat{
		"op": {calls: 1, total: 100, self: 100 - 20 - 30},
		"a":  {calls: 1, total: 20, self: 20},
		"b":  {calls: 1, total: 30, self: 30 - 10},
		"c":  {calls: 1, total: 10, self: 10},
	}
	for name, w := range want {
		if got := tr.stat(name); got != w {
			t.Errorf("%s: %+v, want %+v", name, got, w)
		}
	}
	if got := tr.selfPerCall("b"); got != 20 {
		t.Errorf("selfPerCall(b) = %v, want 20", got)
	}

	wantParents := []int32{-1, 0, 0, 2} // op, a, b, c in begin order
	for i, s := range tr.spans {
		if s.parent != wantParents[i] {
			t.Errorf("span %d (%s): parent %d, want %d", i, tr.names[s.name], s.parent, wantParents[i])
		}
	}
}

func TestSpansAreWrittenAtExit(t *testing.T) {
	tr := newTracerClock(scripted(5, 9))
	tr.setOp(3)
	tr.begin(tr.id("layer"))
	tr.end()
	path := filepath.Join(t.TempDir(), "spans.tsv")
	if err := tr.writeSpans(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 2 || lines[1] != "layer\t5\t9\t-1\t3" {
		t.Errorf("spans file:\n%s", b)
	}
}
