// Command perfbench is the repository's benchmark: it times the three user
// paths of the checker end to end, and, in a separate traced run, each
// layer of the pipeline behind them.
//
// Workloads (inputs are generated from -seed; every verdict is checked
// against a known answer and a wrong verdict or an error is a failed op):
//
//   - explore: mc.Verify on pinned protocol configurations (state counts,
//     transition counts, verdicts and the counterexample replay are all
//     checked). Dominated by observer/checker cloning, product keys and
//     fingerprints.
//   - session: one in-process scserve server on loopback and one client
//     running sessions back to back (a closed loop with one client). Long
//     descriptor streams at steady k behind the wire codec.
//   - history: history.ParseJSONL → history.Lower → Lowering.Check over a
//     corpus of generated histories. Parsing and lowering dominate.
//
// With -trace 0 the run sets up the named workload several times (setup_s
// is the median), makes one untimed warm-up pass, then times whole passes
// for -seconds, each after runtime.GC(). It reports setup_s, pass_s,
// op_p50_ms, op_p90_ms and alloc_mb. With -trace 1 it profiles every
// workload, the named one first: one untraced and one traced pass each,
// reporting each layer's self time per call, counts at the layer
// boundaries, and the tracing overhead (traced minus untraced pass_s;
// noise can make it negative where tracing costs little). It ignores
// -seconds, and writes the spans it kept to
// .bench_build/spans-<workload>-seed<seed>.tsv.
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics. Run it through run.sh, from the
// repository root:
//
//	bash perfbench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// A run builds its workload at least setupReps times, and a cheap set-up
// again until setupTime is spent (at most maxSetupReps times); setup_s is
// the median.
const (
	setupReps    = 3
	setupTime    = time.Second
	maxSetupReps = 200
)

// spansDir receives the traced run's spans; run.sh builds there too.
const spansDir = ".bench_build"

// passResult is the outcome of one pass over a workload's ops.
type passResult struct {
	latencies []float64 // ms, of the op kind the percentiles cover
	attempted int
	failed    int
	work      int64 // states, symbols or history operations checked
	failures  []string
}

func (r *passResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *passResult) add(o passResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	for _, f := range o.failures {
		if len(r.failures) < 5 {
			r.failures = append(r.failures, f)
		}
	}
}

type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type workload interface {
	// setup builds the workload's inputs and expected verdicts from the
	// seed, replacing any earlier set-up.
	setup(seed int64) error
	// pass runs every op once and checks each verdict. t is nil for an
	// untraced pass.
	pass(t *tracer) passResult
	// layers turns a traced pass into per-layer metrics.
	layers(t *tracer) []metric
	// workUnit names what passResult.work counts.
	workUnit() string
	close()
}

var workloadNames = []string{"explore", "session", "history"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "explore":
		return &explore{}, nil
	case "session":
		return &session{}, nil
	case "history":
		return &historyLoad{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(workloadNames, ", "))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: explore, session or history")
		seed    = fs.Int64("seed", 1, "input seed")
		seconds = fs.Int("seconds", 20, "measured time of an untraced run")
		traced  = fs.Int("trace", 0, "1 profiles every layer; 0 measures end to end")
		commit  = fs.String("commit", "none", "source revision, for the environment header")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if _, err := newWorkload(*name); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	fmt.Fprintf(stdout, "# env cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s workload=%s seed=%d seconds=%d trace=%d\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *commit, *name, *seed, *seconds, *traced)
	steal0, stealOK := stealTicks()

	var (
		tot     passResult
		metrics []metric
		err     error
	)
	if *traced == 0 {
		metrics, tot, err = measure(*name, *seed, time.Duration(*seconds)*time.Second, stdout)
	} else {
		metrics, tot, err = profile(*name, *seed, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	if steal1, ok := stealTicks(); ok && stealOK {
		fmt.Fprintf(stdout, "# host steal during run: %.2f s (diagnostic)\n", float64(steal1-steal0)/100)
	}
	for _, f := range tot.failures {
		fmt.Fprintln(stdout, "# FAILED:", f)
	}
	share := 100 * float64(tot.failed) / float64(max(tot.attempted, 1))
	fmt.Fprintf(stdout, "# failed ops: %d of %d (%.2f%%)\n", tot.failed, tot.attempted, share)

	m := make(map[string]metric, len(metrics))
	for _, x := range metrics {
		fmt.Fprintf(stdout, "%-40s %14.6g %s\n", x.Name, x.Value, x.Unit)
		m[x.Name] = x
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{tot.failed == 0 && tot.attempted > 0, tot.attempted, tot.failed, m})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// measure is the untraced run: repeated set-up, a warm-up pass, then
// whole timed passes until the next one would overrun the budget.
func measure(name string, seed int64, budget time.Duration, log io.Writer) ([]metric, passResult, error) {
	w, err := newWorkload(name)
	if err != nil {
		return nil, passResult{}, err
	}
	defer w.close()

	var (
		setups []float64
		spent  time.Duration
	)
	for len(setups) < setupReps || (spent < setupTime && len(setups) < maxSetupReps) {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			return nil, passResult{}, fmt.Errorf("%s set-up: %w", name, err)
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
	}

	var tot passResult
	tot.add(w.pass(nil)) // warm-up
	var (
		passS, allocMB, lat []float64
		withheld            bool
		work                int64
		start               = time.Now()
	)
	for {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		r := w.pass(nil)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)

		tot.add(r)
		passS = append(passS, d.Seconds())
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		lat = append(lat, r.latencies...)
		work = r.work
		if _, ok := percentile(r.latencies, 0.9); !ok {
			withheld = true
		}
		fmt.Fprintf(log, "# pass %d: %.4f s, %d ops, %d failed, %.1f MB allocated\n",
			len(passS), d.Seconds(), r.attempted, r.failed, allocMB[len(allocMB)-1])
		if el := time.Since(start); el+d > budget {
			break
		}
	}

	ps := median(passS)
	fmt.Fprintf(log, "# %d timed passes; %d %s per pass, %.0f %s/s; percentiles over %d ops\n",
		len(passS), work, w.workUnit(), float64(work)/ps, w.workUnit(), len(lat))
	ms := []metric{
		{"setup_s", median(setups), "s"},
		{"pass_s", ps, "s"},
		{"alloc_mb", median(allocMB), "MB"},
	}
	for _, q := range []struct {
		name string
		p    float64
	}{{"op_p50_ms", 0.5}, {"op_p90_ms", 0.9}} {
		v, ok := percentile(lat, q.p)
		if !ok || (withheld && q.p == 0.9) {
			fmt.Fprintf(log, "# %s withheld: fewer than %d samples beyond it in a pass\n", q.name, minBeyond)
			continue
		}
		ms = append(ms, metric{q.name, v, "ms"})
	}
	return ms, tot, nil
}

// profile is the traced run: for every workload, the named one first, a
// warm-up pass, one untraced and one traced pass. Per-layer metrics carry
// the workload's name as a prefix.
func profile(name string, seed int64, log io.Writer) ([]metric, passResult, error) {
	order := []string{name}
	for _, n := range workloadNames {
		if n != name {
			order = append(order, n)
		}
	}
	var (
		ms  []metric
		tot passResult
	)
	for _, n := range order {
		w, err := newWorkload(n)
		if err != nil {
			return nil, tot, err
		}
		if err := w.setup(seed); err != nil {
			w.close()
			return nil, tot, fmt.Errorf("%s set-up: %w", n, err)
		}
		tot.add(w.pass(nil)) // warm-up
		runtime.GC()
		t0 := time.Now()
		plain := w.pass(nil)
		du := time.Since(t0)
		tr := newTracer()
		runtime.GC()
		t0 = time.Now()
		traced := w.pass(tr)
		dt := time.Since(t0)
		tot.add(plain)
		tot.add(traced)

		fmt.Fprintf(log, "# %s: untraced pass %.4f s, traced pass %.4f s, %d spans kept\n", n, du.Seconds(), dt.Seconds(), len(tr.spans))
		for _, x := range w.layers(tr) {
			x.Name = n + "." + x.Name
			ms = append(ms, x)
		}
		ms = append(ms, metric{n + ".trace_overhead_s", (dt - du).Seconds(), "s"})
		w.close()
		if err := os.MkdirAll(spansDir, 0o755); err != nil {
			return nil, tot, err
		}
		path := filepath.Join(spansDir, fmt.Sprintf("spans-%s-seed%d.tsv", n, seed))
		if err := tr.writeSpans(path); err != nil {
			return nil, tot, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(log, "# spans written to %s\n", path)
	}
	return ms, tot, nil
}

// allocPerCall runs f n times and returns the bytes and allocations per
// call, from the heap counters around the loop.
func allocPerCall(n int, f func(i int)) (bytes, allocs float64) {
	if n == 0 {
		return 0, 0
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealTicks reads the host's cumulative steal time, in clock ticks, from
// the aggregate cpu line of /proc/stat.
func stealTicks() (int64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	return v, err == nil
}
