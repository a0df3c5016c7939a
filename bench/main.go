// Command bench is the repository's benchmark: five workloads against the
// real service (server.New behind a net/http listener on loopback),
// driven by closed-loop clients, every answer checked, every metric
// printed by name with its unit. See README.md beside this file.
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   one workload, the driver's result line
//	bash bench/run.sh -seed N                                          the whole suite, one JSON document
//	bash bench/run.sh -compare old.json new.json                       diff two suite results
//	bash bench/run.sh -selfcheck                                       two suites of the same code must agree
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	outDir    string
	compare   bool
	selfcheck bool
	child     bool
	setupOnly bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print the driver's result line")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the graph, the query constants, the op order and the update stream")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of each timed phase")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 runs the layer walk too and prints the per-layer metrics")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for trace files and the durable store's data")
	flag.BoolVar(&o.compare, "compare", false, "compare two suite result files: -compare old.json new.json")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the suite twice and require the results to agree")
	flag.BoolVar(&o.child, "child", false, "internal: run one workload in this process")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "internal: with -child, stop after set-up")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	switch {
	case o.compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare wants two result files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
	case o.selfcheck:
		return selfCheck(o.seed, o.seconds, o.outDir, os.Stdout)
	}
	var w *workload
	if o.workload != "" {
		if w = workloadByName(o.workload); w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
	}
	traced := o.trace == 1
	switch {
	case o.child:
		res, err := runChild(w, o.seed, o.seconds, traced, o.setupOnly, o.outDir)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(res)
	case w != nil:
		res, err := runWorkload(w, o.seed, o.seconds, traced, o.outDir)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(res.driverLine(w.Name, traced))
	default:
		doc, err := runSuite(o.seed, o.seconds, o.outDir)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
}

// setupBudget is how much set-up time a run spends on repeating the
// set-up: a short set-up is noisy and cheap to repeat, a long one is
// neither.
const (
	setupBudget  = 3.0 // seconds
	maxSetupRuns = 9
)

// runWorkload runs one workload in child processes of its own, so that
// peak RSS, CPU time and GC state are the workload's alone: first the full
// run, then set-up-only runs until setupBudget is spent. setup_s is the
// median over all of them.
func runWorkload(w *workload, seed int64, seconds float64, traced bool, outDir string) (*childResult, error) {
	res, err := spawn(w, seed, seconds, traced, false, outDir)
	if err != nil {
		return nil, err
	}
	setups := []float64{res.SetupS}
	for len(setups) < maxSetupRuns && float64(len(setups)+1)*res.SetupS <= setupBudget {
		r, err := spawn(w, seed, seconds, false, true, outDir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.SetupS)
	}
	res.E2E.set("setup_s", median(setups), len(setups))
	return res, nil
}

func spawn(w *workload, seed int64, seconds float64, traced, setupOnly bool, outDir string) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-out", outDir}
	if traced {
		args = append(args, "-trace", "1")
	}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	var res childResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("workload %s: reading the child's result: %w", w.Name, err)
	}
	return &res, nil
}

// driverLine is the last line of standard output the benchmark driver
// reads.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *childResult) driverLine(workload string, traced bool) driverLine {
	l := driverLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverValue{}}
	metrics := r.E2E.render(e2eMetrics, workload, true)
	if traced {
		metrics = r.Layers.render(layerMetrics, workload, true)
	}
	for name, v := range metrics {
		l.Metrics[name] = driverValue{Value: v.Value, Unit: v.Unit}
	}
	return l
}

// suiteDoc is the one JSON document a suite run prints.
type suiteDoc struct {
	Commit     string                  `json:"commit"`
	Host       string                  `json:"host"`
	NProc      int                     `json:"nproc"`
	GoMaxProcs int                     `json:"gomaxprocs"`
	GoVersion  string                  `json:"go_version"`
	Seed       int64                   `json:"seed"`
	Workloads  map[string]workloadJSON `json:"workloads"`
}

type workloadJSON struct {
	E2E       map[string]value `json:"e2e"`
	Layers    map[string]value `json:"layers"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
}

func runSuite(seed int64, seconds float64, outDir string) (*suiteDoc, error) {
	host, _ := os.Hostname()
	doc := &suiteDoc{
		Commit: commit(), Host: host, NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Seed: seed, Workloads: map[string]workloadJSON{},
	}
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "bench: %s\n", w.Name)
		res, err := runWorkload(w, seed, seconds, true, outDir)
		if err != nil {
			return nil, err
		}
		doc.Workloads[w.Name] = workloadJSON{
			E2E:       res.E2E.render(e2eMetrics, w.Name, false),
			Layers:    res.Layers.render(layerMetrics, w.Name, false),
			Attempted: res.Attempted, Failed: res.Failed,
		}
	}
	return doc, nil
}

// commit is the checked-out commit, or "unknown" outside a git checkout
// (the benchmark driver's checkout is not one).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return string(bytes.TrimSpace(out))
}

// benchmarkJSON is the part of BENCHMARK.json that -compare and
// -selfcheck read: each end-to-end metric's direction and bound.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(path string) (*benchmarkJSON, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// readDocs reads a result file: one suite document, or several
// concatenated (one per run), which is what gives -compare a spread.
func readDocs(path string) ([]suiteDoc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var docs []suiteDoc
	dec := json.NewDecoder(f)
	for {
		var d suiteDoc
		if err := dec.Decode(&d); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		docs = append(docs, d)
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("%s: no result document", path)
	}
	return docs, nil
}

// series collects one end-to-end metric's values on one workload across
// the documents of a file.
func series(docs []suiteDoc, workload, metric string) []float64 {
	var xs []float64
	for _, d := range docs {
		if v, ok := d.Workloads[workload].E2E[metric]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// spread is the distance between the quartiles as a share of the median;
// 0 with fewer than four values.
func spread(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return ratio(percentile(s, 0.75)-percentile(s, 0.25), median(s))
}

// worsening is by how much of old's value new is worse, given the
// metric's direction; negative when it is better.
func worsening(m benchMetric, old, new float64) float64 {
	if m.Better == "higher" {
		return ratio(old-new, old)
	}
	return ratio(new-old, old)
}

// compareFiles prints one row per workload and end-to-end metric and
// fails on any regression.
func compareFiles(oldPath, newPath string, out io.Writer) error {
	b, err := readBenchmarkJSON("BENCHMARK.json")
	if err != nil {
		return err
	}
	oldDocs, err := readDocs(oldPath)
	if err != nil {
		return err
	}
	newDocs, err := readDocs(newPath)
	if err != nil {
		return err
	}
	regressed := 0
	fmt.Fprintf(out, "%-12s %-20s %14s %14s %8s %7s  %s\n", "workload", "metric", "old", "new", "worse", "bound", "verdict")
	for _, w := range b.Workloads {
		for _, m := range b.EndToEnd {
			o, n := series(oldDocs, w.Name, m.Name), series(newDocs, w.Name, m.Name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			worse := worsening(m, median(o), median(n))
			verdict := "unchanged"
			switch {
			case max(spread(o), spread(n)) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			case worse < -m.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(out, "%-12s %-20s %14.4f %14.4f %+7.1f%% %6.0f%%  %s\n", w.Name, m.Name, median(o), median(n), 100*worse, 100*m.Bound, verdict)
		}
	}
	for _, w := range b.Workloads {
		fo, fn := 0, 0
		for _, d := range oldDocs {
			fo += d.Workloads[w.Name].Failed
		}
		for _, d := range newDocs {
			fn += d.Workloads[w.Name].Failed
		}
		if fn > fo {
			fmt.Fprintf(out, "%-12s %-20s %14d %14d %8s %7s  regressed\n", w.Name, "failed", fo, fn, "", "0")
			regressed++
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d regressed", regressed)
	}
	return nil
}

// selfCheck runs the suite twice on the same code and seed. End-to-end
// metrics must agree within their bounds, failures must be equal, and
// counts that depend only on the seed must repeat exactly. Every
// difference is printed, so a flaky metric is named.
func selfCheck(seed int64, seconds float64, outDir string, out io.Writer) error {
	b, err := readBenchmarkJSON("BENCHMARK.json")
	if err != nil {
		return err
	}
	first, err := runSuite(seed, seconds, outDir)
	if err != nil {
		return err
	}
	second, err := runSuite(seed, seconds, outDir)
	if err != nil {
		return err
	}
	bad := 0
	row := func(workload, metric string, a, b, limit float64) {
		diff := ratio(b-a, a)
		if a == b {
			diff = 0
		}
		verdict := "ok"
		if diff > limit || diff < -limit {
			verdict = "DISAGREE"
			bad++
		}
		fmt.Fprintf(out, "%-12s %-32s %14.4f %14.4f %+7.1f%% %6.0f%%  %s\n", workload, metric, a, b, 100*diff, 100*limit, verdict)
	}
	fmt.Fprintf(out, "%-12s %-32s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "diff", "limit")
	for _, w := range workloads {
		a, c := first.Workloads[w.Name], second.Workloads[w.Name]
		for _, m := range b.EndToEnd {
			row(w.Name, m.Name, a.E2E[m.Name].Value, c.E2E[m.Name].Value, m.Bound)
		}
		row(w.Name, "failed", float64(a.Failed), float64(c.Failed), 0)
		for _, m := range layerMetrics {
			if _, ok := a.Layers[m.Name]; ok && m.Exact {
				row(w.Name, m.Name, a.Layers[m.Name].Value, c.Layers[m.Name].Value, 0)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metrics disagree between two runs of the same code", bad)
	}
	return nil
}
