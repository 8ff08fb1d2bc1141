// Command perfbench is the repository benchmark. It runs one workload
// (a synchronous FL session in this process, devices as goroutines on
// in-memory fl.Pipe connections), times every round from outside the
// engine, checks the outputs, and prints every metric by name and unit.
// The last line of its output is one JSON object: the end-to-end
// metrics, or with --trace 1 the per-layer metrics of a separate traced
// pass. A failed correctness gate makes it exit non-zero.
//
//	bash perfbench/run.sh --workload fedavg-f64 --seed 1 --seconds 20 --trace 0
//
// BENCHMARK.json at the repository root lists the workloads and
// metrics; perfbench/design.json maps each per-layer metric to the
// end-to-end metric and workload it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/gradsec/gradsec/internal/tensor"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// rounds, when positive, times exactly this many rounds per pass
	// instead of running for seconds (the smoke test).
	rounds int
	// setups is how many times the fleet is built and opened; setup_s
	// is their median.
	setups int
	warmup int
	// replayMin is how long each per-layer replay repeats its call.
	replayMin time.Duration
	// spans is where the traced pass writes its spans.
	spans string
}

// report is a run's outcome.
type report struct {
	workload  string
	attempted int
	failed    int
	gates     []gate
	e2e       []metric // from the untraced pass
	layers    []metric // from the traced pass, when traced
	lines     []string // per-pass summaries
	trace     bool
}

func (r *report) correct() bool {
	for _, g := range r.gates {
		if !g.ok {
			return false
		}
	}
	return true
}

func main() {
	cfg := config{setups: 25, warmup: 2, replayMin: 40 * time.Millisecond}
	trace := flag.Int("trace", 0, "1: run a second, traced pass and report per-layer metrics")
	flag.StringVar(&cfg.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds (split between the passes with --trace 1)")
	flag.StringVar(&cfg.spans, "spans", "", "span output of the traced pass (default: the temp directory)")
	flag.Parse()
	cfg.trace = *trace == 1
	if workloadByName(cfg.workload) == nil || (*trace != 0 && *trace != 1) || cfg.seconds <= 0 {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0,1}\n", strings.Join(names, ","))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

// run executes the untraced pass and, when asked, the traced one.
func run(cfg config) (*report, error) {
	w := workloadByName(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	init := newModel().StateDict()
	in := &inputs{}
	w.prepare(in, cfg.seed, init)
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		budget /= 2
	}
	st := stop{budget: budget, rounds: cfg.rounds}
	rep := &report{workload: w.name, trace: cfg.trace}

	p, win, setups, err := runPass(cfg, w, in, init, false, st, rep)
	if err != nil {
		return nil, err
	}
	rep.e2e = endToEnd(win, setups, p)
	p.cleanup()
	if !cfg.trace {
		return rep, nil
	}
	untracedP50 := median(win.durationsMS())
	tp, twin, _, err := runPass(cfg, w, in, init, true, st, rep)
	if err != nil {
		return nil, err
	}
	defer tp.cleanup()
	if rep.layers, err = perLayer(tp, twin, untracedP50); err != nil {
		return nil, err
	}
	path := cfg.spans
	if path == "" {
		path = filepath.Join(os.TempDir(), fmt.Sprintf("perfbench-%s-%d-spans.jsonl", w.name, cfg.seed))
	}
	if err := tp.tr.write(path); err != nil {
		return nil, err
	}
	rep.lines = append(rep.lines, "spans written to "+path)
	return rep, nil
}

// runPass sets the fleet up cfg.setups times (once when traced), drives
// the last one, closes it and checks its outputs.
func runPass(cfg config, w *workload, in *inputs, init []*tensor.Tensor, traced bool, st stop, rep *report) (*pass, *window, []float64, error) {
	p, err := newPass(w, in, cfg.seed, init, traced)
	if err != nil {
		return nil, nil, nil, err
	}
	p.replayMin = cfg.replayMin
	n := cfg.setups
	if traced || n < 1 {
		n = 1
	}
	var f fleet
	var setups []float64
	for i := 0; i < n; i++ {
		p.reset()
		runtime.GC() // each set-up starts from the same heap
		t0 := time.Now()
		f, err = w.open(p)
		if err != nil {
			p.cleanup()
			return nil, nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < n-1 {
			if _, err := f.close(); err != nil {
				p.cleanup()
				return nil, nil, nil, fmt.Errorf("%s set-up teardown: %w", w.name, err)
			}
		}
	}
	win := drive(f, p, cfg.warmup, st)
	final, closeErr := f.close()
	name := "untraced"
	if traced {
		name = "traced"
	}
	session := gate{name: name + " session ran to the end and closed cleanly", ok: !win.ended && closeErr == nil}
	if win.ended {
		session.detail = "the engine ended the session early"
	} else if closeErr != nil {
		session.detail = closeErr.Error()
	}
	rep.gates = append(rep.gates, session)
	if session.ok {
		for _, g := range w.check(p, final, win.log) {
			g.name = name + ": " + g.name
			rep.gates = append(rep.gates, g)
		}
	}
	timed := win.timedRounds()
	failed := 0
	for _, l := range timed {
		if !l.ok {
			failed++
			rep.lines = append(rep.lines, fmt.Sprintf("%s round %d failed: %v", name, l.round, l.err))
		}
	}
	rep.attempted += len(timed)
	rep.failed += failed
	rep.lines = append(rep.lines, fmt.Sprintf("%s pass: %d warm-up + %d timed rounds in %.2fs, %d failed",
		name, len(win.log)-len(timed), len(timed), win.wall.Seconds(), failed))
	if len(timed) == 0 {
		p.cleanup()
		return nil, nil, nil, fmt.Errorf("%s %s pass timed no round", w.name, name)
	}
	return p, win, setups, nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable report and, last, the JSON result.
func (r *report) print(out io.Writer) error {
	fmt.Fprintf(out, "perfbench %s\n", r.workload)
	for _, l := range r.lines {
		fmt.Fprintln(out, "  "+l)
	}
	for _, g := range r.gates {
		status := "ok"
		if !g.ok {
			status = "FAILED: " + g.detail
		}
		fmt.Fprintf(out, "gate  %-90s %s\n", g.name, status)
	}
	printMetrics(out, "e2e", r.e2e)
	printMetrics(out, "layer", r.layers)

	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]jsonMetric)}
	src := r.e2e
	if r.trace {
		src = r.layers
	}
	for _, m := range src {
		if !m.json {
			continue
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not a number", m.name)
		}
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

func printMetrics(out io.Writer, kind string, ms []metric) {
	sorted := append([]metric(nil), ms...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].json && !sorted[j].json })
	for _, m := range sorted {
		v := "n/a"
		if !math.IsNaN(m.value) {
			v = fmt.Sprintf("%.6g", m.value)
		}
		fmt.Fprintf(out, "%-5s %-36s %14s %-9s %s\n", kind, m.name, v, m.unit, m.note)
	}
}
