package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/wire"
)

// roundLog is one stepped round.
type roundLog struct {
	round  int
	timed  bool
	ok     bool
	err    error
	d      time.Duration
	folded int
	norm   float64
}

// window is what one pass measured: its rounds and the process-wide
// counters over the timed ones.
type window struct {
	log   []roundLog // every round stepped, warm-up included
	wall  time.Duration
	alloc uint64 // bytes allocated by the whole process
	wire  wire.MeterSnapshot
	ended bool // the engine ended the session before the budget ran out
	first int  // first timed round
	next  int  // one past the last timed round
}

// stop decides when a pass has timed enough rounds: after a fixed count
// when rounds > 0, otherwise after the time budget.
type stop struct {
	budget time.Duration
	rounds int
}

func (s stop) done(timed int, since time.Duration) bool {
	if s.rounds > 0 {
		return timed >= s.rounds
	}
	return since >= s.budget
}

// drive steps warm-up rounds, then times rounds until st says stop.
// Every round waits for the previous one, so the load is a closed loop.
func drive(f fleet, p *pass, warmup int, st stop) *window {
	w := &window{}
	r := 0
	for ; r < warmup; r++ {
		l := stepOnce(f, r, false)
		if errors.Is(l.err, errSessionEnded) {
			w.ended = true
			return w
		}
		w.log = append(w.log, l)
	}
	runtime.GC()
	p.mark(markStart)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	wire0 := p.meter.Snapshot()
	w.first = r
	t0 := time.Now()
	for timed := 0; !st.done(timed, time.Since(t0)); timed++ {
		id := p.tr.beginRound(r)
		l := stepOnce(f, r, true)
		p.tr.end(id)
		if errors.Is(l.err, errSessionEnded) {
			w.ended = true
			break
		}
		w.log = append(w.log, l)
		r++
	}
	w.wall = time.Since(t0)
	w.next = r
	runtime.ReadMemStats(&ms1)
	wire1 := p.meter.Snapshot()
	p.mark(markEnd)
	w.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	w.wire = wire.MeterSnapshot{TxBytes: wire1.TxBytes - wire0.TxBytes, RxBytes: wire1.RxBytes - wire0.RxBytes}
	for c := 0; c < wire.NumCodecs; c++ {
		w.wire.TxFrames[c] = wire1.TxFrames[c] - wire0.TxFrames[c]
		w.wire.RxFrames[c] = wire1.RxFrames[c] - wire0.RxFrames[c]
	}
	return w
}

func stepOnce(f fleet, r int, timed bool) roundLog {
	res, err := f.step(r)
	return roundLog{round: r, timed: timed, ok: err == nil, err: err, d: res.d, folded: res.folded, norm: res.norm}
}

// timedRounds returns the timed rounds' logs.
func (w *window) timedRounds() []roundLog {
	var out []roundLog
	for _, l := range w.log {
		if l.timed {
			out = append(out, l)
		}
	}
	return out
}

// durationsMS returns the timed rounds' durations in ms, sorted.
func (w *window) durationsMS() []float64 {
	var ms []float64
	for _, l := range w.timedRounds() {
		ms = append(ms, float64(l.d)/1e6)
	}
	sort.Float64s(ms)
	return ms
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// tail returns the highest whole percentile with at least ten samples
// above it, by nearest rank, and that percentile. With fewer than 20
// samples no such percentile reaches the median, and the median is
// reported as percentile 50.
func tail(sorted []float64) (float64, int) {
	n := len(sorted)
	p := int(math.Floor(100 * (1 - 10/float64(n))))
	if p < 50 {
		return median(sorted), 50
	}
	rank := int(math.Ceil(float64(p) / 100 * float64(n)))
	return sorted[rank-1], p
}

// metric is one reported number. json marks the metrics of the final
// result line; the rest are printed only.
type metric struct {
	name  string
	unit  string
	value float64
	json  bool
	note  string
}

// maxRSSMB reads the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// endToEnd derives the end-to-end metrics of an untraced pass.
func endToEnd(w *window, setups []float64, p *pass) []metric {
	ms := w.durationsMS()
	rounds := w.timedRounds()
	n := float64(len(rounds))
	failed, folded := 0, 0
	for _, l := range rounds {
		if !l.ok {
			failed++
		}
		folded += l.folded
	}
	sortedSetups := append([]float64(nil), setups...)
	sort.Float64s(sortedSetups)
	t, pct := tail(ms)
	out := []metric{
		{name: "setup_s", unit: "s", value: median(sortedSetups), json: true,
			note: fmt.Sprintf("median of %d set-ups", len(setups))},
		{name: "round_ms.p50", unit: "ms", value: median(ms), json: true,
			note: fmt.Sprintf("%d timed rounds", len(ms))},
		{name: "round_ms.tail", unit: "ms", value: t, json: true,
			note: fmt.Sprintf("p%d of %d timed rounds", pct, len(ms))},
		{name: "updates_per_s", unit: "updates/s", value: float64(folded) / w.wall.Seconds(), json: true},
		{name: "wire_mb_per_round", unit: "MB", value: float64(w.wire.TxBytes+w.wire.RxBytes) / n / 1e6, json: true},
		{name: "alloc_mb_per_round", unit: "MB", value: float64(w.alloc) / n / 1e6, json: true},
		{name: "max_rss_mb", unit: "MB", value: maxRSSMB(), json: true},
	}
	if p.devices != nil {
		peak := 0
		for _, d := range p.devices {
			for _, c := range d.cycles {
				if c.round >= w.first && c.round < w.next && c.peak > peak {
					peak = c.peak
				}
			}
		}
		out = append(out, metric{name: "tee_peak_kb", unit: "KB", value: float64(peak) / 1e3,
			note: "max over cycles of the secure-memory peak"})
	} else {
		out = append(out, metric{name: "tee_peak_kb", unit: "KB", value: math.NaN(), note: "no TEE on this workload"})
	}
	out = append(out, metric{name: "failed_ratio", unit: "fraction", value: float64(failed) / n,
		note: fmt.Sprintf("%d of %d timed rounds failed", failed, len(rounds))})
	return out
}

// modelElems counts the elements of a model (nil tensors excluded).
func modelElems(model []*tensor.Tensor) int {
	n := 0
	for _, t := range model {
		if t != nil {
			n += t.Size()
		}
	}
	return n
}
