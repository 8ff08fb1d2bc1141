package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/journal"
	"github.com/gradsec/gradsec/internal/obs"
	"github.com/gradsec/gradsec/internal/opt"
	"github.com/gradsec/gradsec/internal/secagg"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/wire"
)

// The engine's per-phase latency histograms (fl/obs.go), read back from
// the servers' registries as exact sums and counts.
const phaseFamily = "gradsec_phase_ns"

var phases = []string{"sample", "broadcast", "collect", "reconcile", "close", "round"}

const (
	markStart = iota
	markEnd
)

// marks are the traced pass's cumulative counters at the start and the
// end of its timed window; per-layer metrics are their differences.
type marks struct {
	phaseNS      map[string]int64 // summed over the pass's servers
	journalNS    [2]int64         // append, sync
	journalN     [2]uint64
	journalBytes int64
	batchNS      int64
}

// mark records the counters at a window boundary (traced passes only).
func (p *pass) mark(which int) {
	if p.tr == nil {
		return
	}
	m := marks{phaseNS: make(map[string]int64)}
	for _, reg := range p.regs {
		for _, ph := range phases {
			m.phaseNS[ph] += phaseHist(reg, ph).Sum()
		}
	}
	for k, op := range []string{"append", "sync"} {
		h := p.layerReg.Histogram("perfbench_journal_ns", "root journal I/O", "op", op)
		m.journalNS[k], m.journalN[k] = h.Sum(), h.Count()
	}
	if p.journalPath != "" {
		if fi, err := os.Stat(p.journalPath); err == nil {
			m.journalBytes = fi.Size()
		}
	}
	for _, d := range p.devices {
		m.batchNS += d.batchNS.Load()
	}
	p.marks[which] = m
}

func phaseHist(reg *obs.Registry, phase string) *obs.Histogram {
	return reg.Histogram(phaseFamily, "per-phase round latency in nanoseconds", "phase", phase)
}

// telemetryReplay re-does, after every round of one server, the
// in-band telemetry work of a hierarchical edge and its root: cut the
// registry's delta snapshot, decode it and merge it into a root-side
// registry. It runs in the server's RoundClosed hook, on the round
// goroutine, with a Snapshotter of its own.
type telemetryReplay struct {
	snap   *obs.Snapshotter
	shadow *obs.Registry
	shard  string
	obs    []telemetryObs
}

type telemetryObs struct {
	round        int
	delta, merge time.Duration
	bytes        int
}

func newTelemetryReplay(reg *obs.Registry, shard string) *telemetryReplay {
	return &telemetryReplay{snap: obs.NewSnapshotter(reg), shadow: obs.NewRegistry(), shard: shard}
}

func (t *telemetryReplay) observe(tr *tracer, round int) {
	parent := tr.roundSpan(round)
	id := tr.start("obs.delta", round, parent)
	t0 := time.Now()
	blob := t.snap.Delta()
	t1 := time.Now()
	tr.end(id)
	id = tr.start("obs.merge", round, parent)
	if snap, err := obs.DecodeSnapshot(blob); err == nil {
		t.shadow.MergeSnapshot(snap, "tier", "edge", "shard", t.shard)
	}
	t2 := time.Now()
	tr.end(id)
	t.obs = append(t.obs, telemetryObs{round: round, delta: t1.Sub(t0), merge: t2.Sub(t1), bytes: len(blob)})
}

// replay times fn as a span of its own, repeated for at least
// p.replayMin and three calls, and returns the mean time per call.
func (p *pass) replay(name string, fn func()) time.Duration {
	id := p.tr.start("replay."+name, -1, -1)
	defer p.tr.end(id)
	n := 0
	t0 := time.Now()
	for n < 3 || time.Since(t0) < p.replayMin {
		fn()
		n++
	}
	return time.Since(t0) / time.Duration(n)
}

// allocPerCall returns the bytes fn allocates per call.
func allocPerCall(fn func()) float64 {
	const n = 16
	fn()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / n
}

// perLayer derives the per-layer metrics of a traced pass. untracedP50
// is the same run's untraced median round time.
func perLayer(p *pass, w *window, untracedP50 float64) ([]metric, error) {
	upd := p.in.sampleUpdate(p.init)
	rounds := w.timedRounds()
	n := float64(len(rounds))
	ms := w.durationsMS()
	meanRound := 0.0
	for _, v := range ms {
		meanRound += v
	}
	meanRound /= n
	a, b := p.marks[markStart], p.marks[markEnd]
	servers := float64(len(p.regs))
	phaseMS := func(ph string) float64 { return float64(b.phaseNS[ph]-a.phaseNS[ph]) / servers / n / 1e6 }
	var out []metric
	covered := 0.0
	for _, ph := range phases[:5] {
		v := phaseMS(ph)
		covered += v
		out = append(out, metric{name: "fl.phase." + ph + "_ms", unit: "ms", value: v, json: ph != "reconcile"})
	}
	out = append(out,
		metric{name: "fl.phase_coverage", unit: "ratio", value: covered / meanRound, json: true,
			note: "engine phases per round / round time measured outside"},
		metric{name: "trace.overhead", unit: "ratio", value: median(ms) / untracedP50, json: true,
			note: "traced / untraced round_ms.p50"},
	)

	wireMetrics, err := wireReplays(p, upd)
	if err != nil {
		return nil, err
	}
	out = append(out, wireMetrics...)
	frames := uint64(0)
	for c := 0; c < wire.NumCodecs; c++ {
		frames += w.wire.TxFrames[c] + w.wire.RxFrames[c]
	}
	out = append(out,
		metric{name: "wire.bytes_up_per_round", unit: "bytes", value: float64(w.wire.TxBytes) / n, json: true},
		metric{name: "wire.bytes_down_per_round", unit: "bytes", value: float64(w.wire.RxBytes) / n, json: true},
		metric{name: "wire.frames_per_round", unit: "count", value: float64(frames) / n, json: true},
	)
	out = append(out, aggReplays(p, upd)...)
	sa, err := secaggReplays(p, upd)
	if err != nil {
		return nil, err
	}
	out = append(out, sa...)
	out = append(out, secaggAccounting(p, rounds)...)
	jm, err := journalMetrics(p, upd, n)
	if err != nil {
		return nil, err
	}
	out = append(out, jm...)
	out = append(out, telemetryMetrics(p, w, n)...)
	out = append(out, deviceMetrics(p, w)...)
	out = append(out, hierMetrics(p, rounds)...)

	harness := 0.0
	if p.devices != nil {
		harness = float64(b.batchNS-a.batchNS) / n / 1e6
	} else {
		d, _ := p.tr.total("train", w.first, w.next)
		harness = float64(d) / n / 1e6
	}
	out = append(out, metric{name: "harness.train_ms_per_round", unit: "ms", value: harness, json: true,
		note: "time inside the harness's training stand-ins, summed over clients"})
	return out, nil
}

// perElem converts a per-call duration to ns per element.
func perElem(d time.Duration, elems int) float64 { return float64(d) / float64(elems) }

// wireReplays times fl.EncodeMessageCodec/DecodeMessageCodec on the
// workload's own update (GradUp under f64 and q8, MaskedUp as ring
// levels) and measures what decoding its model broadcast allocates.
func wireReplays(p *pass, upd []*tensor.Tensor) ([]metric, error) {
	elems := modelElems(upd)
	model := p.init
	modelBytes := float64(8 * modelElems(model))
	scale := secagg.ScaleFor(secagg.DefaultScaleBits)
	levels := make([]*wire.U64Tensor, len(upd))
	for i, t := range upd {
		levels[i] = secagg.Quantise(t, scale, 1)
	}
	msgs := []struct {
		name  string
		mt    fl.MsgType
		msg   fl.Message
		codec wire.Codec
	}{
		{"f64", fl.MsgGradUp, &fl.GradUp{Round: 1, Plain: upd}, wire.CodecF64},
		{"q8", fl.MsgGradUp, &fl.GradUp{Round: 1, Plain: upd}, wire.CodecQ8},
		{"levels", fl.MsgMaskedUp, &fl.MaskedUp{Round: 1, Levels: levels}, wire.CodecF64},
	}
	var out []metric
	for _, m := range msgs {
		payload := fl.EncodeMessageCodec(m.msg, m.codec)
		enc := p.replay("wire.encode."+m.name, func() { fl.EncodeMessageCodec(m.msg, m.codec) })
		var decErr error
		dec := p.replay("wire.decode."+m.name, func() {
			if _, err := fl.DecodeMessageCodec(m.mt, payload, m.codec); err != nil {
				decErr = err
			}
		})
		if decErr != nil {
			return nil, fmt.Errorf("replaying %s decode: %w", m.name, decErr)
		}
		out = append(out,
			metric{name: "wire.encode_ns_per_elem." + m.name, unit: "ns/elem", value: perElem(enc, elems), json: true},
			metric{name: "wire.decode_ns_per_elem." + m.name, unit: "ns/elem", value: perElem(dec, elems), json: true},
		)
	}
	for _, codec := range []wire.Codec{wire.CodecF64, wire.CodecQ8} {
		payload := fl.EncodeMessageCodec(&fl.ModelDown{Round: 1, Plain: model}, codec)
		bytes := allocPerCall(func() { _, _ = fl.DecodeMessageCodec(fl.MsgModelDown, payload, codec) })
		out = append(out, metric{name: "wire.decode_model_allocs." + codec.String(), unit: "models",
			value: bytes / modelBytes, json: true, note: "bytes allocated per ModelDown decode / f64 model bytes"})
	}
	return out, nil
}

// aggReplays times the aggregator's two fold paths on the workload's
// update: Add for materialised tensors, AccumulateQ8 for lazy q8.
func aggReplays(p *pass, upd []*tensor.Tensor) []metric {
	elems := modelElems(upd)
	agg := fl.NewAggregator(p.init)
	add := p.replay("agg.add", func() { _ = agg.Add(upd, 1) })
	payload := fl.EncodeMessageCodec(&fl.GradUp{Round: 1, Plain: upd}, wire.CodecQ8)
	m, _ := fl.DecodeMessageCodec(fl.MsgGradUp, payload, wire.CodecQ8)
	q8 := m.(*fl.GradUp).Q8
	agg = fl.NewAggregator(p.init)
	acc := p.replay("agg.accumulate_q8", func() { _ = agg.AccumulateQ8(q8, 1) })
	return []metric{
		{name: "agg.fold_ns_per_elem.f64", unit: "ns/elem", value: perElem(add, elems), json: true},
		{name: "agg.fold_ns_per_elem.q8", unit: "ns/elem", value: perElem(acc, elems), json: true},
	}
}

// secaggReplays times ClientSession.MaskedUpdate at the workload's
// cohort size with the automatic degree, and MaskedSum.Add.
func secaggReplays(p *pass, upd []*tensor.Tensor) ([]metric, error) {
	cohort := p.w.cohort
	sessions := make([]*secagg.ClientSession, cohort)
	peers := make([]secagg.Peer, cohort)
	for i := range sessions {
		s, err := secagg.NewClientSession(fmt.Sprintf("c%03d", i), maskSeed(p.seed)(i), secagg.DefaultScaleBits)
		if err != nil {
			return nil, fmt.Errorf("secagg replay: %w", err)
		}
		sessions[i] = s
		peers[i] = secagg.Peer{Device: fmt.Sprintf("c%03d", i), Pub: s.MaskPub()}
	}
	degree := secagg.DegreeFor(cohort)
	round := 0
	var maskErr error
	var levels []*wire.U64Tensor
	mask := p.replay("secagg.masked_update", func() {
		lv, _, err := sessions[0].MaskedUpdate(round, peers, degree, upd, 1)
		if err != nil {
			maskErr = err
		}
		levels = lv
		round++
	})
	if maskErr != nil {
		return nil, fmt.Errorf("secagg replay: %w", maskErr)
	}
	msum := secagg.NewMaskedSum(p.init, nil, secagg.DefaultScaleBits)
	var addErr error
	fold := p.replay("secagg.masked_sum_add", func() {
		if err := msum.Add(levels, 1); err != nil {
			addErr = err
		}
	})
	if addErr != nil {
		return nil, fmt.Errorf("secagg replay: %w", addErr)
	}
	return []metric{
		{name: "secagg.mask_ms_per_update", unit: "ms", value: float64(mask) / 1e6, json: true,
			note: fmt.Sprintf("cohort %d, degree %d", cohort, degree)},
		{name: "secagg.masked_fold_ns_per_elem", unit: "ns/elem", value: perElem(fold, modelElems(upd)), json: true},
	}, nil
}

// secaggAccounting reports the masking the engine actually did.
func secaggAccounting(p *pass, rounds []roundLog) []metric {
	degree, recon := math.NaN(), math.NaN()
	if len(p.sampled) > 0 {
		degree, recon = 0, 0
		closed := 0
		for _, l := range rounds {
			degree += float64(secagg.DegreeFor(p.sampled[l.round]))
			if l.ok {
				recon += float64(p.reconciled[l.round])
				closed++
			}
		}
		degree /= float64(len(rounds))
		recon /= float64(closed)
	}
	return []metric{
		{name: "secagg.degree", unit: "count", value: degree, note: "mask-graph degree the engine resolved"},
		{name: "secagg.reconciled_per_round", unit: "count", value: recon, note: "dropped members reconciled per closed round"},
	}
}

// journalMetrics reads the root journal's instrumented I/O on the
// durable workload and replays Append+Sync of this workload's round
// records on the others.
func journalMetrics(p *pass, upd []*tensor.Tensor, n float64) ([]metric, error) {
	a, b := p.marks[markStart], p.marks[markEnd]
	if p.journal != nil {
		return []metric{
			{name: "journal.append_us", unit: "us", json: true,
				value: float64(b.journalNS[0]-a.journalNS[0]) / float64(b.journalN[0]-a.journalN[0]) / 1e3},
			{name: "journal.sync_ms", unit: "ms", json: true,
				value: float64(b.journalNS[1]-a.journalNS[1]) / float64(b.journalN[1]-a.journalN[1]) / 1e6},
			{name: "journal.bytes_per_round", unit: "bytes", json: true, value: float64(b.journalBytes-a.journalBytes) / n},
		}, nil
	}
	path := filepath.Join(p.dir, "replay.journal")
	j, err := journal.Create(path)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	app := reg.Histogram("journal_ns", "", "op", "append")
	syn := reg.Histogram("journal_ns", "", "op", "sync")
	j.Instrument(app, syn)
	fi0, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	const rounds = 8
	id := p.tr.start("replay.journal", -1, -1)
	for r := 0; r < rounds; r++ {
		_ = j.Append(&journal.Record{Type: journal.RecRoundOpen, Round: r})
		_ = j.Append(&journal.Record{Type: journal.RecRoundClose, Round: r, OK: true, Update: upd})
		_ = j.Sync()
	}
	p.tr.end(id)
	if err := j.Close(); err != nil {
		return nil, err
	}
	if j.Err() != nil {
		return nil, j.Err()
	}
	fi1, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	return []metric{
		{name: "journal.append_us", unit: "us", json: true, value: float64(app.Sum()) / float64(app.Count()) / 1e3,
			note: "replayed round records"},
		{name: "journal.sync_ms", unit: "ms", json: true, value: float64(syn.Sum()) / float64(syn.Count()) / 1e6,
			note: "replayed round records"},
		{name: "journal.bytes_per_round", unit: "bytes", json: true, value: float64(fi1.Size()-fi0.Size()) / rounds,
			note: "replayed round records"},
	}, nil
}

// telemetryMetrics averages the telemetry replays over the timed rounds.
func telemetryMetrics(p *pass, w *window, n float64) []metric {
	var delta, merge time.Duration
	var bytes, count int
	for _, t := range p.telem {
		for _, o := range t.obs {
			if o.round >= w.first && o.round < w.next {
				delta += o.delta
				merge += o.merge
				bytes += o.bytes
				count++
			}
		}
	}
	return []metric{
		{name: "obs.snapshot_delta_us", unit: "us", json: true, value: float64(delta) / float64(count) / 1e3},
		{name: "obs.merge_us", unit: "us", json: true, value: float64(merge) / float64(count) / 1e3},
		{name: "obs.telemetry_bytes_per_round", unit: "bytes", json: true, value: float64(bytes) / n,
			note: "delta snapshots of every server per round"},
	}
}

// deviceMetrics reports the GradSec device layers of gradsec-device:
// the measured TrainRound, the same batches through plain nn training,
// their ratio (the paper's TEE overhead), the SMC count, and the cost
// model's figure for a cycle.
func deviceMetrics(p *pass, w *window) []metric {
	names := []string{"core.train_round_ms", "nn.plain_step_ms", "core.tee_overhead", "tz.smc_per_cycle", "core.modelled_cycle_ms"}
	units := []string{"ms", "ms", "ratio", "count", "ms"}
	vals := []float64{math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()}
	if p.devices != nil {
		var train time.Duration
		var smc int64
		cycles := 0
		for _, d := range p.devices {
			for _, c := range d.cycles {
				if c.round >= w.first && c.round < w.next {
					train += c.train
					smc += c.smc
					cycles++
				}
			}
		}
		net := newModel()
		k := 0
		step := p.replay("nn.train_step", func() {
			x, y := p.in.device.batch(0, k, 0)
			net.TrainStep(x, y, opt.NewSGD(deviceLR, 0))
			k++
		})
		vals[0] = float64(train) / float64(cycles) / 1e6
		vals[1] = float64(step) / 1e6
		vals[2] = vals[0] / (deviceIters * vals[1])
		vals[3] = float64(smc) / float64(cycles)
		vals[4] = modelledCycleMS(p, w.next)
	}
	out := make([]metric, len(names))
	for i := range names {
		out[i] = metric{name: names[i], unit: units[i], value: vals[i]}
	}
	out[4].note = "cost model, not measured"
	return out
}

// modelledCycleMS runs the first device's trainer directly for one
// cycle per window position and averages the cost model's figure.
func modelledCycleMS(p *pass, next int) float64 {
	st := p.devices[0].Trainer()
	const positions = 4 // UniformDynamicPlan(2, 5) on LeNet-5's five layers
	total := 0.0
	for c := 0; c < positions; c++ {
		res, err := st.RunCycle(next + c)
		if err != nil {
			return math.NaN()
		}
		total += float64(res.Cost.Total()) / 1e6
	}
	return total / positions
}

// hierMetrics reports the shard rounds of the hierarchy: the mean edge
// round and how much longer the root round took than its slowest edge.
func hierMetrics(p *pass, rounds []roundLog) []metric {
	edge, over := math.NaN(), math.NaN()
	if p.edgeRounds != nil {
		edge, over = 0, 0
		k := 0
		for _, l := range rounds {
			slowest := time.Duration(0)
			for _, er := range p.edgeRounds {
				d := er[l.round]
				edge += float64(d) / 1e6
				k++
				if d > slowest {
					slowest = d
				}
			}
			over += float64(l.d-slowest) / 1e6
		}
		edge /= float64(k)
		over /= float64(len(rounds))
	}
	return []metric{
		{name: "hier.edge_round_ms", unit: "ms", value: edge, note: "mean shard round, edge hooks"},
		{name: "hier.root_over_slowest_edge_ms", unit: "ms", value: over, note: "root round - slowest edge round"},
	}
}
