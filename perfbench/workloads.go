package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/gradsec/gradsec/internal/core"
	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/hier"
	"github.com/gradsec/gradsec/internal/journal"
	"github.com/gradsec/gradsec/internal/obs"
	"github.com/gradsec/gradsec/internal/secagg"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/tz"
	"github.com/gradsec/gradsec/internal/wire"
)

// workload is one fixed FL session shape the benchmark runs.
type workload struct {
	name string
	why  string
	// clients is the fleet size; cohort is the size of one aggregation
	// cohort (a shard in the hierarchy), at which the secagg layer is
	// replayed.
	clients, cohort int
	// prepare makes the inputs from the seed (harness work, untimed).
	prepare func(in *inputs, seed int64, model []*tensor.Tensor)
	// open builds the fleet and opens the session (timed as set-up).
	open func(p *pass) (fleet, error)
	// check verifies the session's outputs against the inputs.
	check func(p *pass, final []*tensor.Tensor, log []roundLog) []gate
}

// inputs are a run's generated inputs, shared by all its passes.
type inputs struct {
	stub   *stubInputs
	device *deviceInputs
}

// sampleUpdate is one full client update of the workload, the payload
// of the per-layer replays: a stub pool entry, or a device's plain
// round-0 update.
func (in *inputs) sampleUpdate(init []*tensor.Tensor) []*tensor.Tensor {
	if in.stub != nil {
		return in.stub.pool[0]
	}
	return plainUpdate(newModel(), init, in.device, 0, 0)
}

// pass is one session of a workload: untraced for the end-to-end
// metrics, traced for the per-layer ones. The fleet's hooks fill it.
type pass struct {
	w     *workload
	in    *inputs
	seed  int64
	init  []*tensor.Tensor // initial global model, never handed to the engine
	dir   string           // scratch directory of the pass (journals)
	tr    *tracer          // nil when untraced
	meter *wire.Meter      // on the benchmark-owned client ends
	led   *ledger

	// regs are the metric registries of the pass's fl.Servers (one per
	// hierarchical edge); nil entries when the server runs without one.
	regs []*obs.Registry

	// sampled is the cohort size of each round (secagg workload).
	sampled map[int]int
	// reconciled is the Reconciled count of each closed round.
	reconciled map[int]int

	devices []*deviceTrainer // gradsec-device

	journal     *journal.Journal // hier-q8-durable root journal
	journalPath string
	layerReg    *obs.Registry // benchmark-owned histograms of the traced pass

	edgeRounds []map[int]time.Duration // hier: per edge, round → shard round time
	edgeStart  []time.Time

	// telem accumulates the traced pass's obs replays, per server.
	telem []*telemetryReplay

	marks [2]marks // traced pass counters at the timed window's ends
	// replayMin is how long each per-layer replay repeats its call.
	replayMin time.Duration
}

func newPass(w *workload, in *inputs, seed int64, init []*tensor.Tensor, traced bool) (*pass, error) {
	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return nil, fmt.Errorf("creating pass directory: %w", err)
	}
	p := &pass{
		w: w, in: in, seed: seed, init: init, dir: dir,
		meter:      &wire.Meter{},
		sampled:    make(map[int]int),
		reconciled: make(map[int]int),
	}
	if traced {
		p.tr = newTracer()
		p.layerReg = obs.NewRegistry()
	}
	return p, nil
}

func (p *pass) cleanup() {
	if p.journal != nil {
		_ = p.journal.Close()
	}
	_ = os.RemoveAll(p.dir)
}

// reset clears what a discarded set-up repetition left in the pass.
func (p *pass) reset() {
	p.regs, p.devices, p.telem = nil, nil, nil
	p.edgeRounds, p.edgeStart = nil, nil
	if p.journal != nil {
		_ = p.journal.Close()
		p.journal = nil
	}
}

func clientNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("c%03d", i)
	}
	return names
}

// serverRegistry gives a server its metric registry when the pass is
// traced (the engine's phase histograms) or the workload needs one.
func (p *pass) serverRegistry(always bool) *obs.Registry {
	if p.tr == nil && !always {
		p.regs = append(p.regs, nil)
		return nil
	}
	reg := obs.NewRegistry()
	p.regs = append(p.regs, reg)
	return reg
}

// stubTrainers builds the stub clients, wrapped for tracing when the
// pass is traced.
func (p *pass) stubTrainers(names []string, from int) []fl.Trainer {
	out := make([]fl.Trainer, len(names))
	for i, name := range names {
		var t fl.Trainer = &stubTrainer{in: p.in.stub, index: from + i, id: name}
		if p.tr != nil {
			t = &timedTrainer{Trainer: t, tr: p.tr}
		}
		out[i] = t
	}
	return out
}

// roundHooks wires the ledger, the per-round accounting and, in traced
// passes, the telemetry replay into a server's hooks.
func (p *pass) roundHooks(h *fl.Hooks, reg *obs.Registry, shard string) {
	h.UpdateFolded = p.led.fold
	if reg == nil || p.tr == nil {
		return
	}
	rep := newTelemetryReplay(reg, shard)
	p.telem = append(p.telem, rep)
	h.RoundClosed = func(st fl.RoundStats) { rep.observe(p.tr, st.Round) }
}

func maskSeed(seed int64) func(int) []byte {
	return func(i int) []byte { return []byte(fmt.Sprintf("perfbench-%d-%d", seed, i)) }
}

var fedavgF64 = &workload{
	name:    "fedavg-f64",
	why:     "128 stub clients, plain FedAvg on f64, full participation: round time is f64 encode/decode plus Aggregator.Add",
	clients: 128, cohort: 128,
	prepare: func(in *inputs, seed int64, model []*tensor.Tensor) {
		in.stub = newStubInputs(seed, model, 128, 0)
	},
	open: func(p *pass) (fleet, error) {
		names := clientNames(p.w.clients)
		p.led = newLedger(names)
		reg := p.serverRegistry(false)
		cfg := fl.ServerConfig{SampleSeed: p.seed, Metrics: reg}
		p.roundHooks(&cfg.Hooks, reg, "server")
		return openFlat(cloneState(p.init), cfg, p.stubTrainers(names, 0), wire.CodecF64, nil, p.meter)
	},
	check: func(p *pass, final []*tensor.Tensor, log []roundLog) []gate {
		return []gate{
			fullParticipation(p, log, p.w.clients),
			stubModelGate(p, final, log),
		}
	},
}

var secaggDropout = &workload{
	name:    "secagg-dropout",
	why:     "the fedavg-f64 fleet under k-regular masked aggregation with 1/16 planned failures per round: mask expansion, masked folds and reconciliation",
	clients: 128, cohort: 128,
	prepare: func(in *inputs, seed int64, model []*tensor.Tensor) {
		in.stub = newStubInputs(seed, model, 128, 16)
	},
	open: func(p *pass) (fleet, error) {
		names := clientNames(p.w.clients)
		p.led = newLedger(names)
		reg := p.serverRegistry(false)
		cfg := fl.ServerConfig{
			SampleSeed:       p.seed,
			SecAgg:           true,
			MaskDegree:       secagg.AutoDegree,
			QuarantineRounds: 1,
			Metrics:          reg,
		}
		p.roundHooks(&cfg.Hooks, reg, "server")
		cfg.Hooks.RoundStarted = func(round int, sampled []string) { p.sampled[round] = len(sampled) }
		replay := cfg.Hooks.RoundClosed
		cfg.Hooks.RoundClosed = func(st fl.RoundStats) {
			p.reconciled[st.Round] = st.Reconciled
			if replay != nil {
				replay(st)
			}
		}
		return openFlat(cloneState(p.init), cfg, p.stubTrainers(names, 0), wire.CodecF64, maskSeed(p.seed), p.meter)
	},
	check: func(p *pass, final []*tensor.Tensor, log []roundLog) []gate {
		return []gate{stubModelGate(p, final, log)}
	},
}

var gradsecDevice = &workload{
	name:    "gradsec-device",
	why:     "4 GradSec TEE devices with attestation, a moving-window plan and the sealed path: the paper's own training cost",
	clients: 4, cohort: 4,
	prepare: func(in *inputs, seed int64, _ []*tensor.Tensor) {
		in.device = newDeviceInputs(seed, 4)
	},
	open: func(p *pass) (fleet, error) {
		names := make([]string, p.w.clients)
		for i := range names {
			names[i] = fmt.Sprintf("dev-%d", i)
		}
		p.led = newLedger(names)
		plan, err := core.UniformDynamicPlan(2, 5)
		if err != nil {
			return nil, err
		}
		verifier := tz.NewVerifier()
		trainers := make([]fl.Trainer, len(names))
		for d, name := range names {
			dev := tz.NewDevice(name)
			dt := &deviceTrainer{dev: dev, tr: p.tr}
			d := d
			batch := func(cycle, iter int) (*tensor.Tensor, *tensor.Tensor) {
				return p.in.device.batch(d, cycle, iter)
			}
			if p.tr != nil {
				batch = func(cycle, iter int) (*tensor.Tensor, *tensor.Tensor) {
					t0 := time.Now()
					x, y := p.in.device.batch(d, cycle, iter)
					dt.batchNS.Add(time.Since(t0).Nanoseconds())
					return x, y
				}
			}
			st, err := core.NewSecureTrainer(dev, newModel(), plan, core.TrainerConfig{Iterations: deviceIters, LR: deviceLR, Batch: batch})
			if err != nil {
				return nil, err
			}
			dt.GradSecClient = core.NewGradSecClient(name, st)
			verifier.RegisterDevice(dev.Identity().ID(), dev.Identity().RootKey())
			m, err := dev.Measurement(st.TAUUID())
			if err != nil {
				return nil, err
			}
			verifier.AllowMeasurement(m)
			p.devices = append(p.devices, dt)
			trainers[d] = dt
		}
		shape := newModel()
		planner := core.NewPlanner(plan, shape, func(layers []int) map[int]bool {
			return core.FlatIndicesForLayers(shape, layers)
		})
		reg := p.serverRegistry(false)
		cfg := fl.ServerConfig{
			RequireTEE: true, Verifier: verifier, Planner: planner,
			MinClients: len(names), SampleSeed: p.seed, Metrics: reg,
		}
		p.roundHooks(&cfg.Hooks, reg, "server")
		return openFlat(cloneState(p.init), cfg, trainers, wire.CodecF64, nil, p.meter)
	},
	check: func(p *pass, final []*tensor.Tensor, log []roundLog) []gate {
		return []gate{
			fullParticipation(p, log, p.w.clients),
			deviceModelGate(p, final, log),
		}
	},
}

const (
	hierEdges     = 8
	hierShardSize = 16
)

var hierQ8Durable = &workload{
	name:    "hier-q8-durable",
	why:     "8 edges x 16 stub clients on q8 with a fsynced root journal and in-band edge telemetry: q8 folds, exact partials, journal and obs",
	clients: hierEdges * hierShardSize, cohort: hierShardSize,
	prepare: func(in *inputs, seed int64, model []*tensor.Tensor) {
		in.stub = newStubInputs(seed, model, hierEdges*hierShardSize, 0)
	},
	open: func(p *pass) (fleet, error) {
		names := clientNames(p.w.clients)
		p.led = newLedger(names)
		p.journalPath = filepath.Join(p.dir, fmt.Sprintf("root-%d.journal", time.Now().UnixNano()))
		j, err := journal.Create(p.journalPath)
		if err != nil {
			return nil, err
		}
		p.journal = j
		if p.tr != nil {
			j.Instrument(
				p.layerReg.Histogram("perfbench_journal_ns", "root journal I/O", "op", "append"),
				p.layerReg.Histogram("perfbench_journal_ns", "root journal I/O", "op", "sync"),
			)
		}
		rcfg := hier.RootConfig{Rounds: 1 << 30, Journal: j, Metrics: obs.NewRegistry()}
		p.edgeRounds = make([]map[int]time.Duration, hierEdges)
		p.edgeStart = make([]time.Time, hierEdges)
		ecfgs := make([]hier.EdgeConfig, hierEdges)
		shards := make([][]fl.Trainer, hierEdges)
		for e := range ecfgs {
			name := fmt.Sprintf("edge-%d", e)
			reg := p.serverRegistry(true)
			scfg := fl.ServerConfig{Codec: wire.CodecQ8, SampleSeed: p.seed + int64(e), Metrics: reg}
			p.roundHooks(&scfg.Hooks, reg, name)
			e := e
			p.edgeRounds[e] = make(map[int]time.Duration)
			scfg.Hooks.RoundStarted = func(int, []string) { p.edgeStart[e] = time.Now() }
			replay := scfg.Hooks.RoundClosed
			scfg.Hooks.RoundClosed = func(st fl.RoundStats) {
				p.edgeRounds[e][st.Round] = time.Since(p.edgeStart[e])
				if replay != nil {
					replay(st)
				}
			}
			ecfgs[e] = hier.EdgeConfig{Name: name, Server: scfg}
			shards[e] = p.stubTrainers(names[e*hierShardSize:(e+1)*hierShardSize], e*hierShardSize)
		}
		return openHier(cloneState(p.init), rcfg, ecfgs, shards, wire.CodecQ8, p.meter)
	},
	check: func(p *pass, final []*tensor.Tensor, log []roundLog) []gate {
		return []gate{
			fullParticipation(p, log, p.w.clients),
			stubModelGate(p, final, log),
			q8ConstantGate(p),
		}
	},
}

var workloads = []*workload{fedavgF64, secaggDropout, gradsecDevice, hierQ8Durable}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
