package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gradsec/gradsec/internal/core"
	"github.com/gradsec/gradsec/internal/dataset"
	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/hier"
	"github.com/gradsec/gradsec/internal/nn"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/tz"
	"github.com/gradsec/gradsec/internal/wire"
)

// modelSeed fixes the LeNet-5 initialisation of every workload; the
// workload seed drives only the generated inputs.
const modelSeed = 7

func newModel() *nn.Network {
	return nn.NewLeNet5(rand.New(rand.NewSource(modelSeed)), nn.ActReLU)
}

func cloneState(state []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(state))
	for i, t := range state {
		out[i] = t.Clone()
	}
	return out
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// errSessionEnded reports a step on a session the engine already ended.
var errSessionEnded = errors.New("perfbench: session ended")

// errPlannedFailure is the training failure a stub client reports when
// the dropout schedule names it.
var errPlannedFailure = errors.New("planned training failure")

// fleet is one workload's running FL session, stepped one synchronous
// round at a time: the next round starts only after the previous one
// closed.
type fleet interface {
	// step runs round r to completion. The result is filled as far as
	// the round got, also when it failed.
	step(r int) (stepResult, error)
	// close ends the session, waits for every goroutine the fleet
	// started and returns the final global model.
	close() ([]*tensor.Tensor, error)
}

// stepResult is one round as seen from outside the engine.
type stepResult struct {
	d      time.Duration // round time
	folded int           // client updates in the applied aggregate
	norm   float64       // RoundStats.UpdateNorm of the applied aggregate
}

// ledger collects what the engine reports through its hooks: the
// clients each round folded. Hooks of hierarchical edges fire on the
// edges' goroutines, hence the lock.
type ledger struct {
	index map[string]int // device name → client index; read-only after set-up

	mu     sync.Mutex
	folded map[int][]int
}

func newLedger(names []string) *ledger {
	idx := make(map[string]int, len(names))
	for i, n := range names {
		idx[n] = i
	}
	return &ledger{index: idx, folded: make(map[int][]int)}
}

func (l *ledger) fold(round int, device string) {
	l.mu.Lock()
	l.folded[round] = append(l.folded[round], l.index[device])
	l.mu.Unlock()
}

// foldedIn returns the clients folded in a round, in index order.
func (l *ledger) foldedIn(round int) []int {
	l.mu.Lock()
	out := append([]int(nil), l.folded[round]...)
	l.mu.Unlock()
	sort.Ints(out)
	return out
}

// clientSet is a fleet's device side: one fl.Client per trainer on its
// own goroutine, each on an in-memory pipe whose client end carries the
// benchmark's wire meter.
type clientSet struct {
	wg   sync.WaitGroup
	errs []error
}

// start connects every trainer and returns the server ends of the pipes.
func (cs *clientSet) start(trainers []fl.Trainer, maxCodec wire.Codec, maskSeed func(i int) []byte, meter *wire.Meter) []fl.Conn {
	conns := make([]fl.Conn, len(trainers))
	base := len(cs.errs)
	cs.errs = append(cs.errs, make([]error, len(trainers))...)
	for i, t := range trainers {
		server, client := fl.Pipe()
		fl.SetMeter(client, meter)
		conns[i] = server
		c := fl.NewClient(client, t)
		c.MaxCodec = maxCodec
		if maskSeed != nil {
			c.MaskSeed = maskSeed(i)
		}
		cs.wg.Add(1)
		go func(slot int) {
			defer cs.wg.Done()
			cs.errs[slot] = c.Run()
		}(base + i)
	}
	return conns
}

// wait blocks until every client returned and reports the first error.
func (cs *clientSet) wait() error {
	cs.wg.Wait()
	for i, err := range cs.errs {
		if err != nil {
			return fmt.Errorf("client %d: %w", i, err)
		}
	}
	return nil
}

// flatFleet is a single fl.Server stepped through Open/StepRound/Close.
type flatFleet struct {
	srv     *fl.Server
	clients clientSet
	last    fl.RoundStats // set by the RoundClosed hook on the stepping goroutine
}

// openFlat builds the server, connects the clients and opens the
// session. cfg.Hooks.RoundClosed is chained to record the round stats.
func openFlat(state []*tensor.Tensor, cfg fl.ServerConfig, trainers []fl.Trainer, maxCodec wire.Codec, maskSeed func(int) []byte, meter *wire.Meter) (*flatFleet, error) {
	f := &flatFleet{}
	closed := cfg.Hooks.RoundClosed
	cfg.Hooks.RoundClosed = func(st fl.RoundStats) {
		f.last = st
		if closed != nil {
			closed(st)
		}
	}
	f.srv = fl.NewServer(state, cfg)
	conns := f.clients.start(trainers, maxCodec, maskSeed, meter)
	if _, err := f.srv.Open(conns); err != nil {
		for _, c := range conns {
			_ = c.Close()
		}
		_ = f.clients.wait()
		return nil, fmt.Errorf("opening session: %w", err)
	}
	return f, nil
}

func (f *flatFleet) step(r int) (stepResult, error) {
	t0 := time.Now()
	_, err := f.srv.StepRound(r)
	res := stepResult{d: time.Since(t0)}
	if err != nil {
		return res, err
	}
	res.folded, res.norm = f.last.Responded, f.last.UpdateNorm
	return res, nil
}

func (f *flatFleet) close() ([]*tensor.Tensor, error) {
	if err := f.srv.Close(nil); err != nil {
		return nil, err
	}
	if err := f.clients.wait(); err != nil {
		return nil, err
	}
	return f.srv.State(), nil
}

// hierFleet is a hier.Root over edges, each an fl.Server for its shard.
// The root paces its own rounds, so the benchmark holds it at the start
// of every round through the Rejoin callback and releases one round per
// step; the round is timed from the root's RoundStarted hook to its
// RoundClosed hook.
type hierFleet struct {
	root    *hier.Root
	edges   []*hier.Edge
	clients clientSet
	edgeWG  sync.WaitGroup

	gate     chan struct{}
	ready    chan struct{} // closed when the root first waits at the gate
	readyOne sync.Once
	closed   chan hierRound
	ended    chan struct{} // closed when root.Run returned
	runErr   error
	stopping atomic.Bool
	started  time.Time // root goroutine only
}

type hierRound struct {
	d  time.Duration
	st fl.RoundStats
}

// openHier starts the root, the edges and their clients, and returns
// once the root enrolled every edge and every edge opened its shard.
// rcfg.Hooks.RoundStarted/RoundClosed and rcfg.Rejoin are taken over.
func openHier(state []*tensor.Tensor, rcfg hier.RootConfig, ecfgs []hier.EdgeConfig, shards [][]fl.Trainer, maxCodec wire.Codec, meter *wire.Meter) (*hierFleet, error) {
	f := &hierFleet{
		gate:   make(chan struct{}),
		ready:  make(chan struct{}),
		closed: make(chan hierRound, 1),
		ended:  make(chan struct{}),
	}
	rcfg.Rejoin = func(int) []fl.Conn {
		f.readyOne.Do(func() { close(f.ready) })
		<-f.gate
		return nil
	}
	rcfg.Hooks.RoundStarted = func(int, []string) { f.started = time.Now() }
	rcfg.Hooks.RoundClosed = func(st fl.RoundStats) {
		d := time.Since(f.started)
		if !f.stopping.Load() {
			f.closed <- hierRound{d: d, st: st}
		}
	}
	f.root = hier.NewRoot(state, rcfg)
	rootEnds := make([]fl.Conn, len(ecfgs))
	var edgeDone atomic.Int32
	for e, ecfg := range ecfgs {
		rootSide, edgeSide := fl.Pipe()
		fl.SetMeter(edgeSide, meter)
		rootEnds[e] = rootSide
		edge := hier.NewEdge(cloneState(state), ecfg)
		f.edges = append(f.edges, edge)
		conns := f.clients.start(shards[e], maxCodec, nil, meter)
		f.edgeWG.Add(1)
		go func() {
			defer f.edgeWG.Done()
			defer edgeDone.Add(1)
			_ = edge.Run(edgeSide, conns) // stopping the fleet is what ends an edge
		}()
	}
	go func() {
		defer close(f.ended)
		_, f.runErr = f.root.Run(rootEnds)
	}()
	select {
	case <-f.ready:
	case <-f.ended:
		f.wait()
		return nil, fmt.Errorf("enrolling edges: %v", f.runErr)
	}
	for !f.shardsOpen() {
		if edgeDone.Load() > 0 {
			_, _ = f.close()
			return nil, errors.New("an edge left before opening its shard")
		}
		time.Sleep(50 * time.Microsecond)
	}
	return f, nil
}

func (f *hierFleet) shardsOpen() bool {
	for _, e := range f.edges {
		if !e.Health().Open {
			return false
		}
	}
	return true
}

func (f *hierFleet) step(r int) (stepResult, error) {
	select {
	case f.gate <- struct{}{}:
	case <-f.ended:
		return stepResult{}, errSessionEnded
	}
	select {
	case h := <-f.closed:
		res := stepResult{d: h.d}
		if h.st.Round != r {
			return res, fmt.Errorf("root closed round %d, want %d", h.st.Round, r)
		}
		// The root commits a round only when every enrolled shard
		// folded a partial; anything less is a failed round.
		if h.st.Shards != len(f.edges) || h.st.Responded == 0 {
			return res, fmt.Errorf("root round %d folded %d of %d shards", r, h.st.Shards, len(f.edges))
		}
		res.folded, res.norm = h.st.Responded, h.st.UpdateNorm
		return res, nil
	case <-f.ended:
		return stepResult{}, errSessionEnded
	}
}

// close stops the session by aborting every edge and releasing the
// root into one more round, which finds no shard and fails; the root
// then tears its session down.
func (f *hierFleet) close() ([]*tensor.Tensor, error) {
	f.stopping.Store(true)
	for _, e := range f.edges {
		e.Abort()
	}
	close(f.gate)
	f.wait()
	if f.runErr != nil && !errors.Is(f.runErr, hier.ErrNotEnoughShards) {
		return nil, fmt.Errorf("root: %w", f.runErr)
	}
	return f.root.State(), nil
}

func (f *hierFleet) wait() {
	<-f.ended
	f.edgeWG.Wait()
	f.clients.wg.Wait() // clients of aborted edges end with a transport error
}

// stubInputs are the client updates of the stub workloads, made during
// set-up from the workload seed: a pool of dyadic constant updates
// (every sum of them is exact in float64, so aggregates can be checked
// bit for bit), each client's pick from the pool per round, and the
// planned training failures.
type stubInputs struct {
	seed int64
	vals [][]float64        // vals[p][i]: the constant of tensor i in pool entry p
	pool [][]*tensor.Tensor // pool[p]: the update tensors of entry p
	// fails[r % len(fails)][c] plans a training failure of client c in
	// round r; nil when the workload has no dropout.
	fails [][]bool
}

const (
	poolSize = 16
	// failRounds is the period of the dropout schedule.
	failRounds = 1024
)

func newStubInputs(seed int64, model []*tensor.Tensor, clients, failEvery int) *stubInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &stubInputs{seed: seed}
	for p := 0; p < poolSize; p++ {
		vals := make([]float64, len(model))
		upd := make([]*tensor.Tensor, len(model))
		for i, t := range model {
			vals[i] = float64(rng.Intn(512)-256) / 256
			upd[i] = tensor.Full(vals[i], t.Shape...)
		}
		in.vals = append(in.vals, vals)
		in.pool = append(in.pool, upd)
	}
	if failEvery > 0 {
		in.fails = make([][]bool, failRounds)
		for r := range in.fails {
			in.fails[r] = make([]bool, clients)
			for _, c := range rng.Perm(clients)[:clients/failEvery] {
				in.fails[r][c] = true
			}
		}
	}
	return in
}

func (in *stubInputs) pick(client, round int) int {
	h := splitmix64(uint64(in.seed)*0x100000001b3 ^ uint64(client)<<20 ^ uint64(round))
	return int(h % poolSize)
}

func (in *stubInputs) failing(client, round int) bool {
	return in.fails != nil && in.fails[round%len(in.fails)][client]
}

// mean is the plaintext FedAvg of the updates the given clients sent in
// a round, in the engine's arithmetic: the exact sum scaled by 1/n.
func (in *stubInputs) mean(round int, folded []int, model []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(model))
	inv := 1 / float64(len(folded))
	for i, t := range model {
		sum := 0.0
		for _, c := range folded {
			sum += in.vals[in.pick(c, round)][i]
		}
		out[i] = tensor.Full(sum*inv, t.Shape...)
	}
	return out
}

// stubTrainer answers every round with its precomputed pool update, or
// with the planned failure.
type stubTrainer struct {
	in    *stubInputs
	index int
	id    string
}

func (s *stubTrainer) DeviceID() string                   { return s.id }
func (s *stubTrainer) HasTEE() bool                       { return false }
func (s *stubTrainer) Attest([]byte) (tz.Quote, error)    { return tz.Quote{}, nil }
func (s *stubTrainer) OpenChannel([]byte) ([]byte, error) { return nil, nil }
func (s *stubTrainer) TrainRound(round int, _ []*tensor.Tensor, _, _ []byte) ([]*tensor.Tensor, []byte, error) {
	if s.in.failing(s.index, round) {
		return nil, nil, errPlannedFailure
	}
	return s.in.pool[s.in.pick(s.index, round)], nil, nil
}

// timedTrainer records every TrainRound of the trainer it wraps as a
// "train" span of the round it serves.
type timedTrainer struct {
	fl.Trainer
	tr *tracer
}

func (t *timedTrainer) TrainRound(round int, plain []*tensor.Tensor, sealed, plan []byte) ([]*tensor.Tensor, []byte, error) {
	id := t.tr.start("train", round, t.tr.roundSpan(round))
	p, s, err := t.Trainer.TrainRound(round, plain, sealed, plan)
	t.tr.end(id)
	return p, s, err
}

// deviceInputs are the gradsec-device training batches, generated
// during set-up: a fixed pool per device, cycled by (cycle, iteration).
type deviceInputs struct {
	batches [][][2]*tensor.Tensor // [device][k] → (x, y)
}

const (
	deviceIters     = 2
	deviceBatch     = 8
	deviceBatchPool = 8
	deviceLR        = 0.05
)

func newDeviceInputs(seed int64, devices int) *deviceInputs {
	gen := dataset.NewGenerator(rand.New(rand.NewSource(seed)), nn.NumClasses, 3, 32, 32, 0.2)
	in := &deviceInputs{}
	for d := 0; d < devices; d++ {
		rng := rand.New(rand.NewSource(seed + int64(d) + 1))
		data := gen.FixedSet(rng, 1)
		var pool [][2]*tensor.Tensor
		for k := 0; k < deviceBatchPool; k++ {
			x, y := data.RandomBatch(rng, deviceBatch)
			pool = append(pool, [2]*tensor.Tensor{x, y})
		}
		in.batches = append(in.batches, pool)
	}
	return in
}

func (in *deviceInputs) batch(device, cycle, iter int) (*tensor.Tensor, *tensor.Tensor) {
	pool := in.batches[device]
	b := pool[(cycle*deviceIters+iter)%len(pool)]
	return b[0], b[1]
}

// deviceTrainer wraps a GradSec client to read the device's TEE
// counters around every TrainRound: the secure-memory peak (reset
// inside each cycle) and the SMC world switches.
type deviceTrainer struct {
	*core.GradSecClient
	dev *tz.Device
	tr  *tracer // nil in untraced passes
	// cycles is appended by the client goroutine and read after the
	// session closed.
	cycles []cycleStat
	// batchNS accumulates time spent in the harness's batch supplier
	// (traced passes only).
	batchNS atomic.Int64
}

type cycleStat struct {
	round int
	train time.Duration
	smc   int64
	peak  int
}

func (d *deviceTrainer) TrainRound(round int, plain []*tensor.Tensor, sealed, plan []byte) ([]*tensor.Tensor, []byte, error) {
	id := d.tr.start("train", round, d.tr.roundSpan(round))
	smc := d.dev.SMCCount()
	t0 := time.Now()
	p, s, err := d.GradSecClient.TrainRound(round, plain, sealed, plan)
	dur := time.Since(t0)
	d.tr.end(id)
	d.cycles = append(d.cycles, cycleStat{round: round, train: dur, smc: d.dev.SMCCount() - smc, peak: d.dev.SecureMemory().Peak()})
	return p, s, err
}
