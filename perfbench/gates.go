package main

import (
	"fmt"
	"math"
	"sync"

	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/nn"
	"github.com/gradsec/gradsec/internal/opt"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/wire"
)

// gate is one correctness check of a pass; any failed gate makes the
// run exit non-zero.
type gate struct {
	name   string
	ok     bool
	detail string
}

func holds(name string) gate { return gate{name: name, ok: true} }

func fail(name, format string, args ...any) gate {
	return gate{name: name, detail: fmt.Sprintf(format, args...)}
}

// fullParticipation checks that every round closed with every client
// folded.
func fullParticipation(p *pass, log []roundLog, clients int) gate {
	const name = "every round closed with every client folded"
	for _, l := range log {
		if !l.ok {
			return fail(name, "round %d failed: %v", l.round, l.err)
		}
		if n := len(p.led.foldedIn(l.round)); n != clients || l.folded != clients {
			return fail(name, "round %d folded %d (engine says %d) of %d", l.round, n, l.folded, clients)
		}
	}
	return holds(name)
}

func bitEqual(a, b []*tensor.Tensor) (int, int, bool) {
	for i := range a {
		for j, v := range a[i].Data {
			if math.Float64bits(v) != math.Float64bits(b[i].Data[j]) {
				return i, j, false
			}
		}
	}
	return 0, 0, true
}

// stubModelGate checks the stub workloads bit for bit: every closed
// round's aggregate is the plaintext mean of the dyadic updates of the
// clients it folded (compared through the engine's UpdateNorm), and the
// final model is the initial one plus those means applied in order.
func stubModelGate(p *pass, final []*tensor.Tensor, log []roundLog) gate {
	const name = "aggregates and final model bit-identical to plaintext FedAvg of the folded updates"
	want := cloneState(p.init)
	for _, l := range log {
		if !l.ok {
			continue
		}
		folded := p.led.foldedIn(l.round)
		if len(folded) != l.folded {
			return fail(name, "round %d: hooks saw %d folds, the engine applied %d", l.round, len(folded), l.folded)
		}
		mean := p.in.stub.mean(l.round, folded, want)
		if norm := fl.UpdateNorm(mean); math.Float64bits(norm) != math.Float64bits(l.norm) {
			return fail(name, "round %d: aggregate norm %v, plaintext mean norm %v", l.round, l.norm, norm)
		}
		fl.ApplyUpdate(want, mean, 1)
	}
	if i, j, ok := bitEqual(want, final); !ok {
		return fail(name, "final tensor %d element %d: %v, want %v", i, j, final[i].Data[j], want[i].Data[j])
	}
	return holds(name)
}

// deviceModelGate replays the gradsec-device session as plain-SGD
// FedAvg on the same batches, without any TEE, and checks the final
// model against it within 1e-9.
func deviceModelGate(p *pass, final []*tensor.Tensor, log []roundLog) gate {
	const name = "final model matches plain-SGD FedAvg within 1e-9"
	want := cloneState(p.init)
	nets := make([]*nn.Network, p.w.clients)
	for d := range nets {
		nets[d] = newModel()
	}
	for _, l := range log {
		if !l.ok {
			continue
		}
		folded := p.led.foldedIn(l.round)
		updates := make([][]*tensor.Tensor, len(folded))
		var wg sync.WaitGroup
		for k, d := range folded {
			wg.Add(1)
			go func(k, d int) {
				defer wg.Done()
				updates[k] = plainUpdate(nets[d], want, p.in.device, d, l.round)
			}(k, d)
		}
		wg.Wait()
		if len(updates) == 0 {
			return fail(name, "round %d closed without updates", l.round)
		}
		fl.ApplyUpdate(want, fl.FedAvg(updates), 1)
	}
	for i := range want {
		if !final[i].EqualApprox(want[i], 1e-9) {
			return fail(name, "final tensor %d diverged from the plain-SGD reference", i)
		}
	}
	return holds(name)
}

// plainUpdate runs one device's local training of a round in the
// normal world: the reference the TEE split must reproduce.
func plainUpdate(net *nn.Network, global []*tensor.Tensor, in *deviceInputs, device, round int) []*tensor.Tensor {
	if err := net.LoadState(global); err != nil {
		panic(err) // same architecture by construction
	}
	before := net.StateDict()
	o := opt.NewSGD(deviceLR, 0)
	for it := 0; it < deviceIters; it++ {
		x, y := in.batch(device, round, it)
		net.TrainStep(x, y, o)
	}
	after := net.StateDict()
	upd := make([]*tensor.Tensor, len(after))
	for i := range after {
		upd[i] = tensor.Sub(after[i], before[i])
	}
	return upd
}

// q8ConstantGate checks that the q8 codec carries every stub update,
// a tuple of constant tensors, exactly.
func q8ConstantGate(p *pass) gate {
	const name = "q8 round-trips the constant stub updates exactly"
	for k, upd := range p.in.stub.pool {
		payload := fl.EncodeMessageCodec(&fl.GradUp{Plain: upd}, wire.CodecQ8)
		m, err := fl.DecodeMessageCodec(fl.MsgGradUp, payload, wire.CodecQ8)
		if err != nil {
			return fail(name, "pool entry %d: %v", k, err)
		}
		if i, j, ok := bitEqual(upd, m.(*fl.GradUp).Tensors()); !ok {
			return fail(name, "pool entry %d tensor %d element %d changed", k, i, j)
		}
	}
	return holds(name)
}
