package fl

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/tz"
	"github.com/gradsec/gradsec/internal/wire"
)

// fixedTrainer answers every round with the same prebuilt update, so a
// session's allocations are the protocol's own.
type fixedTrainer struct {
	id  string
	upd []*tensor.Tensor
}

func (f *fixedTrainer) DeviceID() string                   { return f.id }
func (f *fixedTrainer) HasTEE() bool                       { return false }
func (f *fixedTrainer) Attest([]byte) (tz.Quote, error)    { return tz.Quote{}, nil }
func (f *fixedTrainer) OpenChannel([]byte) ([]byte, error) { return nil, nil }
func (f *fixedTrainer) TrainRound(int, []*tensor.Tensor, []byte, []byte) ([]*tensor.Tensor, []byte, error) {
	return f.upd, nil, nil
}

// allocModel is a two-tensor model of 33 024 elements (~258 KiB in f64),
// large enough that per-message bookkeeping is noise against the model.
func allocModel() []*tensor.Tensor {
	return []*tensor.Tensor{tensor.New(128, 256), tensor.New(256)}
}

// TestRoundAllocationBudget: a plain f64 round over pipes allocates at
// most 1.5 model-sized buffers per client. Each client's update frame
// is one model; the model broadcast is encoded once, decoded into
// pooled client buffers, and the server folds every update straight
// from its frame.
func TestRoundAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations and drops sync.Pool entries")
	}
	const clients, warmup, rounds = 16, 2, 4
	model := allocModel()
	upd := []*tensor.Tensor{tensor.Full(0.5, 128, 256), tensor.Full(-0.25, 256)}
	conns := make([]Conn, clients)
	done := make(chan error, clients)
	for i := range conns {
		sc, cc := Pipe()
		conns[i] = sc
		c := NewClient(cc, &fixedTrainer{id: fmt.Sprintf("c%02d", i), upd: upd})
		go func() { done <- c.Run() }()
	}
	srv := NewServer(model, ServerConfig{Rounds: warmup + rounds, MinClients: clients})
	if _, err := srv.Open(conns); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < warmup; r++ {
		if _, err := srv.StepRound(r); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for r := warmup; r < warmup+rounds; r++ {
		if _, err := srv.StepRound(r); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if err := srv.Close(nil); err != nil {
		t.Fatal(err)
	}
	for range conns {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	modelBytes := float64(8 * (128*256 + 256))
	perRound := float64(after.TotalAlloc-before.TotalAlloc) / rounds
	if budget := 1.5 * modelBytes * clients; perRound > budget {
		t.Fatalf("a round allocated %.0f bytes = %.2f models per client, budget 1.5",
			perRound, perRound/modelBytes/clients)
	}
}

// TestEncodeGradUpAllocatesOnePayload: encoding an update sizes its
// buffer up front — one payload allocation with at most 5 % spare
// capacity, beside the small Writer header.
func TestEncodeGradUpAllocatesOnePayload(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	upd := allocModel()
	for _, codec := range []wire.Codec{wire.CodecF64, wire.CodecF32, wire.CodecQ8} {
		m := &GradUp{Round: 3, Plain: upd, Sealed: []byte{1, 2, 3}, Examples: 9, Version: 3, Telemetry: []byte{4}}
		var payload []byte
		allocs := testing.AllocsPerRun(20, func() { payload = EncodeMessageCodec(m, codec) })
		if allocs > 2 {
			t.Errorf("%s: encoding a GradUp made %v allocations, want the payload and the writer", codec, allocs)
		}
		if c, n := cap(payload), len(payload); float64(c) > 1.05*float64(n) {
			t.Errorf("%s: %d-byte GradUp payload has capacity %d, want ≤ 1.05×", codec, n, c)
		}
	}
}
