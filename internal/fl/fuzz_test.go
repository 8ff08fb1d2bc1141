package fl

import (
	"math"
	"testing"

	"github.com/gradsec/gradsec/internal/secagg"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/wire"
)

// FuzzDecodeMessage throws arbitrary payloads at the protocol decoder
// under every message type and codec: it must never panic, and any
// message it accepts must survive a re-encode/re-decode cycle. Accepted
// GradUp and ModelDown frames carry lazy tensors; those must also
// materialise, fold into an aggregator shaped like them, and re-encode
// to the same values.
func FuzzDecodeMessage(f *testing.F) {
	seeds := []Message{
		&Challenge{Nonce: []byte{1, 2}, ServerPub: []byte{3}, RequireTEE: true, Codec: wire.CodecQ8},
		&Attest{DeviceID: "d", HasTEE: true, ClientPub: []byte{9}, Codec: wire.CodecF32},
		&Reject{Reason: "no"},
		&ModelDown{Round: 2, Plain: []*tensor.Tensor{nil, tensor.Full(1.5, 2, 2)}, Plan: []byte{1}},
		&GradUp{Round: 2, Plain: []*tensor.Tensor{tensor.Full(-0.25, 3)}, Examples: 7},
		// Values that f32 rounds or flushes, and a nil tensor in the list.
		&GradUp{Round: 3, Plain: []*tensor.Tensor{nil, tensor.FromSlice([]float64{0.1, -1e-40, 3e38, -2.5}, 2, 2)}, Sealed: []byte{5}},
		&ModelDown{Round: 3, Plain: []*tensor.Tensor{tensor.FromSlice([]float64{1.0 / 3, -7}, 1, 2), nil}},
		&Done{Final: []*tensor.Tensor{tensor.Full(2, 1)}},
		&ErrorMsg{Text: "boom"},
		&MaskedUp{Round: 1, Levels: []*wire.U64Tensor{nil, {Shape: []int{2}, Levels: []uint64{1, 1 << 63}}}, Examples: 3},
		&MaskRecon{Round: 1, Dropped: []string{"d1", "d2"}},
		&MaskShares{Round: 1, Shares: []secagg.PairShare{{Device: "d1", Seed: [32]byte{7}}}},
	}
	for _, m := range seeds {
		for _, c := range []wire.Codec{wire.CodecF64, wire.CodecF32, wire.CodecQ8} {
			f.Add(byte(m.Kind()), uint8(c), EncodeMessageCodec(m, c))
		}
	}
	f.Add(byte(MsgModelDown), uint8(wire.CodecF64), []byte{0xFF})
	f.Add(byte(200), uint8(wire.CodecF64), []byte{})

	f.Fuzz(func(t *testing.T, mt byte, codec uint8, payload []byte) {
		c := wire.Codec(codec % 3)
		m, err := DecodeMessageCodec(MsgType(mt), payload, c)
		if err != nil {
			return
		}
		re := EncodeMessageCodec(m, c)
		m2, err := DecodeMessageCodec(MsgType(mt), re, c)
		if err != nil {
			t.Fatalf("accepted %T failed to re-decode: %v", m, err)
		}
		if m2.Kind() != m.Kind() {
			t.Fatalf("kind drifted: %v -> %v", m.Kind(), m2.Kind())
		}
		switch m := m.(type) {
		case *GradUp:
			checkLazyTensors(t, m.Q8, m.Tensors(), m2.(*GradUp).Tensors())
		case *ModelDown:
			checkLazyTensors(t, m.Lazy, m.Tensors(), m2.(*ModelDown).Tensors())
		}
	})
}

// checkLazyTensors checks one accepted lazy tensor list: mat is its
// materialised form and again the materialised form after a re-encode
// and re-decode. Both must agree bit for bit, and folding the lazy list
// into an aggregator shaped like it must succeed exactly when it holds
// no nil tensor, reproducing the materialised values.
func checkLazyTensors(t *testing.T, lazy []*wire.LazyTensor, mat, again []*tensor.Tensor) {
	t.Helper()
	if len(mat) != len(lazy) || len(again) != len(lazy) {
		t.Fatalf("materialised %d and re-decoded %d of %d tensors", len(mat), len(again), len(lazy))
	}
	ref := make([]*tensor.Tensor, len(lazy))
	complete := true
	for i, l := range lazy {
		if l == nil {
			if mat[i] != nil || again[i] != nil {
				t.Fatalf("nil tensor %d materialised", i)
			}
			ref[i], complete = tensor.New(1), false
			continue
		}
		if !l.SameShape(mat[i]) || !l.SameShape(again[i]) {
			t.Fatalf("tensor %d changed shape", i)
		}
		for j, v := range mat[i].Data {
			if math.Float64bits(v) != math.Float64bits(again[i].Data[j]) {
				t.Fatalf("tensor %d elem %d: %v re-decoded as %v", i, j, v, again[i].Data[j])
			}
		}
		ref[i] = tensor.New(l.Shape...)
	}
	agg := NewAggregator(ref)
	err := agg.AccumulateQ8(lazy, 1)
	if complete != (err == nil) {
		t.Fatalf("fold of a list with complete=%v returned %v", complete, err)
	}
	if err != nil {
		return
	}
	for i, s := range agg.Sum() {
		for j, v := range s.Data {
			// 0 + 1·x is x, except that −0 folds to +0.
			if w := mat[i].Data[j]; v != w && !(math.IsNaN(v) && math.IsNaN(w)) {
				t.Fatalf("tensor %d elem %d folded as %v, materialised as %v", i, j, v, w)
			}
		}
	}
}
