package wire

import (
	"bytes"
	"math"
	"testing"

	"github.com/gradsec/gradsec/internal/tensor"
)

// TestLazyMatchesEagerEveryCodec: under every codec a lazily decoded
// list materialises to exactly what the eager decoder returns,
// re-encodes verbatim under its own codec and through its values under
// any other, and the size functions predict every encoding to the byte.
func TestLazyMatchesEagerEveryCodec(t *testing.T) {
	src := []*tensor.Tensor{
		tensor.FromSlice([]float64{-1.5, 0.1, 1e-40, 3.75, 2, math.Inf(1)}, 2, 3),
		nil,
		tensor.FromSlice([]float64{7, 7, 7}, 3),
	}
	codecs := []Codec{CodecF64, CodecF32, CodecQ8}
	for _, c := range codecs {
		w := NewWriter()
		w.Codec = c
		w.TensorList(src)
		encoded := w.Bytes()
		if got := TensorListSize(src, c); got != len(encoded) {
			t.Fatalf("%s: TensorListSize = %d, encoding is %d bytes", c, got, len(encoded))
		}

		eager := NewReader(encoded)
		eager.Codec = c
		want := eager.TensorList()
		lazy := NewReader(encoded)
		lazy.Codec = c
		got := lazy.LazyTensorList()
		if eager.Err() != nil || lazy.Err() != nil {
			t.Fatalf("%s: decode errors %v, %v", c, eager.Err(), lazy.Err())
		}
		if len(got) != len(want) || got[1] != nil {
			t.Fatalf("%s: lazy list = %v", c, got)
		}
		for i, lt := range got {
			if lt == nil {
				continue
			}
			if lt.Codec != c || !lt.Valid() || !lt.SameShape(want[i]) {
				t.Fatalf("%s: tensor %d = %+v", c, i, lt)
			}
			m := lt.Materialise()
			for j := range want[i].Data {
				if math.Float64bits(m.Data[j]) != math.Float64bits(want[i].Data[j]) {
					t.Fatalf("%s: tensor %d elem %d: lazy %v != eager %v", c, i, j, m.Data[j], want[i].Data[j])
				}
			}
		}

		for _, to := range codecs {
			re := NewWriter()
			re.Codec = to
			re.LazyTensorList(got)
			if n := LazyTensorListSize(got, to); n != re.Len() {
				t.Fatalf("%s→%s: LazyTensorListSize = %d, encoding is %d bytes", c, to, n, re.Len())
			}
			ref := NewWriter()
			ref.Codec = to
			ref.TensorList(want)
			if !bytes.Equal(re.Bytes(), ref.Bytes()) {
				t.Fatalf("%s→%s: lazy re-encode differs from encoding the decoded values", c, to)
			}
			if to == c && !bytes.Equal(re.Bytes(), encoded) {
				t.Fatalf("%s: verbatim re-encode diverged from the original bytes", c)
			}
		}
	}

	levels := []*U64Tensor{nil, {Shape: []int{2, 200}, Levels: make([]uint64, 400)}}
	w := NewWriter()
	w.U64TensorList(levels)
	if got := U64TensorListSize(levels); got != w.Len() {
		t.Fatalf("U64TensorListSize = %d, encoding is %d bytes", got, w.Len())
	}
}

// TestLazyTensorValid: a hand-built lazy tensor whose payload does not
// match its shape and codec is reported invalid.
func TestLazyTensorValid(t *testing.T) {
	for _, tc := range []struct {
		lt   LazyTensor
		want bool
	}{
		{LazyTensor{Shape: []int{2}, Codec: CodecF64, Data: make([]byte, 16)}, true},
		{LazyTensor{Shape: []int{2}, Codec: CodecF64, Data: make([]byte, 8)}, false},
		{LazyTensor{Shape: []int{2}, Codec: CodecF32, Data: make([]byte, 8)}, true},
		{LazyTensor{Shape: []int{2}, Codec: CodecQ8, Data: make([]byte, 3)}, false},
		{LazyTensor{Shape: []int{2}, Codec: Codec(9), Data: make([]byte, 16)}, false},
	} {
		if got := tc.lt.Valid(); got != tc.want {
			t.Errorf("%+v: Valid = %v, want %v", tc.lt, got, tc.want)
		}
	}
}
