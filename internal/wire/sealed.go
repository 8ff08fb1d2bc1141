package wire

import (
	"fmt"

	"github.com/gradsec/gradsec/internal/tensor"
)

// EncodeSealedUpdate encodes indexed tensors for transport inside a
// trusted channel: count, then (flatIndex, tensor) pairs. The sealed
// path always uses the exact f64 encoding — protected tensors are never
// quantised. (fl.SealedUpdate wraps this; it also lives here so the
// server-side aggregation enclave (internal/secagg) can parse sealed
// blobs without depending on the protocol package.)
func EncodeSealedUpdate(idx []int, ts []*tensor.Tensor) []byte {
	n := uvarintSize(uint64(len(idx))) + TensorListSize(ts, CodecF64)
	for _, id := range idx {
		n += uvarintSize(uint64(id))
	}
	w := NewWriterSize(n)
	w.Uvarint(uint64(len(idx)))
	for i, id := range idx {
		w.Uvarint(uint64(id))
		w.Tensor(ts[i])
	}
	return w.Bytes()
}

// DecodeSealedUpdate decodes a blob produced by EncodeSealedUpdate.
func DecodeSealedUpdate(blob []byte) (idx []int, ts []*tensor.Tensor, err error) {
	r := NewReader(blob)
	n := int(r.Uvarint())
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	if n < 0 || n > len(blob) {
		return nil, nil, fmt.Errorf("wire: sealed update claims %d entries", n)
	}
	idx = make([]int, 0, n)
	ts = make([]*tensor.Tensor, 0, n)
	for i := 0; i < n; i++ {
		idx = append(idx, int(r.Uvarint()))
		ts = append(ts, r.Tensor())
		if err := r.Err(); err != nil {
			return nil, nil, err
		}
	}
	return idx, ts, nil
}
