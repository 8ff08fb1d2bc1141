package wire

import (
	"encoding/binary"
	"math"

	"github.com/gradsec/gradsec/internal/tensor"
)

// LazyTensor is the undecoded form of one tensor as it sits in a frame:
// its shape, the codec it was encoded under, the q8 quantisation header
// and a read-only view of the element bytes. Decoding validates it
// exactly as an eager decode would (rank, dims, amplification budget,
// payload length) but allocates no float64 data, so consumers can fold
// an update straight from the frame (fl.Aggregator.AccumulateQ8) or
// materialise it into a buffer they own (DecodeInto).
//
// Data aliases the frame payload: the frame must stay unmodified for as
// long as the LazyTensor is used, and nothing may write through Data.
type LazyTensor struct {
	Shape []int
	// Codec is the element encoding of Data.
	Codec Codec
	// Lo and Scale are the CodecQ8 header: an element with level q
	// dequantises to Lo + q·Scale. Zero under the other codecs.
	Lo, Scale float64
	// Data holds the element payload: 8 (f64), 4 (f32) or 1 (q8) bytes
	// per element, little-endian.
	Data []byte
}

// elemBytes is the payload cost of one element under c.
func (c Codec) elemBytes() int {
	switch c {
	case CodecF32:
		return 4
	case CodecQ8:
		return 1
	default:
		return 8
	}
}

// payloadSize is the encoded element payload of n elements under c,
// headers included.
func (c Codec) payloadSize(n int) int {
	if c == CodecQ8 {
		return q8Header + n
	}
	return c.elemBytes() * n
}

// Size returns the element count of the tensor.
func (t *LazyTensor) Size() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// Valid reports whether Data holds exactly Size elements under Codec —
// always true for a decoded tensor; hand-built ones are checked before
// any fold reads them.
func (t *LazyTensor) Valid() bool {
	return t.Codec.Valid() && len(t.Data) == t.Codec.elemBytes()*t.Size()
}

// SameShape reports whether t matches the reference tensor's shape.
func (t *LazyTensor) SameShape(ref *tensor.Tensor) bool {
	if len(t.Shape) != len(ref.Shape) {
		return false
	}
	for i, d := range t.Shape {
		if d != ref.Shape[i] {
			return false
		}
	}
	return true
}

// DecodeInto decodes the elements into dst, which must hold exactly
// Size elements. This is the one decode loop per codec: eager decoding
// (Reader.Tensor) and Materialise go through it too, so every consumer
// sees the same values bit for bit.
func (t *LazyTensor) DecodeInto(dst []float64) {
	src := t.Data
	switch t.Codec {
	case CodecF32:
		src = src[:4*len(dst)]
		for i := range dst {
			dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:])))
		}
	case CodecQ8:
		// Reconstruct in two half-steps: for full-range tensors q·scale
		// can overflow even though lo + q·scale is finite, while every
		// partial sum of lo + q·half + q·half stays within [lo, hi].
		lo, half := t.Lo, t.Scale/2
		src = src[:len(dst)]
		for i, b := range src {
			q := float64(b)
			dst[i] = lo + q*half + q*half
		}
	default:
		src = src[:8*len(dst)]
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
		}
	}
}

// Materialise decodes into a fresh float64 tensor.
func (t *LazyTensor) Materialise() *tensor.Tensor {
	data := make([]float64, t.Size())
	t.DecodeInto(data)
	return &tensor.Tensor{Shape: t.Shape, Data: data}
}

// LazyTensor reads one tensor under the reader's Codec without decoding
// its elements; returns nil for the nil marker. The result's Data is a
// view into the reader's buffer, so the caller must keep that buffer
// alive and unmodified while the tensor is in use.
func (r *Reader) LazyTensor() *LazyTensor {
	size, shape := r.tensorHeader()
	if r.err != nil || shape == nil {
		return nil
	}
	if !r.Codec.Valid() {
		r.fail("tensor codec")
		return nil
	}
	// Payload-size check before any slicing.
	if r.Codec.payloadSize(size) > len(r.buf)-r.off {
		r.fail("tensor size")
		return nil
	}
	t := &LazyTensor{Shape: shape, Codec: r.Codec}
	if r.Codec == CodecQ8 {
		t.Lo = r.Float64()
		t.Scale = r.Float64()
	}
	n := r.Codec.elemBytes() * size
	t.Data = r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return t
}

// LazyTensorList reads a tensor list written by Writer.TensorList
// lazily.
func (r *Reader) LazyTensorList() []*LazyTensor {
	return readList(r, "tensor list length", (*Reader).LazyTensor)
}

// LazyTensor re-encodes a lazily decoded tensor: verbatim (header and
// element bytes unchanged) when it was encoded under the writer's Codec,
// otherwise through its decoded values.
func (w *Writer) LazyTensor(t *LazyTensor) {
	if t == nil {
		w.Uvarint(0xFF)
		return
	}
	if t.Codec != w.Codec {
		w.Tensor(t.Materialise())
		return
	}
	w.shape(t.Shape)
	if t.Codec == CodecQ8 {
		w.Float64(t.Lo)
		w.Float64(t.Scale)
	}
	copy(w.grow(len(t.Data)), t.Data)
}

// LazyTensorList re-encodes a lazily decoded tensor list.
func (w *Writer) LazyTensorList(ts []*LazyTensor) {
	w.Uvarint(uint64(len(ts)))
	for _, t := range ts {
		w.LazyTensor(t)
	}
}

// LazyTensorListSize returns the bytes Writer.LazyTensorList appends
// for ts under codec c.
func LazyTensorListSize(ts []*LazyTensor, c Codec) int {
	n := uvarintSize(uint64(len(ts)))
	for _, t := range ts {
		if t == nil {
			n += uvarintSize(0xFF)
			continue
		}
		n += shapeSize(t.Shape) + c.payloadSize(t.Size())
	}
	return n
}
