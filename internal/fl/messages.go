// Package fl implements the federated-learning orchestration of the
// paper's Figure 2: TEE-aware client selection with remote attestation,
// model + training-plan distribution (protected weights travel sealed
// through the trusted I/O path), secure local training on the client, and
// FedAvg aggregation of the returned updates on the server.
//
// The package is substrate-generic: protection scheduling and secure
// training are injected through the RoundPlanner and Trainer interfaces,
// implemented by internal/core (GradSec).
package fl

import (
	"encoding/binary"
	"fmt"

	"github.com/gradsec/gradsec/internal/secagg"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/tz"
	"github.com/gradsec/gradsec/internal/wire"
)

// MsgType discriminates protocol messages.
type MsgType byte

// Protocol message types.
const (
	MsgChallenge MsgType = iota + 1
	MsgAttest
	MsgReject
	MsgModelDown
	MsgGradUp
	MsgDone
	MsgError
	MsgMaskedUp
	MsgMaskRecon
	MsgMaskShares
	MsgShardDown
	MsgPartialUp
	MsgCodecSwitch
)

// Message is one protocol unit.
type Message interface {
	// Kind returns the message discriminator.
	Kind() MsgType
	encode(w *wire.Writer)
	decode(r *wire.Reader)
}

// Challenge opens selection for a training session: the server sends a
// fresh attestation nonce, its trusted-channel public key, and the
// tensor codec it offers for the session.
type Challenge struct {
	Nonce      []byte
	ServerPub  []byte
	RequireTEE bool
	// Codec is the server's offered tensor codec; the client answers
	// with min(offer, its own cap) in Attest.Codec. Absent (pre-codec
	// peers) means CodecF64.
	Codec wire.Codec
	// SecAgg announces masked secure aggregation for the session: the
	// client must answer with a mask public key and send MaskedUp
	// instead of GradUp each round.
	SecAgg bool
	// ScaleBits is the fixed-point precision for masked updates
	// (secagg.DefaultScaleBits when the server leaves it zero).
	ScaleBits uint8
	// MaskDegree announces the session's masking topology: 0 is the
	// legacy full-pairwise mode (also what pre-double-masking peers
	// assume), secagg.AutoDegree (-1) sizes the k-regular graph per
	// round from the cohort, and a positive value fixes the degree.
	// The resolved per-round degree rides ModelDown.MaskDegree.
	// Trailing field; on the wire 0→0, auto→1, fixed k→k+1, so absent
	// decodes as legacy.
	MaskDegree int
	// AggQuote, when non-empty (detected via AggQuote.DeviceID), attests
	// the server-side aggregation enclave over
	// secagg.AggQuoteNonce(Nonce, ServerPub) — binding the enclave's TA
	// identity to the trusted-channel key clients seal against. The
	// challenge nonce is server-chosen, so the quote proves identity
	// and key custody, not freshness — see the secagg package notes.
	AggQuote tz.Quote
}

// Kind implements Message.
func (*Challenge) Kind() MsgType { return MsgChallenge }

func (m *Challenge) encode(w *wire.Writer) {
	w.Blob(m.Nonce)
	w.Blob(m.ServerPub)
	w.Bool(m.RequireTEE)
	w.Uvarint(uint64(m.Codec))
	w.Bool(m.SecAgg)
	w.Uvarint(uint64(m.ScaleBits))
	w.String(m.AggQuote.DeviceID)
	w.Blob(m.AggQuote.Measurement[:])
	w.Blob(m.AggQuote.Nonce)
	w.Blob(m.AggQuote.MAC)
	w.Uvarint(encodeMaskDegree(m.MaskDegree))
}

// encodeMaskDegree / decodeMaskDegree map the MaskDegree config onto an
// unsigned trailing wire field: 0 (legacy full pairwise) → 0, auto (-1)
// → 1, fixed degree k → k+1. An absent field therefore reads back as
// legacy, keeping old peers' wire behaviour byte-for-byte.
func encodeMaskDegree(d int) uint64 {
	switch {
	case d < 0:
		return 1
	case d == 0:
		return 0
	default:
		return uint64(d) + 1
	}
}

func decodeMaskDegree(v uint64) int {
	switch v {
	case 0:
		return 0
	case 1:
		return secagg.AutoDegree
	default:
		return int(v) - 1
	}
}

func (m *Challenge) decode(r *wire.Reader) {
	m.Nonce = r.Blob()
	m.ServerPub = r.Blob()
	m.RequireTEE = r.Bool()
	if r.Err() == nil && r.Remaining() > 0 {
		m.Codec = wire.Codec(r.Uvarint())
	}
	if r.Err() == nil && r.Remaining() > 0 {
		m.SecAgg = r.Bool()
		m.ScaleBits = uint8(r.Uvarint())
		m.AggQuote.DeviceID = r.String()
		copy(m.AggQuote.Measurement[:], r.Blob())
		m.AggQuote.Nonce = r.Blob()
		m.AggQuote.MAC = r.Blob()
	}
	if r.Err() == nil && r.Remaining() > 0 {
		m.MaskDegree = decodeMaskDegree(r.Uvarint())
	}
}

// Attest is the client's selection response: device capability, an
// attestation quote over its GradSec TA, and the TA's channel public key.
type Attest struct {
	DeviceID  string
	HasTEE    bool
	Quote     tz.Quote
	ClientPub []byte
	// Codec is the tensor codec the client will speak for the rest of
	// the session: at most the server's offer (the server rejects a
	// client that answers above it). Absent means CodecF64.
	Codec wire.Codec
	// MaskPub is the client's pairwise-masking public key, required
	// when the challenge announced SecAgg.
	MaskPub []byte
	// Cap is the client's true maximum codec, which may exceed the
	// negotiated Codec when the server opened with a conservative offer.
	// It lets an adaptive server upgrade the session codec later
	// (CodecSwitch) without renegotiating. Absent (pre-adaptive peers)
	// means the negotiated codec is also the cap.
	Cap wire.Codec
}

// Kind implements Message.
func (*Attest) Kind() MsgType { return MsgAttest }

func (m *Attest) encode(w *wire.Writer) {
	w.String(m.DeviceID)
	w.Bool(m.HasTEE)
	w.String(m.Quote.DeviceID)
	w.Blob(m.Quote.Measurement[:])
	w.Blob(m.Quote.Nonce)
	w.Blob(m.Quote.MAC)
	w.Blob(m.ClientPub)
	w.Uvarint(uint64(m.Codec))
	w.Blob(m.MaskPub)
	w.Uvarint(uint64(m.Cap))
}

func (m *Attest) decode(r *wire.Reader) {
	m.DeviceID = r.String()
	m.HasTEE = r.Bool()
	m.Quote.DeviceID = r.String()
	copy(m.Quote.Measurement[:], r.Blob())
	m.Quote.Nonce = r.Blob()
	m.Quote.MAC = r.Blob()
	m.ClientPub = r.Blob()
	if r.Err() == nil && r.Remaining() > 0 {
		m.Codec = wire.Codec(r.Uvarint())
	}
	if r.Err() == nil && r.Remaining() > 0 {
		m.MaskPub = r.Blob()
	}
	if r.Err() == nil && r.Remaining() > 0 {
		m.Cap = wire.Codec(r.Uvarint())
	}
	if m.Cap < m.Codec {
		m.Cap = m.Codec // absent or stale cap: the spoken codec is proof
	}
}

// Reject tells a client it was not selected.
type Reject struct {
	Reason string
}

// Kind implements Message.
func (*Reject) Kind() MsgType { return MsgReject }

func (m *Reject) encode(w *wire.Writer) { w.String(m.Reason) }
func (m *Reject) decode(r *wire.Reader) { m.Reason = r.String() }

// ModelDown distributes the round's model: unprotected parameter tensors
// travel in the clear (nil at protected positions); protected tensors are
// sealed for the TA through the trusted I/O path. Plan carries the
// round's protection plan blob. In secure-aggregation sessions Cohort
// lists the round's sampled peers (device + mask public key) so every
// member can derive its pairwise masks. Version tags the model state the
// tensors were taken from — in round-synchronous sessions it equals
// Round, in asynchronous sessions it counts buffered applications — and
// the client echoes it back in GradUp.Version so the server can compute
// the update's staleness.
//
// Plain is what a sender fills; a decoded ModelDown carries its tensors
// in Lazy instead — views into the frame, under any codec — and leaves
// Plain nil. Tensors() materialises either form; fl.Client decodes Lazy
// into a pooled model buffer.
type ModelDown struct {
	Round   int
	Plain   []*tensor.Tensor
	Lazy    []*wire.LazyTensor
	Sealed  []byte
	Plan    []byte
	Cohort  []secagg.Peer
	Version uint64
	// Trace is the round-scoped trace ID the serving tier stamps on its
	// spans (minted at the hierarchy root, or by the flat server). The
	// client adopts it for its own spans so a stitched timeline
	// correlates all tiers of one round. Trailing field: absent (0) on
	// pre-telemetry peers.
	Trace uint64
	// MaskDegree is the round's resolved mask-graph degree: 0 means full
	// pairwise masking over the cohort (legacy), k > 0 means the client
	// masks only against its neighbours in the deterministic k-regular
	// graph derived from (Round, Cohort) and double-masks with a
	// Shamir-shared self seed. Trailing field: absent (0) keeps the
	// legacy behaviour.
	MaskDegree int
}

// Kind implements Message.
func (*ModelDown) Kind() MsgType { return MsgModelDown }

// Tensors returns the model tensors, materialising the lazy form if
// that is what arrived.
func (m *ModelDown) Tensors() []*tensor.Tensor { return materialise(m.Plain, m.Lazy) }

// materialise returns plain, or fresh tensors decoded from lazy when
// plain is nil (a decoded message).
func materialise(plain []*tensor.Tensor, lazy []*wire.LazyTensor) []*tensor.Tensor {
	if plain != nil || lazy == nil {
		return plain
	}
	out := make([]*tensor.Tensor, len(lazy))
	for i, t := range lazy {
		if t != nil {
			out[i] = t.Materialise()
		}
	}
	return out
}

// encodeTensors writes plain, or re-encodes lazy when plain is nil.
func encodeTensors(w *wire.Writer, plain []*tensor.Tensor, lazy []*wire.LazyTensor) {
	if plain == nil && lazy != nil {
		w.LazyTensorList(lazy)
	} else {
		w.TensorList(plain)
	}
}

// tensorsSize is the encoded size of what encodeTensors writes.
func tensorsSize(plain []*tensor.Tensor, lazy []*wire.LazyTensor, c wire.Codec) int {
	if plain == nil && lazy != nil {
		return wire.LazyTensorListSize(lazy, c)
	}
	return wire.TensorListSize(plain, c)
}

// varints bounds the encoded size of a message's n scalar varint fields.
func varints(n int) int { return n * binary.MaxVarintLen64 }

func (m *ModelDown) size(c wire.Codec) int {
	n := varints(6) + tensorsSize(m.Plain, m.Lazy, c) + wire.BlobSize(m.Sealed) + wire.BlobSize(m.Plan)
	for _, p := range m.Cohort {
		n += varints(2) + len(p.Device) + len(p.Pub)
	}
	return n
}

func (m *ModelDown) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Round))
	encodeTensors(w, m.Plain, m.Lazy)
	w.Blob(m.Sealed)
	w.Blob(m.Plan)
	w.Uvarint(uint64(len(m.Cohort)))
	for _, p := range m.Cohort {
		w.String(p.Device)
		w.Blob(p.Pub)
	}
	w.Uvarint(m.Version)
	w.Uvarint(m.Trace)
	w.Uvarint(uint64(m.MaskDegree))
}

func (m *ModelDown) decode(r *wire.Reader) {
	m.Round = int(r.Uvarint())
	m.Lazy = r.LazyTensorList()
	m.Sealed = r.Blob()
	m.Plan = r.Blob()
	if r.Err() != nil || r.Remaining() == 0 {
		return
	}
	m.Cohort = decodePeerList(r)
	if r.Err() == nil && r.Remaining() > 0 {
		m.Version = r.Uvarint()
	}
	if r.Err() == nil && r.Remaining() > 0 {
		m.Trace = r.Uvarint()
	}
	if r.Err() == nil && r.Remaining() > 0 {
		m.MaskDegree = int(r.Uvarint())
	}
}

// decodeBoundedList reads a length-prefixed list of elements, each
// costing at least one encoded byte: a hostile count claim is rejected
// against the remaining payload, the initial allocation is capped so
// the claim alone cannot force a large allocation, and decoding stops
// (returning nil, with the reader's sticky error set by the element
// decoder) at the first corrupt element.
func decodeBoundedList[T any](r *wire.Reader, elem func(*wire.Reader) T) []T {
	n := r.Uvarint()
	if r.Err() != nil || n > uint64(r.Remaining()) {
		return nil
	}
	out := make([]T, 0, min(n, 1024))
	for i := uint64(0); i < n; i++ {
		e := elem(r)
		if r.Err() != nil {
			return nil
		}
		out = append(out, e)
	}
	return out
}

// decodePeerList reads the cohort roster into two shared backing
// slabs — one string carrying every device name, one byte slice
// carrying every mask pub — instead of two heap objects per peer. The
// roster rides every ModelDown, so at fleet scale a cohort of n costs
// n·cohort decoded peers per round and the per-peer garbage was
// costing the collector more than the decode itself. Bounds mirror
// decodeBoundedList: the count claim is checked against the remaining
// payload and decoding stops at the first corrupt element.
func decodePeerList(r *wire.Reader) []secagg.Peer {
	n := r.Uvarint()
	if r.Err() != nil || n > uint64(r.Remaining()) {
		return nil
	}
	lens := make([][2]int, 0, min(n, 1024))
	var names, pubs []byte
	for i := uint64(0); i < n; i++ {
		name := r.BlobBytes()
		pub := r.BlobBytes()
		if r.Err() != nil {
			return nil
		}
		names = append(names, name...)
		pubs = append(pubs, pub...)
		lens = append(lens, [2]int{len(name), len(pub)})
	}
	shared := string(names)
	out := make([]secagg.Peer, len(lens))
	no, po := 0, 0
	for i, l := range lens {
		out[i] = secagg.Peer{
			Device: shared[no : no+l[0]],
			Pub:    pubs[po : po+l[1] : po+l[1]],
		}
		no += l[0]
		po += l[1]
	}
	return out
}

// GradUp returns the client's model update: unprotected update tensors in
// the clear, protected ones sealed. Examples carries the size of the
// client's local training set; when positive the server uses it as the
// FedAvg weight (0 — including pre-codec peers — means unit weight).
// Version echoes the ModelDown.Version the update was trained against.
// The asynchronous engine derives the update's staleness from it (the
// difference against the current model version); the round-synchronous
// engine ignores it.
//
// Plain is what a sender fills. A decoded GradUp leaves Plain nil and
// carries its tensors, under every codec, in the lazy field Q8: views
// into the frame (wire.LazyTensor) that the aggregator folds without
// materialising a per-client float64 model
// (Aggregator.AccumulateQ8). Despite its name the field is
// codec-generic, as is AccumulateQ8; both keep their names because the
// benchmark harness compiles against them. Tensors() materialises
// either form on demand.
type GradUp struct {
	Round    int
	Plain    []*tensor.Tensor
	Q8       []*wire.LazyTensor
	Sealed   []byte
	Examples uint64
	Version  uint64
	// Telemetry is an optional obs.Snapshot delta of the client's own
	// metric registry (training step timing, SMC cost), folded into the
	// server's fleet view when ServerConfig.ClientTelemetry is on.
	// Trailing field: absent (empty) on pre-telemetry peers and when the
	// client has no registry.
	Telemetry []byte
}

// Kind implements Message.
func (*GradUp) Kind() MsgType { return MsgGradUp }

// Tensors returns the plain update tensors, materialising the lazy form
// if that is what arrived.
func (m *GradUp) Tensors() []*tensor.Tensor { return materialise(m.Plain, m.Q8) }

func (m *GradUp) size(c wire.Codec) int {
	return varints(3) + tensorsSize(m.Plain, m.Q8, c) + wire.BlobSize(m.Sealed) + wire.BlobSize(m.Telemetry)
}

func (m *GradUp) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Round))
	encodeTensors(w, m.Plain, m.Q8)
	w.Blob(m.Sealed)
	w.Uvarint(m.Examples)
	w.Uvarint(m.Version)
	w.Blob(m.Telemetry)
}

func (m *GradUp) decode(r *wire.Reader) {
	m.Round = int(r.Uvarint())
	m.Q8 = r.LazyTensorList()
	m.Sealed = r.Blob()
	if r.Err() == nil && r.Remaining() > 0 {
		m.Examples = r.Uvarint()
	}
	if r.Err() == nil && r.Remaining() > 0 {
		m.Version = r.Uvarint()
	}
	if r.Err() == nil && r.Remaining() > 0 {
		m.Telemetry = r.Blob()
	}
}

// Done ends a session, optionally delivering the final global model.
type Done struct {
	Final []*tensor.Tensor
}

// Kind implements Message.
func (*Done) Kind() MsgType { return MsgDone }

func (m *Done) size(c wire.Codec) int { return wire.TensorListSize(m.Final, c) }
func (m *Done) encode(w *wire.Writer) { w.TensorList(m.Final) }
func (m *Done) decode(r *wire.Reader) { m.Final = r.TensorList() }

// ErrorMsg reports a protocol failure to the peer.
type ErrorMsg struct {
	Text string
}

// Kind implements Message.
func (*ErrorMsg) Kind() MsgType { return MsgError }

func (m *ErrorMsg) encode(w *wire.Writer) { w.String(m.Text) }
func (m *ErrorMsg) decode(r *wire.Reader) { m.Text = r.String() }

// MaskedUp is the secure-aggregation counterpart of GradUp: the
// unprotected update travels as fixed-point ring levels with the
// cohort's pairwise masks added (nil at protected positions), opaque to
// the server until the cohort sum cancels the masks. Protected tensors
// still ride the sealed path (aggregated inside the server enclave).
// Levels always travel as raw 64-bit words regardless of the session
// codec — masked data is incompressible by construction.
type MaskedUp struct {
	Round    int
	Levels   []*wire.U64Tensor
	Sealed   []byte
	Examples uint64
	// Shares carries the client's wrapped Shamir shares of its
	// double-masking self seed, one per mask-graph neighbour, in
	// k-regular rounds (ModelDown.MaskDegree > 0). Each blob is
	// encrypted and authenticated under the owner→holder pair key; the
	// server stores them opaquely and forwards the relevant ones inside
	// MaskRecon.Survivors. Trailing field: absent (nil) in legacy
	// full-pairwise rounds.
	Shares []secagg.WrappedShare
}

// Kind implements Message.
func (*MaskedUp) Kind() MsgType { return MsgMaskedUp }

func (m *MaskedUp) size(wire.Codec) int {
	n := varints(3) + wire.U64TensorListSize(m.Levels) + wire.BlobSize(m.Sealed)
	for _, s := range m.Shares {
		n += varints(2) + len(s.To) + len(s.Blob)
	}
	return n
}

func (m *MaskedUp) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Round))
	w.U64TensorList(m.Levels)
	w.Blob(m.Sealed)
	w.Uvarint(m.Examples)
	w.Uvarint(uint64(len(m.Shares)))
	for _, s := range m.Shares {
		w.String(s.To)
		w.Blob(s.Blob)
	}
}

func (m *MaskedUp) decode(r *wire.Reader) {
	m.Round = int(r.Uvarint())
	m.Levels = r.U64TensorList()
	m.Sealed = r.Blob()
	m.Examples = r.Uvarint()
	if r.Err() == nil && r.Remaining() > 0 {
		m.Shares = decodeBoundedList(r, func(r *wire.Reader) secagg.WrappedShare {
			s := secagg.WrappedShare{To: r.String(), Blob: r.Blob()}
			// A wrapped share has exactly one valid length; anything else
			// is hostile or corrupt and must fail the frame, not linger
			// until reconciliation.
			if r.Err() == nil && len(s.Blob) != secagg.WrappedShareLen {
				r.Fail("wrapped share size")
			}
			return s
		})
	}
}

// MaskRecon asks a surviving cohort member to reconcile the round's
// masks. In legacy full-pairwise rounds the frame is broadcast and
// Dropped lists every straggler: the survivor reveals its pair seeds
// with them. In k-regular rounds the frame is per-recipient: Dropped
// lists only the recipient's dropped neighbours, and Survivors carries
// the wrapped self-seed shares of its folded neighbours for it to
// unwrap — per peer the server sends one of the two, never both (the
// client enforces this with ErrRoleConflict).
type MaskRecon struct {
	Round   int
	Dropped []string
	// Survivors is the k-regular survivor path: each envelope holds a
	// folded neighbour's wrapped self-seed share addressed to this
	// recipient. Trailing field: absent (nil) in legacy rounds.
	Survivors []secagg.SeedEnvelope
}

// Kind implements Message.
func (*MaskRecon) Kind() MsgType { return MsgMaskRecon }

func (m *MaskRecon) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Round))
	w.Uvarint(uint64(len(m.Dropped)))
	for _, d := range m.Dropped {
		w.String(d)
	}
	w.Uvarint(uint64(len(m.Survivors)))
	for _, s := range m.Survivors {
		w.String(s.Owner)
		w.Blob(s.Blob)
	}
}

func (m *MaskRecon) decode(r *wire.Reader) {
	m.Round = int(r.Uvarint())
	m.Dropped = decodeBoundedList(r, func(r *wire.Reader) string { return r.String() })
	if r.Err() == nil && r.Remaining() > 0 {
		m.Survivors = decodeBoundedList(r, func(r *wire.Reader) secagg.SeedEnvelope {
			s := secagg.SeedEnvelope{Owner: r.String(), Blob: r.Blob()}
			if r.Err() == nil && len(s.Blob) != secagg.WrappedShareLen {
				r.Fail("wrapped share size")
			}
			return s
		})
	}
}

// MaskShares answers a MaskRecon: one round-scoped pair seed per
// dropped peer, and — in k-regular rounds — one unwrapped self-seed
// share per folded neighbour the request carried an envelope for. Only
// the named round's masks are derivable from the seeds, so the
// revelation burns nothing beyond the failed pairs.
type MaskShares struct {
	Round  int
	Shares []secagg.PairShare
	// SeedShares are the unwrapped Shamir shares answering
	// MaskRecon.Survivors. A corrupt envelope yields no share (the
	// server needs only the threshold), so len(SeedShares) may be less
	// than len(Survivors). Trailing field: absent (nil) in legacy
	// rounds.
	SeedShares []secagg.SeedShare
}

// Kind implements Message.
func (*MaskShares) Kind() MsgType { return MsgMaskShares }

func (m *MaskShares) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Round))
	w.Uvarint(uint64(len(m.Shares)))
	for _, s := range m.Shares {
		w.String(s.Device)
		w.Blob(s.Seed[:])
	}
	w.Uvarint(uint64(len(m.SeedShares)))
	for _, s := range m.SeedShares {
		w.String(s.Owner)
		w.Uvarint(uint64(s.X))
		w.Blob(s.Data)
	}
}

func (m *MaskShares) decode(r *wire.Reader) {
	m.Round = int(r.Uvarint())
	m.Shares = decodeBoundedList(r, func(r *wire.Reader) secagg.PairShare {
		var s secagg.PairShare
		s.Device = r.String()
		seed := r.Blob()
		// A short seed would zero-pad and silently subtract the wrong
		// mask during reconciliation — corrupting the published
		// aggregate instead of failing the round. Fail-stop instead.
		if r.Err() == nil && len(seed) != len(s.Seed) {
			r.Fail("mask share seed size")
			return s
		}
		copy(s.Seed[:], seed)
		return s
	})
	if r.Err() == nil && r.Remaining() > 0 {
		m.SeedShares = decodeBoundedList(r, func(r *wire.Reader) secagg.SeedShare {
			var s secagg.SeedShare
			s.Owner = r.String()
			x := r.Uvarint()
			s.Data = r.Blob()
			if r.Err() != nil {
				return s
			}
			// A Shamir share has a fixed body and a nonzero x-coordinate
			// below the field order; anything else would corrupt the
			// reconstructed self seed — and thereby the published
			// aggregate — instead of failing the round. Fail-stop.
			if x == 0 || x > 255 || len(s.Data) != secagg.SeedShareLen {
				r.Fail("seed share shape")
				return s
			}
			s.X = uint8(x)
			return s
		})
	}
}

// ShardDown distributes one round's global model from the hierarchy
// root to an edge aggregator, which redistributes it to its shard of
// clients under the edge's own downstream codec. Model tensors are
// encoded with the root↔edge negotiated codec (the root serialises the
// frame once per codec and broadcasts it — encode-once, like
// ModelDown).
type ShardDown struct {
	Round int
	Model []*tensor.Tensor
	// Trace is the root-minted round trace ID; the edge stamps it on its
	// own spans and forwards it to clients via ModelDown.Trace. Trailing
	// field: absent (0) on pre-telemetry peers.
	Trace uint64
}

// Kind implements Message.
func (*ShardDown) Kind() MsgType { return MsgShardDown }

func (m *ShardDown) size(c wire.Codec) int { return varints(2) + wire.TensorListSize(m.Model, c) }

func (m *ShardDown) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Round))
	w.TensorList(m.Model)
	w.Uvarint(m.Trace)
}

func (m *ShardDown) decode(r *wire.Reader) {
	m.Round = int(r.Uvarint())
	m.Model = r.TensorList()
	if r.Err() == nil && r.Remaining() > 0 {
		m.Trace = r.Uvarint()
	}
}

// PartialUp carries one shard's folded round aggregate upstream: the
// un-normalised weighted sum Σ wᵢuᵢ (plain sessions) or the per-tensor
// ring sums of the shard's cancelled masked updates (secure
// aggregation), plus the summed FedAvg weight and the shard's round
// accounting. Partial sums always travel exactly — f64 tensors or raw
// 64-bit ring words — regardless of the negotiated codec, because the
// root's fold must be bit-identical to a flat aggregation of the same
// fleet. Count 0 reports a shard round that failed (e.g. too few
// responders): the root drops the shard for the round instead of the
// session.
type PartialUp struct {
	Round int
	// Sum is the plain weighted sum (nil in secure-aggregation mode).
	Sum []*tensor.Tensor
	// Levels are the shard's ring sums (nil in plain mode). Within the
	// shard the pairwise masks have already cancelled (or been
	// reconciled), so these compose additively in ℤ/2⁶⁴ at the root.
	Levels []*wire.U64Tensor
	// ScaleBits is the fixed-point precision of Levels.
	ScaleBits uint8
	// Weight is the shard's summed FedAvg weight (integer-valued in
	// masked mode).
	Weight float64
	// Count is the number of client updates folded into the partial.
	Count uint64
	// Shard round accounting, folded into the root's RoundStats.
	Sampled       uint64
	Dropped       uint64
	Quarantined   uint64
	LateDiscarded uint64
	Reconciled    uint64
	// Probation counts the shard's clients placed on temporary probation
	// this round (trailing field: absent on pre-probation peers, which
	// folded probation into Quarantined).
	Probation uint64
	// Telemetry is an optional obs.Snapshot delta of the edge's metric
	// registry, folded into the root's fleet-wide families under
	// tier/shard labels. Trailing field: absent (empty) on pre-telemetry
	// peers and when the edge runs without a registry. Degraded shard
	// rounds (Count 0) still carry telemetry — a struggling shard is
	// exactly the one whose latency distributions matter.
	Telemetry []byte
}

// Kind implements Message.
func (*PartialUp) Kind() MsgType { return MsgPartialUp }

func (m *PartialUp) size(wire.Codec) int {
	// Nine varints and the float64 weight.
	return varints(10) + wire.TensorListSize(m.Sum, wire.CodecF64) + wire.U64TensorListSize(m.Levels) + wire.BlobSize(m.Telemetry)
}

func (m *PartialUp) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Round))
	w.ExactTensorList(m.Sum)
	w.U64TensorList(m.Levels)
	w.Uvarint(uint64(m.ScaleBits))
	w.Float64(m.Weight)
	w.Uvarint(m.Count)
	w.Uvarint(m.Sampled)
	w.Uvarint(m.Dropped)
	w.Uvarint(m.Quarantined)
	w.Uvarint(m.LateDiscarded)
	w.Uvarint(m.Reconciled)
	w.Uvarint(m.Probation)
	w.Blob(m.Telemetry)
}

func (m *PartialUp) decode(r *wire.Reader) {
	m.Round = int(r.Uvarint())
	m.Sum = r.ExactTensorList()
	m.Levels = r.U64TensorList()
	m.ScaleBits = uint8(r.Uvarint())
	m.Weight = r.Float64()
	m.Count = r.Uvarint()
	m.Sampled = r.Uvarint()
	m.Dropped = r.Uvarint()
	m.Quarantined = r.Uvarint()
	m.LateDiscarded = r.Uvarint()
	m.Reconciled = r.Uvarint()
	if r.Err() == nil && r.Remaining() > 0 {
		m.Probation = r.Uvarint()
	}
	if r.Err() == nil && r.Remaining() > 0 {
		m.Telemetry = r.Blob()
	}
}

// CodecSwitch retunes the session's tensor codec mid-session (adaptive
// per-round codec downgrade). The ordering rule that keeps the switch
// race-free on a full-duplex connection:
//
//   - Server → client: the server flips its *send* codec the moment the
//     CodecSwitch is written, so everything after it on the downstream
//     leg (including the very next ModelDown) is new-codec.
//   - Client → server: on receipt the client flips both directions and
//     echoes the CodecSwitch back as an ack. Frames the client wrote
//     before the ack are old-codec, frames after it are new-codec.
//   - The server flips its *receive* codec only when the ack arrives
//     (in the connection's read loop, before the next frame is read).
//     FIFO framing therefore guarantees every upstream frame decodes
//     under the codec it was encoded with — a straggler's in-flight
//     old-codec update that races the switch still decodes and is
//     handled by the normal late/stale path instead of poisoning the
//     stream.
//
// The server only switches a client whose Attest.Cap covers the target.
// The CodecSwitch payload itself is codec-independent, so the ack
// decodes correctly under either codec. Should a post-switch frame
// nevertheless fail to decode, the failure surfaces as ErrDecode and is
// probationable — never a silent permanent quarantine.
type CodecSwitch struct {
	Codec wire.Codec
}

// Kind implements Message.
func (*CodecSwitch) Kind() MsgType { return MsgCodecSwitch }

func (m *CodecSwitch) encode(w *wire.Writer) { w.Uvarint(uint64(m.Codec)) }
func (m *CodecSwitch) decode(r *wire.Reader) { m.Codec = wire.Codec(r.Uvarint()) }

// EncodeMessage serialises a message to a framed-payload byte slice
// with the uncompressed f64 tensor codec.
func EncodeMessage(m Message) []byte { return EncodeMessageCodec(m, wire.CodecF64) }

// sizedMessage is implemented by the tensor-carrying messages: size
// bounds the encoded payload under codec c from above (tightly — it
// over-counts only scalar varints), so encoders reserve it up front
// and write the tensors without reallocating.
type sizedMessage interface {
	size(c wire.Codec) int
}

// encodedSize returns m's reserved payload size, 0 for messages too
// small to bother.
func encodedSize(m Message, c wire.Codec) int {
	if sm, ok := m.(sizedMessage); ok {
		return sm.size(c)
	}
	return 0
}

// EncodeMessageCodec serialises a message with the given tensor codec.
// The payload escapes to the caller (pipe frames, broadcast caches), so
// it is one freshly allocated buffer, sized for the message up front,
// rather than a buffer drained from the writer pool — pooled buffer
// reuse belongs to the TCP send path, where frames are written out and
// released immediately.
func EncodeMessageCodec(m Message, codec wire.Codec) []byte {
	w := wire.NewWriterSize(encodedSize(m, codec))
	w.Codec = codec
	m.encode(w)
	return w.Bytes()
}

// DecodeMessage reconstructs a message from its type and payload,
// expecting the uncompressed f64 tensor codec.
func DecodeMessage(mt MsgType, payload []byte) (Message, error) {
	return DecodeMessageCodec(mt, payload, wire.CodecF64)
}

// DecodeMessageCodec reconstructs a message whose tensors were encoded
// with the given codec. ModelDown and GradUp keep their tensors as lazy
// views into payload (see retainsPayload): the caller must leave the
// payload untouched for as long as it holds either message. Every
// other message copies what it keeps, so its payload may be reused
// immediately after.
func DecodeMessageCodec(mt MsgType, payload []byte, codec wire.Codec) (Message, error) {
	var m Message
	switch mt {
	case MsgChallenge:
		m = &Challenge{}
	case MsgAttest:
		m = &Attest{}
	case MsgReject:
		m = &Reject{}
	case MsgModelDown:
		m = &ModelDown{}
	case MsgGradUp:
		m = &GradUp{}
	case MsgDone:
		m = &Done{}
	case MsgError:
		m = &ErrorMsg{}
	case MsgMaskedUp:
		m = &MaskedUp{}
	case MsgMaskRecon:
		m = &MaskRecon{}
	case MsgMaskShares:
		m = &MaskShares{}
	case MsgShardDown:
		m = &ShardDown{}
	case MsgPartialUp:
		m = &PartialUp{}
	case MsgCodecSwitch:
		m = &CodecSwitch{}
	default:
		return nil, fmt.Errorf("fl: unknown message type %d", mt)
	}
	r := wire.NewReader(payload)
	r.Codec = codec
	m.decode(r)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("fl: decoding %T: %w", m, err)
	}
	return m, nil
}

// retainsPayload reports whether a decoded message of type mt holds
// views into its frame payload.
func retainsPayload(mt MsgType) bool { return mt == MsgModelDown || mt == MsgGradUp }

// SealedUpdate encodes indexed tensors for transport inside a trusted
// channel: count, then (flatIndex, tensor) pairs. The sealed path always
// uses the exact f64 encoding — protected tensors are never quantised.
// (The codec lives in wire so the aggregation enclave can parse sealed
// blobs without importing this package.)
func SealedUpdate(idx []int, ts []*tensor.Tensor) []byte {
	return wire.EncodeSealedUpdate(idx, ts)
}

// ParseSealedUpdate decodes a blob produced by SealedUpdate.
func ParseSealedUpdate(blob []byte) (idx []int, ts []*tensor.Tensor, err error) {
	return wire.DecodeSealedUpdate(blob)
}
