package secagg

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/wire"
)

// Reconciliation-role errors (k-regular double masking).
var (
	// ErrRoleConflict is returned when the server asks this client to
	// treat one peer as both dropped (reveal the pair seed) and
	// surviving (reveal its self-seed share) in the same round. Honouring
	// both would hand the server everything it needs to unmask that
	// peer's late update — the exact hole double masking closes — so the
	// client refuses and the round fails instead.
	ErrRoleConflict = errors.New("secagg: peer claimed both dropped and surviving in one round")
	// ErrNoRoundState is returned when a reconciliation request arrives
	// for a round this client never masked an update for.
	ErrNoRoundState = errors.New("secagg: no masking state for round")
)

// ClientSession is the device side of the masking protocol for one FL
// session: it owns the mask keypair announced during the handshake and
// turns local updates into masked ring-level tensors.
type ClientSession struct {
	device    string
	key       *MaskKey
	scaleBits int

	// Per-round reconciliation state (k-regular mode): the graph the
	// update was masked under and the roles already conceded per peer.
	// A peer may be treated as dropped or as surviving in a round —
	// never both (ErrRoleConflict).
	round int
	graph *Graph
	peers map[string]Peer
	roles map[string]int
}

const (
	roleDropped  = 1
	roleSurvivor = 2
)

// NewClientSession creates the masking state for one session. A nil
// maskSeed draws the keypair from crypto/rand; a non-nil seed derives
// it deterministically (simulations, tests). scaleBits ≤ 0 selects
// DefaultScaleBits.
func NewClientSession(device string, maskSeed []byte, scaleBits int) (*ClientSession, error) {
	var key *MaskKey
	var err error
	if maskSeed != nil {
		key, err = MaskKeyFromSeed(maskSeed)
	} else {
		key, err = NewMaskKey()
	}
	if err != nil {
		return nil, err
	}
	if scaleBits <= 0 {
		scaleBits = DefaultScaleBits
	}
	if scaleBits > MaxScaleBits {
		return nil, fmt.Errorf("secagg: scale bits %d exceed maximum %d", scaleBits, MaxScaleBits)
	}
	return &ClientSession{device: device, key: key, scaleBits: scaleBits}, nil
}

// MaskPub returns the mask public key for the Attest message.
func (s *ClientSession) MaskPub() []byte { return s.key.Public() }

// ScaleBits returns the session's fixed-point precision.
func (s *ClientSession) ScaleBits() int { return s.scaleBits }

// roundSeedWith derives the round-scoped pair seed with one peer.
func (s *ClientSession) roundSeedWith(peer Peer, round int) ([32]byte, error) {
	pair, err := s.key.pairSecret(peer.Pub)
	if err != nil {
		return [32]byte{}, fmt.Errorf("secagg: pairing with %s: %w", peer.Device, err)
	}
	return RoundSeed(pair, round), nil
}

// selfSeed derives the round-scoped double-masking self seed: secret
// (bound to the private mask key) but deterministic per round, so
// simulated sessions reproduce exactly.
func (s *ClientSession) selfSeed(round int) [32]byte {
	h := sha256.New()
	h.Write([]byte("secagg-self-seed"))
	h.Write(s.key.priv.Bytes())
	var rb [8]byte
	binary.BigEndian.PutUint64(rb[:], uint64(round))
	h.Write(rb[:])
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// MaskedUpdate quantises the update (nil entries mark protected
// positions travelling through the sealed path), multiplies by the
// client's FedAvg weight in the ring, and masks it. The cohort must
// contain this client exactly once and no name twice.
//
// degree 0 is the legacy full-pairwise mode: one mask per cohort peer,
// no self-mask, no shares — byte-compatible with pre-double-masking
// cohorts. degree > 0 masks only against the k-regular graph
// neighbours, adds the self-mask PRG(selfSeed), and returns the
// Shamir shares of that seed wrapped for each neighbour (threshold
// Graph.Threshold), which ride the MaskedUp upload.
func (s *ClientSession) MaskedUpdate(round int, cohort []Peer, degree int, upd []*tensor.Tensor, weight uint64) ([]*wire.U64Tensor, []WrappedShare, error) {
	if weight == 0 {
		return nil, nil, fmt.Errorf("secagg: zero update weight")
	}
	out := make([]*wire.U64Tensor, len(upd))
	var active [][]uint64
	for i, t := range upd {
		if t == nil {
			continue
		}
		q := Quantise(t, ScaleFor(s.scaleBits), weight)
		out[i] = q
		active = append(active, q.Levels)
	}

	self := 0
	peers := make(map[string]Peer, len(cohort))
	for _, peer := range cohort {
		if _, dup := peers[peer.Device]; dup {
			return nil, nil, fmt.Errorf("secagg: duplicate device %q in cohort", peer.Device)
		}
		peers[peer.Device] = peer
		if peer.Device == s.device {
			self++
		}
	}
	if self != 1 {
		return nil, nil, fmt.Errorf("secagg: client %q appears %d times in cohort", s.device, self)
	}

	if degree == 0 {
		s.round, s.graph, s.peers, s.roles = round, nil, nil, nil
		for _, peer := range cohort {
			if peer.Device == s.device {
				continue
			}
			seed, err := s.roundSeedWith(peer, round)
			if err != nil {
				return nil, nil, err
			}
			streamMask(seed, PairSign(s.device, peer.Device), active)
		}
		return out, nil, nil
	}

	names := make([]string, len(cohort))
	for i, p := range cohort {
		names[i] = p.Device
	}
	graph, err := NewGraph(round, names, degree)
	if err != nil {
		return nil, nil, err
	}
	neigh := graph.Neighbors(s.device)
	for _, d := range neigh {
		seed, err := s.roundSeedWith(peers[d], round)
		if err != nil {
			return nil, nil, err
		}
		streamMask(seed, PairSign(s.device, d), active)
	}

	var shares []WrappedShare
	if len(neigh) > 0 {
		// Double mask: the self-mask stays on the update until the server
		// reconstructs its seed from ≥ threshold neighbour shares — so a
		// straggler's masks can be reconciled without ever exposing a
		// folded update, and a late update stays masked by construction.
		seed := s.selfSeed(round)
		streamMask(seed, 1, active)
		xs := make([]uint8, len(neigh))
		for i := range neigh {
			xs[i] = uint8(i + 1) // == graph.ShareIndex(s.device, neigh[i])
		}
		split, err := SplitSeed(seed, xs, graph.Threshold(), s.device)
		if err != nil {
			return nil, nil, fmt.Errorf("secagg: sharing self seed: %w", err)
		}
		shares = make([]WrappedShare, len(neigh))
		for i, d := range neigh {
			pair, err := s.key.pairSecret(peers[d].Pub)
			if err != nil {
				return nil, nil, fmt.Errorf("secagg: pairing with %s: %w", d, err)
			}
			shares[i] = WrappedShare{To: d, Blob: wrapShare(shareWrapKey(pair, round, s.device), split[i])}
		}
	}
	s.round, s.graph, s.peers, s.roles = round, graph, peers, make(map[string]int)
	return out, shares, nil
}

// Shares reveals this client's round seeds with the listed dropped
// peers — the legacy (degree 0) reconciliation path. Only the named
// round's seeds are derivable from the result.
func (s *ClientSession) Shares(round int, cohort []Peer, dropped []string) ([]PairShare, error) {
	byDevice := make(map[string]Peer, len(cohort))
	for _, p := range cohort {
		byDevice[p.Device] = p
	}
	out := make([]PairShare, 0, len(dropped))
	for _, d := range dropped {
		if d == s.device {
			return nil, fmt.Errorf("%w: asked to reveal own seed", ErrSelfInPairs)
		}
		peer, ok := byDevice[d]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNoPair, d)
		}
		seed, err := s.roundSeedWith(peer, round)
		if err != nil {
			return nil, err
		}
		out = append(out, PairShare{Device: d, Seed: seed})
	}
	return out, nil
}

// ReconAnswer is this client's reply to a k-regular reconciliation
// request: pair seeds for its dropped neighbours and unwrapped
// self-seed shares for its folded neighbours.
type ReconAnswer struct {
	Pairs []PairShare
	Seeds []SeedShare
}

// Reconcile answers a double-masking reconciliation request against
// the state MaskedUpdate stored for the round. Per neighbour it
// concedes exactly one role, across every request of the round:
//
//   - dropped → reveal the pairwise round seed (the peer's update
//     never folded; its pair masks must come off the sum);
//   - surviving → unwrap and reveal the peer's self-seed share (its
//     update folded; its self-mask must come off the sum).
//
// A request naming a peer in both roles — or flipping a role conceded
// earlier in the round — fails with ErrRoleConflict: holding the pair
// seeds AND the self-seed shares for one peer is exactly what a
// malicious server needs to unmask that peer's late update. The
// client's own name is refused in either list: its pair seeds would
// unmask itself, and its self seed travels only as shares held by
// neighbours. Wrapped blobs that fail authentication are skipped (the
// server needs only Threshold of the k shares), never guessed at.
func (s *ClientSession) Reconcile(round int, dropped []string, survivors []SeedEnvelope) (*ReconAnswer, error) {
	if s.graph == nil || round != s.round {
		return nil, fmt.Errorf("%w %d", ErrNoRoundState, round)
	}
	neigh := make(map[string]bool)
	for _, d := range s.graph.Neighbors(s.device) {
		neigh[d] = true
	}
	ans := &ReconAnswer{}
	for _, d := range dropped {
		if d == s.device {
			return nil, fmt.Errorf("%w: asked to reveal own seed", ErrSelfInPairs)
		}
		if !neigh[d] {
			return nil, fmt.Errorf("%w: %q is not a mask neighbour", ErrNoPair, d)
		}
		if s.roles[d] == roleSurvivor {
			return nil, fmt.Errorf("%w: %q", ErrRoleConflict, d)
		}
		s.roles[d] = roleDropped
		seed, err := s.roundSeedWith(s.peers[d], round)
		if err != nil {
			return nil, err
		}
		ans.Pairs = append(ans.Pairs, PairShare{Device: d, Seed: seed})
	}
	for _, env := range survivors {
		if env.Owner == s.device {
			return nil, fmt.Errorf("%w: asked to reveal own seed", ErrSelfInPairs)
		}
		if !neigh[env.Owner] {
			return nil, fmt.Errorf("%w: %q is not a mask neighbour", ErrNoPair, env.Owner)
		}
		if s.roles[env.Owner] == roleDropped {
			return nil, fmt.Errorf("%w: %q", ErrRoleConflict, env.Owner)
		}
		s.roles[env.Owner] = roleSurvivor
		pair, err := s.key.pairSecret(s.peers[env.Owner].Pub)
		if err != nil {
			return nil, fmt.Errorf("secagg: pairing with %s: %w", env.Owner, err)
		}
		sh, err := unwrapShare(shareWrapKey(pair, round, env.Owner), env.Blob)
		if err != nil {
			continue // corrupt blob: withhold this share, not the round
		}
		ans.Seeds = append(ans.Seeds, SeedShare{Owner: env.Owner, X: sh.X, Data: sh.Data})
	}
	return ans, nil
}
