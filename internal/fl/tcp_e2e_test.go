package fl

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/wire"
)

// e2eConfig is the shared session shape for the transport-equivalence
// test: every client participates in every round, so the only variable
// between the two runs is the transport itself.
func e2eConfig(codec wire.Codec) ServerConfig {
	return ServerConfig{Rounds: 3, MinClients: 3, Codec: codec}
}

// e2eDeltas are exact dyadic values: their sums and means are exact in
// float64 regardless of client arrival order, so the final model is
// bitwise reproducible across transports.
var e2eDeltas = []float64{1, 2, 4}

func e2eState() []*tensor.Tensor { return newState(0, 8) }

// runPipeE2E runs the session over in-memory pipes.
func runPipeE2E(t *testing.T, codec wire.Codec) []*tensor.Tensor {
	t.Helper()
	state := e2eState()
	srv := NewServer(state, e2eConfig(codec))
	trainers := make([]*testTrainer, len(e2eDeltas))
	for i, d := range e2eDeltas {
		trainers[i] = newTestTrainer("mem", false, d)
		trainers[i].maxCodec = codec
	}
	if _, err := runSession(t, srv, trainers); err != nil {
		t.Fatal(err)
	}
	return state
}

// runTCPE2E runs the same session over real TCP on loopback: the server
// accepts in-process connections from concurrently dialling clients.
func runTCPE2E(t *testing.T, codec wire.Codec) []*tensor.Tensor {
	t.Helper()
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	clientErrs := make([]error, len(e2eDeltas))
	for i, d := range e2eDeltas {
		wg.Add(1)
		go func(i int, d float64) {
			defer wg.Done()
			conn, err := Dial(l.Addr())
			if err != nil {
				clientErrs[i] = err
				return
			}
			defer conn.Close()
			tr := newTestTrainer("tcp", false, d)
			tr.maxCodec = codec
			client := NewClient(conn, tr)
			client.MaxCodec = codec
			clientErrs[i] = client.Run()
		}(i, d)
	}

	conns := make([]Conn, 0, len(e2eDeltas))
	for len(conns) < len(e2eDeltas) {
		c, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}

	state := e2eState()
	srv := NewServer(state, e2eConfig(codec))
	if _, err := srv.Run(conns); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range clientErrs {
		if err != nil {
			t.Fatalf("tcp client %d: %v", i, err)
		}
	}
	return state
}

// TestTCPSessionMatchesInMemorySession runs one multi-client session
// over fl.Pipe and one over real loopback TCP — under every codec — and
// asserts the final global models are bitwise identical between the two
// transports. For f64 this also pins the exact pre-codec arithmetic;
// the deltas are constant tensors, so q8/f32 sessions stay exact too.
func TestTCPSessionMatchesInMemorySession(t *testing.T) {
	for _, codec := range []wire.Codec{wire.CodecF64, wire.CodecF32, wire.CodecQ8} {
		t.Run(codec.String(), func(t *testing.T) {
			viaPipe := runPipeE2E(t, codec)
			viaTCP := runTCPE2E(t, codec)

			if len(viaPipe) != len(viaTCP) {
				t.Fatalf("tensor counts differ: %d vs %d", len(viaPipe), len(viaTCP))
			}
			for i := range viaPipe {
				if !viaPipe[i].SameShape(viaTCP[i]) {
					t.Fatalf("tensor %d shapes differ", i)
				}
				for j := range viaPipe[i].Data {
					if viaPipe[i].Data[j] != viaTCP[i].Data[j] {
						t.Fatalf("tensor %d elem %d: pipe %v != tcp %v",
							i, j, viaPipe[i].Data[j], viaTCP[i].Data[j])
					}
				}
			}
			// Sanity: 3 rounds of mean(1,2,4) each, accumulated with the
			// exact float operations the engine uses (reciprocal multiply,
			// repeated add).
			sum, n := 7.0, 3.0 // variables: Go folds constant float math exactly
			mean := sum * (1.0 / n)
			want := 0.0
			for r := 0; r < 3; r++ {
				want += mean
			}
			if got := viaPipe[0].Data[0]; got != want {
				t.Fatalf("final state = %v, want %v", got, want)
			}
		})
	}
}

// TestTCPQueuedUpdatesKeepTheirPayloads: decoded GradUps hold views
// into their frames, so a TCP connection must not read the next frame
// into the buffer the previous update still points at. Two same-sized
// updates are queued and both received before the first is folded;
// the fold must be bit for bit the first update's own values.
func TestTCPQueuedUpdatesKeepTheirPayloads(t *testing.T) {
	for _, codec := range []wire.Codec{wire.CodecF64, wire.CodecF32, wire.CodecQ8} {
		t.Run(codec.String(), func(t *testing.T) {
			l, err := Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			client, err := Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			server, err := l.Accept()
			if err != nil {
				t.Fatal(err)
			}
			defer server.Close()
			client.SetCodec(codec)
			server.SetCodec(codec)

			ref := []*tensor.Tensor{tensor.New(16, 8), tensor.New(5)}
			updates := make([][]*tensor.Tensor, 2)
			for k := range updates {
				rng := rand.New(rand.NewSource(int64(k + 1)))
				for _, r := range ref {
					updates[k] = append(updates[k], tensor.Randn(rng, 1, r.Shape...))
				}
			}
			sendErr := make(chan error, 1)
			go func() {
				for _, u := range updates {
					if err := client.Send(&GradUp{Round: 1, Plain: u}); err != nil {
						sendErr <- err
						return
					}
				}
				sendErr <- nil
			}()
			var got []*GradUp
			for range updates {
				m, err := server.Recv()
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, m.(*GradUp))
			}
			if err := <-sendErr; err != nil {
				t.Fatal(err)
			}
			for k, up := range got {
				// The expected values decode from a private copy of the
				// update's own encoding.
				want, err := DecodeMessageCodec(MsgGradUp, EncodeMessageCodec(&GradUp{Round: 1, Plain: updates[k]}, codec), codec)
				if err != nil {
					t.Fatal(err)
				}
				agg := NewAggregator(ref)
				if err := agg.AccumulateQ8(up.Q8, 1); err != nil {
					t.Fatal(err)
				}
				for i, w := range want.(*GradUp).Tensors() {
					for j, v := range w.Data {
						if g := agg.Sum()[i].Data[j]; math.Float64bits(g) != math.Float64bits(v) {
							t.Fatalf("update %d tensor %d elem %d folded as %v, want %v", k, i, j, g, v)
						}
					}
				}
			}
		})
	}
}
